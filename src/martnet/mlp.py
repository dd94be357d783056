"""Minimal multilayer perceptron, its reverse pass, and Adam.

The network is three ReLU layers of 32 nodes (two hidden plus the stated
output layer) followed by a bias-free linear projection to the requested
output dimension. ``pack`` stores each layer (w, b) as one block
[[w, 0], [b, 1]], so on an input that ends in a column of ones a layer is
one GEMM and an in-place ReLU, with no bias pass. The bits are those of
``h @ w + b``: BLAS's dgemm sums each output in order along the inner
dimension, so the bias row, placed last, is added last with one rounding
(gemv, which numpy uses for a single row, does not, so one row keeps
h @ w + b). ``mlp_forward`` is the forward pass and ``mlp_vjp`` the one
reverse pass: it recomputes the hidden layers from the input with the
forward's packs, adds the parameter gradients into plain arrays and
returns the input's gradient, the form in which every Runge-Kutta stage of
``dual``'s explicit gradient chain calls it. ``mlp_forward_t``, the
network on one input as one ``autodiff`` tape node over its own
``mlp_vjp``, serves the tests' op-by-op reference tape only.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .autodiff import Tensor
from .errors import ShapeError, check_count

HIDDEN = 32
DEPTH = 3


@dataclass
class MlpParams:
    """Affine layers [(W, b), ...] and the final projection matrix."""

    layers: list
    proj: np.ndarray
    seed: int = 0

    @property
    def in_dim(self):
        return self.layers[0][0].shape[0]


def init_mlp(in_dim, out_dim=1, seed=0):
    """He-style uniform fan-in init with a fixed seed.

    The projection starts at zero so a freshly built martingale field is
    identically zero and the first loss evaluation reads the raw payoff.
    """
    check_count("in_dim", in_dim, 1)
    check_count("out_dim", out_dim, 1)
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = in_dim
    for _ in range(DEPTH):
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, HIDDEN))
        layers.append((w, np.zeros(HIDDEN)))
        fan_in = HIDDEN
    proj = np.zeros((HIDDEN, out_dim))
    return MlpParams(layers=layers, proj=proj, seed=seed)


@dataclass(frozen=True)
class PackedMlp:
    """A network's layers as blocks [[w, 0], [b, 1]] and its projection (see ``pack``)."""

    blocks: list
    proj: np.ndarray

    @property
    def in_dim(self):
        return self.blocks[0].shape[0] - 1


def pack(params):
    """Each layer (w, b) as one (K + 1) x (H + 1) block [[w, 0], [b, 1]].

    The blocks copy the layers' values and the projection is shared. An
    input row that ends in 1 times a block gives h @ w + b and, in its last
    column, the exact 1 that the next block needs.
    """
    blocks = []
    for w, b in params.layers:
        k, h = w.shape
        block = np.zeros((k + 1, h + 1))
        block[:k, :h] = w
        block[k, :h] = b
        block[k, h] = 1.0
        blocks.append(block)
    return PackedMlp(blocks=blocks, proj=params.proj)


def _hidden_layers(blocks, a):
    """Yield relu(h @ w + b) layer by layer, each a view of a fresh array.

    ``a`` is the input h followed by a column of ones, and each layer is one
    GEMM with its packed block and an in-place ReLU; the fresh array keeps
    its own ones column for the next block, and the view leaves it out.
    BLAS's dgemm sums each output in order along the inner dimension, so
    the bias row, placed last, is added last with one rounding: the bits of
    ``h @ w + b``. A single row goes through gemv instead, which sums a
    packed row in another order, so one row runs h @ w + b on the block.
    """
    for block in blocks:
        if a.shape[0] == 1:
            z = a[:, :-1] @ block[:-1]
            z += block[-1]
        else:
            z = a @ block
        a = np.maximum(z, 0.0, out=z)
        yield a[:, :-1]


def mlp_forward(params, x):
    """Plain numpy forward pass; accepts a single row or a batch.

    ``params`` is an MlpParams, or its ``pack``: then ``x`` ends in a column
    of ones after the network's inputs, the layout ``dual``'s encoder writes.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = np.atleast_2d(x)
    packed = isinstance(params, PackedMlp)
    if a.shape[1] != params.in_dim + packed:
        ones = " and a ones column" if packed else ""
        raise ShapeError(f"input width {a.shape[1]}, network expects {params.in_dim}{ones}")
    if not packed:
        params, a = pack(params), np.concatenate([a, np.ones((a.shape[0], 1))], axis=1)
    for h in _hidden_layers(params.blocks, a):
        pass
    out = h @ params.proj
    return out[0] if single else out


def mlp_forward_t(tensors, x):
    """The network on one input as one tape node.

    ``tensors`` is an MlpParams of leaf Tensors and ``x``, a Tensor or a
    constant ndarray, is the input; a Tensor ``x`` receives the whole input
    gradient. The node keeps ``x`` by reference, so the caller must not
    write to it afterwards. Its backward rebuilds the input and recomputes
    the hidden layers with the forward's arithmetic (``mlp_vjp``), so the
    gradients have the bits of a tape that stores every layer.
    """
    leaves = param_arrays(tensors)
    xs = x.data if isinstance(x, Tensor) else x

    def encoded():
        return np.concatenate([xs, np.ones((xs.shape[0], 1))], axis=1)

    packed = pack(rebuild_params(tensors, [a.data for a in leaves]))

    def backward(g):
        grads = [None] * len(leaves)
        gx = mlp_vjp(packed, encoded(), g, grads)
        for leaf, ga in zip(leaves, grads):
            leaf._accumulate(ga)
        if isinstance(x, Tensor):
            x._accumulate(gx)

    return Tensor._node(mlp_forward(packed, encoded()), (x, *leaves), backward)


def mlp_vjp(packed, xd, g, grads):
    """Add the gradient of sum(net(xd) * g) into ``grads``, one network's gradient list.

    ``packed`` is the network's ``pack`` and ``xd`` the input followed by a
    column of ones. ``grads`` is congruent to ``param_arrays``: an entry
    that is None takes its first gradient as is, and later ones are added
    into it in place. The hidden layers are recomputed from ``xd`` with the
    forward's arithmetic, one layer's vector-Jacobian product at a time,
    last layer first. Returns the gradient in the input, without the ones
    column.
    """
    hs = [xd[:, :-1], *_hidden_layers(packed.blocks, xd)]
    proj = packed.proj
    # a one-column g: the outer product as a broadcast multiply, the bits of g @ proj.T
    gh = g * proj.T if proj.shape[1] == 1 else g @ proj.T
    _add_into(grads, -1, hs[-1].T @ g)
    for i in reversed(range(len(packed.blocks))):
        gz = gh
        gz *= hs[i + 1] > 0.0  # gh is fresh: the ReLU mask goes on in place
        gh = gz @ packed.blocks[i][:-1, :-1].T  # the block's w
        _add_into(grads, 2 * i, hs[i].T @ gz)
        _add_into(grads, 2 * i + 1, gz.sum(axis=0))
    return gh


def _add_into(grads, i, g):
    if grads[i] is None:
        grads[i] = g
    else:
        grads[i] += g


def param_arrays(params):
    """Flat list of the parameter arrays (or their leaf Tensors) in a fixed order."""
    out = []
    for w, b in params.layers:
        out.extend((w, b))
    out.append(params.proj)
    return out


def rebuild_params(template, arrays):
    """MlpParams with the template's shape and the given arrays."""
    n = len(template.layers)
    layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n)]
    return MlpParams(layers=layers, proj=arrays[2 * n], seed=template.seed)


# -- Adam ------------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7


@dataclass
class AdamState:
    """Moment buffers congruent to a flat list of parameter arrays."""

    m: list
    v: list
    t: int = 0
    alpha: float = 0.001


def init_adam(arrays, alpha=0.001):
    return AdamState(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays], alpha=alpha)


def adam_update(state, arrays, grads):
    """One optimiser step; returns (new state, new arrays).

    First and second moments follow the usual recursions; both bias
    corrections use their own decay rate (1 - beta^t).
    """
    t = state.t + 1
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(arrays, grads, state.m, state.v):
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - state.alpha * m_hat / (np.sqrt(v_hat) + EPSILON))
    return AdamState(m=new_m, v=new_v, t=t, alpha=state.alpha), new_p


# -- checkpoints -----------------------------------------------------------
#
# Layout (little-endian): magic b"MNET", uint32 version, uint32 network
# count; per network: int64 seed, uint32 array count, then per array uint32
# ndim followed by uint64 dims; after all headers, the arrays' float64
# buffers in header order.

_MAGIC = b"MNET"
_VERSION = 1


def save_checkpoint(path, mlps):
    blobs = []
    head = [_MAGIC, struct.pack("<II", _VERSION, len(mlps))]
    for p in mlps:
        arrays = param_arrays(p)
        head.append(struct.pack("<qI", p.seed, len(arrays)))
        for a in arrays:
            head.append(struct.pack("<I", a.ndim))
            head.append(struct.pack(f"<{a.ndim}Q", *a.shape))
            blobs.append(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    with atomic_open(path, "wb") as fh:
        fh.write(b"".join(head))
        fh.write(b"".join(blobs))


def _is_layer_stack(shapes):
    """(w 2-D, b 1-D of w's width) pairs whose widths chain, then a 2-D projection."""
    mats, biases = shapes[::2], shapes[1::2]
    if len(shapes) < 3 or len(shapes) % 2 == 0 or any(len(s) != 2 for s in mats):
        return False
    return all(b == (w[1],) and w[1] == nxt[0] for w, b, nxt in zip(mats, biases, mats[1:]))


def load_checkpoint(path):
    """Read a checkpoint; raises ShapeError unless the file is exactly one."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ShapeError(f"cannot read checkpoint {path}: {exc}")
    if raw[:4] != _MAGIC:
        raise ShapeError(f"{path} is not a checkpoint file")
    off = 4

    def take(n_bytes):
        nonlocal off
        if off + n_bytes > len(raw):
            raise ShapeError(f"{path} is truncated at byte {len(raw)}: needs {off + n_bytes}")
        off += n_bytes
        return off - n_bytes

    def unpack(fmt):
        return struct.unpack_from(fmt, raw, take(struct.calcsize(fmt)))

    version, count = unpack("<II")
    if version != _VERSION:
        raise ShapeError(f"{path}: unsupported checkpoint version {version}")
    headers = []
    for index in range(count):
        seed, n_arrays = unpack("<qI")
        shapes = []
        for _ in range(n_arrays):
            (ndim,) = unpack("<I")
            shapes.append(unpack(f"<{ndim}Q"))
        if not _is_layer_stack(shapes):
            raise ShapeError(f"{path}: network {index} is not a stack of layers (array shapes {shapes})")
        headers.append((seed, shapes))
    mlps = []
    for seed, shapes in headers:
        arrays = []
        for shape in shapes:
            size = math.prod(shape)
            a = np.frombuffer(raw, dtype="<f8", count=size, offset=take(8 * size)).reshape(shape).copy()
            arrays.append(a)
        n_layers = (len(arrays) - 1) // 2
        layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n_layers)]
        mlps.append(MlpParams(layers=layers, proj=arrays[-1], seed=seed))
    if off != len(raw):
        raise ShapeError(f"{path} has {len(raw) - off} trailing bytes after the last array")
    return mlps

