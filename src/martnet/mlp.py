"""Minimal multilayer perceptron, reverse-mode gradients, and Adam.

The network is three ReLU layers of 32 nodes (two hidden plus the stated
output layer) followed by a bias-free linear projection to the requested
output dimension. Forward passes come in two flavours: a plain numpy path
for evaluation, and a taped path over autodiff Tensors for training.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .autodiff import Tensor, affine_relu
from .errors import NumericError, ShapeError

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


def mlp_forward(params, x):
    """Plain numpy forward pass; accepts a single row or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != params.in_dim:
        raise ShapeError(f"input width {h.shape[1]}, network expects {params.in_dim}")
    for w, b in params.layers:
        h = h @ w  # a fresh array, so the layers below never write the caller's input
        np.maximum(np.add(h, b, out=h), 0.0, out=h)
    out = h @ params.proj
    return out[0] if single else out


def params_to_tensors(params):
    """MlpParams whose arrays are leaf Tensors, shared across one tape."""
    layers = [
        (Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
        for w, b in params.layers
    ]
    return MlpParams(layers=layers, proj=Tensor(params.proj, requires_grad=True), seed=params.seed)


def mlp_forward_t(tensors, x, check=False):
    """Taped forward pass. ``x`` may be a Tensor or a constant ndarray."""
    h = x
    for i, (w, b) in enumerate(tensors.layers):
        h = affine_relu(h, w, b)
        if check and not np.all(np.isfinite(h.data)):
            raise NumericError(f"mlp layer {i + 1} produced non-finite values")
    out = h @ tensors.proj
    if check and not np.all(np.isfinite(out.data)):
        raise NumericError("mlp projection produced non-finite values")
    return out


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


def grad(loss_fn, params_list):
    """Reverse-mode gradient of a scalar loss over several networks.

    loss_fn receives a list of taped MlpParams (one per network, leaves shared
    with the returned gradient order) and must return a scalar Tensor.
    Returns (loss value, list of gradient-array lists congruent to
    param_arrays of each network).
    """
    tensors = [params_to_tensors(p) for p in params_list]
    loss = loss_fn(tensors)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError("loss_fn must return a scalar Tensor")
    loss.backward()
    grads = []
    for ts in tensors:
        arrs = param_arrays(ts)
        grads.append([a.grad if a.grad is not None else np.zeros_like(a.data) for a in arrs])
    return float(loss.data), grads


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

