"""The op-by-op reference tape for the tests.

The package differentiates its loss as an explicit chain of three
vector-Jacobian products: the loss's, the centering's and the martingale
pass's. Here is the same loss taped op by op on ``autodiff``: the ops only
the tests use, built with ``Tensor._node``; the coupled pass, the network
evaluation, the centering and the loss composed from them; and the tape's
driver (``params_to_tensors``, ``grad``, ``loss_and_grads``). The tests
check every op against finite differences and the package's chain against
``loss_and_grads`` here bit for bit.
"""

from dataclasses import replace

import numpy as np

from martnet.autodiff import Tensor, _data, _unbroadcast
from martnet.dual import PILOT_PATHS, estimate_sigma
from martnet.errors import ShapeError
from martnet.fields import VectorField, payoff_eval
from martnet.mlp import MlpParams, mlp_forward_t, param_arrays
from martnet.schemes import NET_CONFIGS, _append_column, step_kernel


def sub(a, b):
    """a - b for a Tensor a; b may be a constant."""
    bd = _data(b)

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        if isinstance(b, Tensor):
            b._accumulate(_unbroadcast(-g, np.shape(bd)))

    return Tensor._node(a.data - bd, (a, b), backward)


def rsub(c, a):
    """c - a for a constant c."""

    def backward(g):
        a._accumulate(_unbroadcast(-g, a.shape))

    return Tensor._node(c - a.data, (a,), backward)


def matmul(a, b):
    """a @ b; either side may be a constant ndarray."""
    ad, bd = (x.data if isinstance(x, Tensor) else x for x in (a, b))

    def backward(g):
        if isinstance(a, Tensor):
            a._accumulate(g @ bd.T)
        if isinstance(b, Tensor):
            b._accumulate(ad.T @ g)

    return Tensor._node(ad @ bd, (a, b), backward)


def relu(a):
    out = np.maximum(a.data, 0.0)
    return Tensor._node(out, (a,), lambda g: a._accumulate(g * (out > 0.0)))


def sqrt(a):
    out = np.sqrt(a.data)
    return Tensor._node(out, (a,), lambda g: a._accumulate(g / (2.0 * out)))


def mean(a, axis=None, keepdims=False):
    shape = a.shape
    n = a.data.size if axis is None else shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, shape) / n)

    return Tensor._node(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def concat_cols(parts):
    """Concatenate 2-D blocks along axis 1; constants may be ndarrays."""
    datas = [_data(p) for p in parts]
    offsets = np.cumsum([0] + [d.shape[1] for d in datas])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Tensor):
                p._accumulate(g[:, lo:hi])

    return Tensor._node(np.concatenate(datas, axis=1), tuple(parts), backward)


def square(a):
    return Tensor._node(a.data * a.data, (a,), lambda g: a._accumulate(g * (2.0 * a.data)))


def max_rows(a):
    """Row-wise maximum of a 2-D tensor; the gradient flows to the first argmax."""
    rows = np.arange(a.shape[0])
    idx = np.argmax(a.data, axis=1)

    def backward(g):
        gx = np.zeros(a.shape)
        gx[rows, idx] = g
        a._accumulate(gx)

    return Tensor._node(a.data[rows, idx], (a,), backward)


def mlp_ops(net, x):
    """The network composed from matmul, add and relu nodes."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    for w, b in net.layers:
        h = relu(matmul(h, w) + b)
    return matmul(h, net.proj)


def bind_nets(nets, model, partition):
    """dual._bind_nets' evaluation taped as separate nodes.

    The value encoding m * (1 / K), the column concatenation, the network
    and the scaling by K are each a node of their own.
    """
    sx = np.abs(np.asarray(model.x0, dtype=np.float64))
    sx = np.where(sx > 0, sx, 1.0)[None, :]
    sm = float(model.payoff.strike)
    T = partition.T

    def net_fn(j, t, X, m):
        tcol = np.full((X.shape[0], 1), t / T)
        cp = np.concatenate([tcol, X / sx], axis=1)
        ms = m * (1.0 / sm)
        if isinstance(ms, Tensor):
            inp = concat_cols([cp, ms])
        else:
            inp = np.concatenate([cp, ms], axis=1)
        return mlp_forward_t(nets[j], inp) * sm

    return net_fn


def joint_model(model, net):
    """schemes.with_martingale on the tape: each diffusion field j is a concat_cols node.

    Its blocks are V_j at the state's constant X columns and net(j, t, x, m) at
    its M column, a row slice node of the state; V_0 and the Ito field give M
    the constant 0.
    """
    n = model.N

    def zero_m(field):
        return VectorField(lambda t, z: _append_column(field.eval(t, _data(z)[:, :n]), 0.0))

    def driven(field, j):
        def ev(t, z):
            x = _data(z)[:, :n]
            return concat_cols([field.eval(t, x), net(j, t, x, z[:, n:])])

        return VectorField(ev)

    v0, *diffusions = model.stratonovich_fields
    return replace(
        model,
        N=n + 1,
        stratonovich_fields=(zero_m(v0),) + tuple(driven(v, j) for j, v in enumerate(diffusions)),
        x0=np.append(model.x0, 0.0),
        ito_field=zero_m(model.ito_field),
    )


def simulate_coupled(config, nets, model, draws):
    """dual._simulate_coupled on the generic tape under every scheme.

    The scheme's kernel advances the joint state (X, M), a Tensor, one taped
    step at a time, each network evaluation built from separate nodes
    (``bind_nets``), so every stage combination, product, sum and row gather
    of the pass is a node of its own instead of one node for the pass.
    Returns (states, cols) with states the asset paths and cols the (batch, 1)
    knots M_{t_0} (an ndarray), M_{t_1}, ..., M_{t_n}.
    """
    joint = joint_model(model, bind_nets(nets, model, config.partition))
    step = step_kernel(joint, NET_CONFIGS[config.scheme].scheme, draws)
    part = config.partition
    z = np.full((draws.eta.shape[0], joint.N), joint.x0)
    states = np.empty((z.shape[0], part.steps + 1, model.N))
    states[:, 0, :] = z[:, :-1]
    cols = [z[:, -1:]]
    for k in range(part.steps):
        z = step(z, k, float(part.times[k]), float(part.deltas[k]))
        cols.append(z[:, -1:])
        states[:, k + 1, :] = z.data[:, :-1]
    return states, cols


def center_cols(cols):
    """dual.center on the knot columns side by side, as concat_cols, mean and sub nodes."""
    mmat = concat_cols(cols)
    return sub(mmat, mean(mmat, axis=0, keepdims=True))


def bridge_g(a, b, var_dt, u):
    """dual._bridge_g's G on Tensors a and b, one node per operation."""
    shift = -2.0 * var_dt * np.log1p(-u)
    diff = sub(a, b)
    root = sqrt(square(diff) + shift)
    return 0.5 * (a + b + root)


def rogers_loss(Z, M, bridge=False, sigma=None, uniforms=None, deltas=None):
    """The dual loss of a Tensor M as Z - M, the bridge ops, max_rows and mean."""
    D = rsub(Z, M)
    if bridge:
        sigma = np.asarray(sigma, dtype=np.float64)
        u = np.asarray(uniforms, dtype=np.float64)
        D = bridge_g(D[:, :-1], D[:, 1:], sigma * sigma * np.asarray(deltas), u)
    return mean(max_rows(D))


def params_to_tensors(params):
    """MlpParams whose arrays are leaf Tensors, shared across one tape."""
    layers = [(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)) for w, b in params.layers]
    return MlpParams(layers=layers, proj=Tensor(params.proj, requires_grad=True), seed=params.seed)


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


def loss_and_grads(config, mlps, model, draws, bridge=True, uniforms=None, sigma_hat=None):
    """dual.loss_and_grads with the pass, the centering and the loss taped op by op."""
    deltas = config.partition.deltas

    def loss_fn(tensors):
        states, cols = simulate_coupled(config, tensors, model, draws)
        Z = payoff_eval(model.payoff, states)
        Z *= np.exp(-model.params.get("mu", 0.0) * config.partition.times)
        M = center_cols(cols)
        sigma = sigma_hat
        if bridge and sigma is None:
            sigma = estimate_sigma(Z[:PILOT_PATHS] - M.data[:PILOT_PATHS], deltas)
        return rogers_loss(Z, M, bridge=bridge, sigma=sigma, uniforms=uniforms, deltas=deltas)

    return grad(loss_fn, mlps)
