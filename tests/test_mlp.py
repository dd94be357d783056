import math
import struct

import numpy as np
import pytest

from martnet.autodiff import Tensor
from martnet.mlp import (
    MlpParams,
    init_mlp,
    mlp_forward,
    mlp_forward_t,
    pack,
    param_arrays,
    rebuild_params,
    init_adam,
    adam_update,
    save_checkpoint,
    load_checkpoint,
    DEPTH,
    HIDDEN,
)
from martnet.errors import InvalidParameterError, ShapeError

from tape_reference import grad, mean, mlp_ops, params_to_tensors, square


def test_architecture_dimensions():
    p = init_mlp(4, 2, seed=0)
    assert len(p.layers) == DEPTH
    assert p.layers[0][0].shape == (4, HIDDEN)
    for w, b in p.layers[1:]:
        assert w.shape == (HIDDEN, HIDDEN) and b.shape == (HIDDEN,)
    assert p.proj.shape == (HIDDEN, 2)
    assert p.in_dim == 4


@pytest.mark.parametrize(
    "in_dim,out_dim,match",
    [(0, 1, "in_dim must be >= 1"), (2.5, 1, "in_dim must be an integer"), (3, 0, "out_dim must be >= 1")],
)
def test_init_refuses_bad_widths_by_name(in_dim, out_dim, match):
    with pytest.raises(InvalidParameterError, match=match):
        init_mlp(in_dim, out_dim)


def test_fresh_net_outputs_zero():
    p = init_mlp(3, 1, seed=1)
    x = np.random.default_rng(0).standard_normal((10, 3))
    np.testing.assert_array_equal(mlp_forward(p, x), np.zeros((10, 1)))


def test_zero_weights_zero_biases():
    p = init_mlp(2, 1, seed=0)
    for w, b in p.layers:
        w[:] = 0.0
        b[:] = 0.0
    p.proj[:] = 1.0
    np.testing.assert_array_equal(mlp_forward(p, np.array([5.0, -3.0])), [0.0])


def test_identity_like_relu():
    layers = [(np.array([[1.0]]), np.zeros(1))]
    p = MlpParams(layers=layers, proj=np.array([[1.0]]))
    assert mlp_forward(p, np.array([-3.0]))[0] == 0.0
    assert mlp_forward(p, np.array([2.0]))[0] == 2.0


def test_positive_homogeneity():
    p = init_mlp(3, 1, seed=4)
    p.proj[:] = np.random.default_rng(4).standard_normal(p.proj.shape)
    x = np.random.default_rng(5).standard_normal((6, 3))
    a = mlp_forward(p, 3.0 * x)
    b = 3.0 * mlp_forward(p, x)
    np.testing.assert_allclose(a, b, rtol=1e-12)  # zero biases: ReLU cone


def test_forward_dimension_check():
    p = init_mlp(3, 1, seed=0)
    with pytest.raises(ShapeError):
        mlp_forward(p, np.ones((2, 4)))
    with pytest.raises(ShapeError):  # a packed network also reads the ones column
        mlp_forward(pack(p), np.ones((2, 3)))


@pytest.mark.parametrize(
    "batch, width",  # widths 3 and 4: the bsm and heston encoded inputs
    [
        pytest.param(batch, width, id=str(batch) if width == 4 else f"{batch}-w{width}")
        for width in (4, 3)
        for batch in (1, 2, 3, 255, 256, 257, 512, 513, 4096, 8192)
    ],
)
def test_forward_in_place_matches_composition(batch, width):
    # the packed layers keep the bits of relu(h @ w + b) at every batch size
    p = init_mlp(width, 1, seed=3)
    rng = np.random.default_rng(batch)
    for w, b in p.layers:
        b[:] = rng.standard_normal(b.shape) * 0.1
    p.proj[:] = rng.standard_normal(p.proj.shape)
    x = rng.standard_normal((batch, width))
    x_before = x.copy()
    h = x
    for w, b in p.layers:
        h = np.maximum(h @ w + b, 0.0)
    want = h @ p.proj
    got = mlp_forward(p, x)
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == x_before.tobytes()
    xd = np.empty((width + 1, batch)).T  # the encoder's column-major layout, ending in ones
    xd[:, :-1] = x
    xd[:, -1] = 1.0
    assert mlp_forward(pack(p), xd).tobytes() == want.tobytes()


def test_taped_forward_matches_plain():
    p = init_mlp(3, 2, seed=6)
    p.proj[:] = np.random.default_rng(6).standard_normal(p.proj.shape) * 0.1
    x = np.random.default_rng(7).standard_normal((5, 3))
    t_out = mlp_forward_t(params_to_tensors(p), x)
    np.testing.assert_allclose(t_out.data, mlp_forward(p, x), rtol=1e-13)


def _random_net(in_dim, seed):
    """init_mlp with nonzero biases and projection, so every gradient is live."""
    p = init_mlp(in_dim, 2, seed=seed)
    rng = np.random.default_rng(seed)
    for _, b in p.layers:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    p.proj[:] = rng.standard_normal(p.proj.shape)
    return p


@pytest.mark.parametrize("batch", [1, 5, 513])
@pytest.mark.parametrize("x_taped", [True, False])
def test_taped_node_matches_tensor_ops_bitwise(batch, x_taped):
    # one node per evaluation against the same net composed from Tensor ops,
    # on a taped input and on a constant one
    p = _random_net(3, seed=batch)
    rng = np.random.default_rng(batch + 1)
    x = rng.standard_normal((batch, 3))
    cot = rng.standard_normal((batch, 2))

    def run(forward):
        ts = params_to_tensors(p)
        xt = Tensor(x, requires_grad=True)
        out = forward(ts, xt if x_taped else x)
        mean(out * cot).backward()
        return out.data, [a.grad for a in param_arrays(ts)], xt.grad

    got, want = run(mlp_forward_t), run(mlp_ops)
    assert got[0].tobytes() == want[0].tobytes()
    for g, w in zip(got[1], want[1]):
        assert g.tobytes() == w.tobytes()
    if x_taped:
        assert got[2].tobytes() == want[2].tobytes()
    else:
        assert got[2] is None


def test_taped_forward_is_one_tape_node():
    ts = params_to_tensors(_random_net(3, seed=2))
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    out = mlp_forward_t(ts, x)
    assert out._parents == (x, *param_arrays(ts))


def test_grad_quadratic():
    p = init_mlp(2, 1, seed=8)

    def loss_fn(tensors):
        total = None
        for ts in tensors:
            for arr in param_arrays(ts):
                term = mean(square(arr))
                total = term if total is None else total + term
        return total * 0.5

    val, grads = grad(loss_fn, [p])
    for got, want in zip(grads[0], param_arrays(p)):
        np.testing.assert_allclose(got, want / want.size, rtol=1e-12)


def test_adam_first_step():
    theta = [np.zeros(1)]
    state = init_adam(theta)
    state, theta = adam_update(state, theta, [np.ones(1)])
    assert state.t == 1
    np.testing.assert_allclose(theta[0], [-0.001 / (1.0 + 1e-7)], rtol=1e-12)


def test_adam_zero_gradient():
    theta = [np.array([1.5, -2.0])]
    state = init_adam(theta)
    state, out = adam_update(state, theta, [np.zeros(2)])
    np.testing.assert_array_equal(out[0], [1.5, -2.0])


def test_adam_constant_gradient_step_size():
    theta = [np.zeros(1)]
    state = init_adam(theta, alpha=0.001)
    for _ in range(500):
        prev = theta[0].copy()
        state, theta = adam_update(state, theta, [np.full(1, 3.0)])
    step = abs(theta[0][0] - prev[0])
    assert abs(step - 0.001) < 1e-4  # |update| approaches alpha, sign -sgn(g)
    assert theta[0][0] < 0.0


def test_adam_quadratic_convergence():
    theta = [np.zeros(1)]
    state = init_adam(theta, alpha=0.001)
    for _ in range(6000):
        g = theta[0] - 3.0
        state, theta = adam_update(state, theta, [g])
    assert abs(theta[0][0] - 3.0) < 0.1


def test_checkpoint_roundtrip(tmp_path):
    nets = [init_mlp(4, 1, seed=12), init_mlp(4, 1, seed=13)]
    for n in nets:
        n.proj[:] = np.random.default_rng(n.seed).standard_normal(n.proj.shape)
    path = tmp_path / "nets.ckpt"
    save_checkpoint(path, nets)
    loaded = load_checkpoint(path)
    assert len(loaded) == 2
    for a, b in zip(nets, loaded):
        assert a.seed == b.seed
        np.testing.assert_array_equal(a.proj, b.proj)
        for (w1, b1), (w2, b2) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        x = np.random.default_rng(1).standard_normal((3, 4))
        np.testing.assert_array_equal(mlp_forward(a, x), mlp_forward(b, x))


def test_checkpoint_failed_write_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "nets.ckpt"
    save_checkpoint(path, [init_mlp(4, 1, seed=12)])
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr("martnet.atomic.os.replace", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, [init_mlp(4, 1, seed=13)])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nets.ckpt"]


def _checkpoint_bytes(shapes):
    """A checkpoint with a valid network 0, then a network 1 of zero arrays shaped ``shapes``."""
    nets = [[(4, 32), (32,), (32, 1)], shapes]
    head = [b"MNET", struct.pack("<II", 1, len(nets))]
    for net in nets:
        head.append(struct.pack("<qI", 0, len(net)))
        head.extend(struct.pack(f"<I{len(s)}Q", len(s), *s) for s in net)
    return b"".join(head) + bytes(8 * sum(math.prod(s) for net in nets for s in net))


_NOT_LAYERS = {
    "no-arrays": [],
    "two-arrays": [(4, 32), (32,)],
    "even-count": [(4, 32), (32,), (32, 32), (32,)],
    "1-d-weight": [(32,), (32,), (32, 1)],
    "bias-width": [(4, 32), (31,), (32, 1)],
    "unchained": [(4, 32), (32,), (16, 1)],
}


@pytest.mark.parametrize("cut", ["8", "40", "n-8", "trailing", "missing", *_NOT_LAYERS])
def test_checkpoint_damaged_file_raises_shape_error(tmp_path, cut):
    path = tmp_path / "nets.ckpt"
    save_checkpoint(path, [init_mlp(4, 1, seed=12), init_mlp(4, 1, seed=13)])
    raw = path.read_bytes()
    if cut == "missing":
        path.unlink()
    elif cut in _NOT_LAYERS:
        path.write_bytes(_checkpoint_bytes(_NOT_LAYERS[cut]))
    else:
        path.write_bytes({"8": raw[:8], "40": raw[:40], "n-8": raw[:-8], "trailing": raw + b"\0" * 8}[cut])
    match = "nets.ckpt.*network 1" if cut in _NOT_LAYERS else "nets.ckpt"
    with pytest.raises(ShapeError, match=match):
        load_checkpoint(path)
