import argparse
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import martnet as mn
from martnet import cli
from martnet import schemes as sch
from martnet.config import BSM_DEFAULTS, resolve_config
from martnet.dual import MartingaleNetConfig, _bridge_uniforms, loss_and_grads, loss_value
from martnet.mlp import init_mlp, param_arrays, rebuild_params
from martnet.qmc import SQRT3, dims_for, draws_for
from martnet.oracles import bs_european_put
from martnet.errors import InvalidParameterError, ShapeError


def test_partition_basics():
    p = mn.uniform_partition(1.0, 4)
    assert p.steps == 4 and p.T == 1.0
    np.testing.assert_allclose(p.deltas, 0.25)
    with pytest.raises(InvalidParameterError):
        sch.Partition(times=np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(InvalidParameterError):
        sch.Partition(times=np.array([0.1, 0.5, 1.0]))
    # a non-finite time, T or a non-integer step count is refused naming the value
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="finite, got .*(inf|nan)"):
            mn.Partition(np.array([0.0, bad]))
        with pytest.raises(InvalidParameterError, match=f"finite T >= 0, got {bad}"):
            mn.uniform_partition(bad, 4)
    for steps in (2.5, True, "4"):
        with pytest.raises(InvalidParameterError, match=f"steps must be an integer, got {steps!r}"):
            mn.uniform_partition(1.0, steps)
    with pytest.raises(InvalidParameterError, match="steps must be >= 0, got -1"):
        mn.uniform_partition(1.0, -1)
    # step sizes telescope to T, so only rounding could make them sum to anything else
    assert mn.uniform_partition(9187.314623108636, 41).steps == 41


def test_em_zero_noise(bsm):
    x = np.array([[100.0]])
    out = sch.em_step(bsm, x, 0.25, np.zeros((1, 1)))
    np.testing.assert_array_equal(out, x)  # mu = 0: drift-free


def test_em_hand_value(bsm):
    out = sch.em_step(bsm, np.array([[100.0]]), 0.25, np.array([[1.0]]))
    np.testing.assert_allclose(out, [[116.0]], rtol=1e-14)


def test_em_gaussian_mean():
    m = mn.make_bsm_model(100.0, 0.1, 0.32)
    rng = np.random.default_rng(7)
    eta = rng.standard_normal((100000, 1))
    out = sch.em_step(m, np.full((100000, 1), 100.0), 0.25, eta)
    se = out[:, 0].std(ddof=1) / math.sqrt(100000)
    assert abs(out[:, 0].mean() - 100.0 * 1.025) < 3 * se


def test_cub3_zero_noise(bsm):
    out = sch.cub3_step(bsm, np.array([[100.0]]), 0.25, np.zeros((1, 1)))
    target = 100.0 * math.exp(-0.5 * 0.32**2 * 0.25)
    np.testing.assert_allclose(out, [[target]], rtol=1e-9)


def test_cub3_zero_dt(bsm):
    out = sch.cub3_step(bsm, np.array([[100.0]]), 0.0, np.zeros((1, 1)))
    np.testing.assert_array_equal(out, [[100.0]])


def test_cub3_hand_value(bsm):
    out = sch.cub3_step(bsm, np.array([[100.0]]), 1.0, np.array([[1.0]]))
    assert abs(out[0, 0] - 100.0 * math.exp(0.2688)) < 1e-4


def test_nv_zero_noise(bsm):
    x = np.array([[100.0]])
    target = 100.0 * math.exp(-0.5 * 0.32**2 * 0.25)
    for lam in (1, -1):
        out = sch.nv_step(bsm, x, 0.25, np.zeros((1, 1)), lam)
        np.testing.assert_allclose(out, [[target]], rtol=1e-9)


def test_nv_single_diffusion_reversal_equal(bsm):
    x = np.array([[100.0]])
    eta = np.array([[0.8]])
    a = sch.nv_step(bsm, x, 0.25, eta, 1)
    b = sch.nv_step(bsm, x, 0.25, eta, -1)
    np.testing.assert_array_equal(a, b)  # one diffusion factor: nothing to reverse


def test_nv_heston_branches_differ(heston):
    x = heston.x0[None, :]
    eta = np.array([[1.0, -1.0]])
    a = sch.nv_step(heston, x, 0.25, eta, 1)
    b = sch.nv_step(heston, x, 0.25, eta, -1)
    assert np.max(np.abs(a - b)) > 1e-3


def test_nv_heston_fine_euler_crosscheck(heston):
    # integrate the same frozen-flow sequence with a first-order method
    x = heston.x0[None, :]
    dt = 0.25
    eta = np.array([[1.0, -1.0]])
    composed = sch.nv_step(heston, x, dt, eta, 1)

    def euler_flow(field, z, total, nsub=100000):
        h = total / nsub
        for _ in range(nsub):
            z = z + h * field.eval(0.0, z)
        return z

    v0, v1, v2 = heston.stratonovich_fields
    z = x.copy()
    for field, tt in (
        (v0, dt / 2.0),
        (v2, math.sqrt(dt) * eta[0, 1]),
        (v1, math.sqrt(dt) * eta[0, 0]),
        (v0, dt / 2.0),
    ):
        z = euler_flow(field, z, tt)
    assert np.max(np.abs(z / composed - 1.0)) < 1e-6


def test_nn_constants_half():
    # the upper branch at u = 1/2: c1 = -sqrt((2u - 1)/2) = -0.0, c2 = 1 - c1,
    # R11 = u, R22 = 1 + u + sqrt(2(2u - 1)), R12 = -u + c1
    assert sch.NN_C1 == 0.0 and math.copysign(1.0, sch.NN_C1) == -1.0 and sch.NN_C2 == 1.0
    assert sch.NN_R11 == 0.5 and sch.NN_R22 == 1.5 and sch.NN_R12 == -0.5


def test_nn_zero_noise(bsm):
    out = sch.nn_step(bsm, np.array([[100.0]]), 0.25, np.zeros((1, 1)), np.zeros((1, 1)))
    target = 100.0 * math.exp(-0.5 * 0.32**2 * 0.25)
    np.testing.assert_allclose(out, [[target]], rtol=1e-9)


def test_nn_covariance():
    r11, r22, r12 = sch.NN_R11, sch.NN_R22, sch.NN_R12
    rng = np.random.default_rng(11)
    eta = rng.standard_normal(100000)
    xi = rng.standard_normal(100000)
    zeta = (r12 / math.sqrt(r11)) * eta + math.sqrt(r22 - r12**2 / r11) * xi
    cov = np.cov(math.sqrt(r11) * eta, zeta)[0, 1]
    se = math.sqrt((r11 * r22 + r12**2) / 100000)
    assert abs(cov - r12) < 3 * se


def test_simulate_zero_steps(bsm):
    p = sch.Partition(times=np.array([0.0]))
    states = sch.simulate(bsm, "em", p, draws_for("em", 1, 0, 5, seed=0))
    assert states.shape == (5, 1, 1)
    np.testing.assert_array_equal(states[:, 0, 0], 100.0)


def test_simulate_initial_state(bsm):
    p = mn.uniform_partition(1.0, 4)
    states = sch.simulate(bsm, "nv", p, draws_for("nv", 1, 4, 16, seed=1))
    np.testing.assert_array_equal(states[:, 0, 0], 100.0)
    assert states.shape == (16, 5, 1)


def test_simulate_shape_mismatch(bsm):
    p = mn.uniform_partition(1.0, 4)
    d = draws_for("em", 1, 3, 16, seed=1)  # wrong step count
    with pytest.raises(ShapeError):
        sch.simulate(bsm, "em", p, d)


@pytest.mark.parametrize("scheme, missing", [("nv", "lam"), ("nn", "xi")])
def test_simulate_missing_draws(heston, scheme, missing):
    # a draw block without the sign (nv) or the second normals (nn) is refused by name
    p = mn.uniform_partition(1.0, 2)
    draws = dataclasses.replace(draws_for(scheme, heston.d, 2, 8, seed=1), **{missing: None})
    with pytest.raises(ShapeError, match=missing):
        sch.simulate(heston, scheme, p, draws)


def test_em_put_price(bsm):
    p = mn.uniform_partition(1.0, 1024)
    states = sch.simulate(bsm, "em", p, draws_for("em", 1, 1024, 5000, seed=0))
    price = np.maximum(100.0 - states[:, -1, 0], 0.0).mean()
    assert abs(price - bs_european_put(100.0, 100.0, 0.32, 1.0, 0.0)) < 0.15


def test_nv_put_price(bsm):
    p = mn.uniform_partition(1.0, 4)
    states = sch.simulate(bsm, "nv", p, draws_for("nv", 1, 4, 5000, seed=0))
    price = np.maximum(100.0 - states[:, -1, 0], 0.0).mean()
    assert abs(price - bs_european_put(100.0, 100.0, 0.32, 1.0, 0.0)) < 0.15


def test_path_positivity(bsm):
    # flows of linear fields preserve sign for every draw
    p = mn.uniform_partition(1.0, 8)
    for scheme, tag in (("cub3", "em"), ("nv", "nv"), ("nn", "nn")):
        states = sch.simulate(bsm, scheme, p, draws_for(tag, 1, 8, 500, seed=3))
        assert states.min() > 0.0


def _closed_form_net(j, t, x, m):
    return 0.1 * (j + 1) * x[:, :1]


@pytest.mark.parametrize(
    "scheme, tag, coupled",
    [("em", "em", False), ("cub3", "cub3", False), ("nv", "nv", False), ("nn", "nn", False),
     ("em", "em", True), ("cub3", "cub3", True), ("nv", "nv", True), ("nn", "nn", True)],
)
@pytest.mark.parametrize("name", ["bsm", "heston"])
def test_simulate_knots_are_kernel_steps(request, name, scheme, tag, coupled):
    # the running state carried between steps gives each knot the kernel's bits;
    # coupled, the martingale is the state's last column and every kernel carries it
    model = request.getfixturevalue(name)
    if coupled:
        model = sch.with_martingale(model, _closed_form_net)
    p = mn.uniform_partition(1.0, 5)
    draws = draws_for(tag, model.d, 5, 257, seed=4)
    states = sch.simulate(model, scheme, p, draws)
    step = sch.step_kernel(model, scheme, draws)
    for k in range(5):
        want = step(states[:, k, :], k, float(p.times[k]), float(p.deltas[k]))
        assert states[:, k + 1, :].tobytes() == np.ascontiguousarray(want).tobytes()
    if coupled:
        assert np.abs(states[:, -1, -1]).max() > 0.0


@pytest.mark.parametrize(
    "lam",
    [np.ones(7), -np.ones(7), np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0]), np.array([-1.0])],
    ids=["all-plus", "all-minus", "mixed", "batch-1"],
)
def test_nv_per_path_lam_equals_scalar_rows(heston, lam):
    # each path flows only the order its sign selects, bit for bit as if alone,
    # the martingale column included
    rng = np.random.default_rng(12)
    nb = lam.size
    x = heston.x0 * (1.0 + 0.2 * rng.standard_normal((nb, heston.N)) ** 2)
    eta = rng.standard_normal((nb, heston.d))
    xm = np.concatenate([x, rng.standard_normal((nb, 1))], axis=1)
    joint = sch.with_martingale(heston, _closed_form_net)
    for model, state in ((heston, x), (joint, xm)):
        out = sch.nv_step(model, state, 0.25, eta, lam, t=0.5)
        for r in range(nb):
            rows = slice(r, r + 1)
            want = sch.nv_step(model, state[rows], 0.25, eta[rows], int(lam[r]), t=0.5)
            assert out[rows].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "lam",
    [0, 0.5, np.array([0.0, 1.0, 0.5]), np.array([1.0, -2.0, -1.0]), np.array([1.0, np.nan, -1.0])],
    ids=["scalar-0", "scalar-half", "zero-and-half", "minus-two", "nan"],
)
def test_nv_refuses_signs_other_than_plus_or_minus_one(heston, lam):
    # a scalar sign and a per-path one are held to the same rule: no entry is
    # rounded to the nearer order, every one must be exactly +1 or -1
    x = np.tile(heston.x0, (3, 1))
    with pytest.raises(InvalidParameterError, match="lam"):
        sch.nv_step(heston, x, 0.25, np.zeros((3, heston.d)), lam)


def _worst_gradient_error(model, scheme, tag, steps):
    """Worst relative gap between loss_and_grads and central differences on 10 random weights."""
    p = mn.uniform_partition(1.0, steps)
    cfg = MartingaleNetConfig(scheme=scheme, d_M=model.d, partition=p, batch=64)
    rng = np.random.default_rng(8)
    mlps = [init_mlp(model.N + 2, 1, seed=5 + j) for j in range(model.d)]
    for net in mlps:
        net.proj[:] = rng.standard_normal(net.proj.shape) * 0.05
    draws = draws_for(tag, model.d, steps, 64, seed=9)
    uniforms = _bridge_uniforms(9, 0, 64, steps)
    sigma_hat = np.full(steps, 20.0)

    _, grads = loss_and_grads(cfg, mlps, model, draws, bridge=True, uniforms=uniforms, sigma_hat=sigma_hat)
    rng2 = np.random.default_rng(4)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        j = int(rng2.integers(0, model.d))
        arrs = param_arrays(mlps[j])
        ai = int(rng2.integers(0, len(arrs)))
        idx = tuple(int(rng2.integers(0, s)) for s in arrs[ai].shape)

        def value(delta):
            shifted = [a.copy() for a in arrs]
            shifted[ai][idx] += delta
            nets = list(mlps)
            nets[j] = rebuild_params(mlps[j], shifted)
            return loss_value(cfg, nets, model, draws, bridge=True, uniforms=uniforms, sigma_hat=sigma_hat)

        fd = (value(h) - value(-h)) / (2.0 * h)
        worst = max(worst, abs(fd - grads[j][ai][idx]) / max(1e-8, abs(fd)))
    return worst


def test_heston_nvnet_mixed_lam_gradient(heston):
    # the split's row gather and merge sit on the tape between the networks and the loss
    lam = draws_for("nv", 2, 1, 64, seed=9).lam
    assert np.any(lam > 0) and np.any(lam < 0)
    assert _worst_gradient_error(heston, "nvnet", "nv", 1) < 1e-3


@pytest.mark.parametrize(
    "name, scheme, tag, steps",
    [("bsm", "resnet-em", "em", 2), ("bsm", "nnet", "nn", 1), ("heston", "nnet", "nn", 1)],
)
def test_network_scheme_gradient(request, name, scheme, tag, steps):
    # the taped gradient through each network scheme's kernel against central differences
    assert _worst_gradient_error(request.getfixturevalue(name), scheme, tag, steps) < 1e-3


# -- the scheme table --------------------------------------------------------


@pytest.mark.parametrize("steps", [0, 3])
@pytest.mark.parametrize("tag", sorted(sch.SCHEMES))
def test_scheme_record_matches_draws_and_simulate(heston, tag, steps):
    # the draws, their coordinate count and simulate's refusals follow the record alone
    record = sch.SCHEMES[tag]
    batch = 16
    draws = draws_for(tag, heston.d, steps, batch, seed=2)
    assert (draws.xi is not None) == (record.normals == 2)
    assert (draws.lam is not None) == record.sign
    values = np.unique(draws.eta)
    if record.cubature:
        assert set(values) <= {-SQRT3, 0.0, SQRT3}
    else:
        assert values.size > 3 or steps == 0
    assert dims_for(tag, heston.d, steps) == (record.normals * heston.d + record.sign) * steps
    p = mn.uniform_partition(1.0, steps)
    assert sch.simulate(heston, tag, p, draws).shape == (batch, steps + 1, heston.N)
    joint = sch.simulate(sch.with_martingale(heston, _closed_form_net), tag, p, draws)
    assert joint.shape == (batch, steps + 1, heston.N + 1)
    assert joint[:, :, :-1].tobytes() == np.ascontiguousarray(sch.simulate(heston, tag, p, draws)).tobytes()


def _parser_action(command, dest):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def _parser_choices(command, dest):
    return tuple(_parser_action(command, dest).choices)


def test_cli_choices_and_defaults_read_the_tables(monkeypatch):
    # the CLI's choices, the train and converge defaults and the desk BSM
    # parameters of converge and oracle come from the tables
    assert _parser_choices("converge", "scheme") == tuple(sch.SCHEMES)
    assert _parser_choices("train", "net") == tuple(sch.NETS)
    for name, family in sch.NETS.items():
        assert resolve_config({"net": name})["steps"] == family.steps
        assert sch.NET_CONFIGS[family.config] is family
    ladders = []

    def record_ladder(model, scheme, counts, *args, **kwargs):
        ladders.append((model, tuple(counts)))
        return []

    monkeypatch.setattr(cli, "run_convergence", record_ladder)
    # values unlike the shipped ones, so a literal copy of those would fail
    desk = {"S0": 90.0, "mu": 0.01, "sigma": 0.25, "K": 95.0, "T": 1.5}
    for key, value in desk.items():
        monkeypatch.setitem(BSM_DEFAULTS, key, value)
    for tag, record in sch.SCHEMES.items():
        assert cli.main(["converge", "--scheme", tag]) == 0
        model, ladder = ladders[-1]
        assert ladder == record.ladder
        assert {k: float(model.params[k]) for k in ("S0", "mu", "sigma")} == {k: desk[k] for k in ("S0", "mu", "sigma")}
        assert float(model.payoff.strike) == desk["K"]
    oracle = {dest: _parser_action("oracle", dest).default for dest in ("S0", "K", "sigma", "T", "r")}
    assert oracle == {"S0": 90.0, "K": 95.0, "sigma": 0.25, "T": 1.5, "r": 0.01}


@pytest.mark.parametrize("tag", sorted(sch.SCHEMES))
def test_auto_protocol_is_the_record_default(bsm, tag):
    # the convergence study's "auto" protocol is the record's
    record = sch.SCHEMES[tag]
    counts = list(record.ladder[:2])
    auto = mn.run_convergence(bsm, tag, counts, 256, seed=3)
    assert auto == mn.run_convergence(bsm, tag, counts, 256, seed=3, protocol=record.protocol)


_SRC = Path(__file__).resolve().parent.parent / "src" / "martnet"
_TAG_TEST = re.compile(r'(==|!=) *"(em|nv|nn|cub3)"')
_NAME_LITERAL = re.compile(r'"(em|cub3|nv|nn|resnet|resnet-em|nvnet|nnet)"')


def test_scheme_names_live_in_the_table():
    # no module tests a scheme tag, and only schemes.py names a scheme or net;
    # config.RUN_DEFAULTS' default net is the one literal allowed elsewhere
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            named = path.name != "schemes.py" and _NAME_LITERAL.search(line)
            default_net = line.startswith('RUN_DEFAULTS = {"net": "nvnet",') and _NAME_LITERAL.findall(line) == ["nvnet"]
            if _TAG_TEST.search(line) or (named and not (path.name == "config.py" and default_net)):
                found.append(f"{path.name}:{n}: {line.strip()}")
    assert not found, "\n".join(found)
