import numpy as np
import pytest

import martnet as mn
from martnet.fields import Payoff, payoff_eval
from martnet.errors import InvalidParameterError


def test_bsm_drift_field(bsm):
    v0 = bsm.stratonovich_fields[0]
    out = v0.eval(0.0, np.array([100.0]))
    np.testing.assert_allclose(out, [-5.12], rtol=1e-14)


def test_bsm_diffusion_field(bsm):
    v1 = bsm.stratonovich_fields[1]
    out = v1.eval(0.0, np.array([100.0]))
    np.testing.assert_allclose(out, [32.0], rtol=1e-14)


def test_bsm_drift_cancellation():
    m = mn.make_bsm_model(100.0, 0.32**2 / 2.0, 0.32)
    out = m.stratonovich_fields[0].eval(0.0, np.array([77.0]))
    np.testing.assert_allclose(out, [0.0], atol=1e-12)


def test_heston_drift_field(heston):
    v0 = heston.stratonovich_fields[0]
    out = v0.eval(0.0, np.array([100.0, 0.32]))
    np.testing.assert_allclose(out, [-19.0, -0.25], rtol=1e-12)


def test_heston_second_diffusion_first_component(heston):
    v2 = heston.stratonovich_fields[2]
    for y in ([100.0, 0.32], [55.0, 0.9], [210.0, 0.01]):
        assert v2.eval(0.0, np.array(y))[0] == 0.0


def test_heston_rho_zero():
    m = mn.make_heston_model(100.0, 0.32, 0.0, 0.25, 3.0, 0.0, 0.4)
    v1 = m.stratonovich_fields[1]
    assert v1.eval(0.0, np.array([100.0, 0.32]))[1] == 0.0


def test_model_shapes(bsm, heston):
    assert (bsm.N, bsm.d) == (1, 1) and len(bsm.stratonovich_fields) == 2
    assert (heston.N, heston.d) == (2, 2) and len(heston.stratonovich_fields) == 3


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        mn.make_bsm_model(100.0, 0.0, -0.1)
    with pytest.raises(InvalidParameterError):
        mn.make_bsm_model(-5.0, 0.0, 0.32)
    with pytest.raises(InvalidParameterError):
        mn.make_heston_model(100.0, 0.32, 0.0, 0.25, 3.0, 1.0, 0.4)
    with pytest.raises(InvalidParameterError):
        mn.make_heston_model(100.0, -0.1, 0.0, 0.25, 3.0, 0.3, 0.4)


def test_ito_drift_bsm_analytic():
    m = mn.make_bsm_model(100.0, 0.07, 0.32)
    drift = m.ito_field
    for y in (1.0, 50.0, 100.0, 333.0):
        out = drift.eval(0.0, np.array([y]))
        assert abs(out[0] / (0.07 * y) - 1.0) < 1e-10


def _stratonovich_to_ito(model, x, h=1e-5):
    """V_0 + 1/2 sum_i (DV_i) V_i at x, each (DV_i) V_i a central difference along V_i."""
    v0, *diffusions = model.stratonovich_fields
    out = v0.eval(0.0, x)
    for vi in diffusions:
        d = h * vi.eval(0.0, x)
        out = out + 0.5 * (vi.eval(0.0, x + d) - vi.eval(0.0, x - d)) / (2.0 * h)
    return out


_HESTON_STATES = [[100.0, 0.32], [55.0, 0.9], [210.0, 0.01], [80.0, 0.25], [130.0, 2.0]]


@pytest.mark.parametrize(
    "model, states",
    [
        (mn.make_bsm_model(100.0, 0.07, 0.32), [[1.0], [50.0], [100.0], [333.0]]),
        (mn.make_heston_model(100.0, 0.32, 0.05, 0.25, 3.0, 0.3, 0.4), _HESTON_STATES),
        (mn.make_heston_model(100.0, 0.32, -0.03, 0.25, 3.0, -0.7, 0.9), _HESTON_STATES),
    ],
    ids=["bsm", "heston", "heston-negative-rho"],
)
def test_ito_field_matches_stratonovich_fields(model, states):
    # each model's hand-derived Ito drift is its Stratonovich drift plus the correction
    x = np.array(states)
    got = model.ito_field.eval(0.0, x)
    np.testing.assert_allclose(got, _stratonovich_to_ito(model, x), rtol=0.0, atol=1e-8 * np.abs(got).max())


def test_ito_drift_heston_second_component(heston):
    out = heston.ito_field.eval(0.0, np.array([100.0, 0.32]))
    np.testing.assert_allclose(out[1], 3.0 * (0.25 - 0.32), rtol=1e-12)


def test_payoff_values():
    p = Payoff(100.0)
    assert payoff_eval(p, np.array([80.0])) == 20.0
    assert payoff_eval(p, np.array([100.0])) == 0.0
    assert payoff_eval(p, np.array([130.0])) == 0.0
    # batch form takes the first coordinate
    z = payoff_eval(p, np.array([[90.0, 0.3], [110.0, 0.2]]))
    np.testing.assert_array_equal(z, [10.0, 0.0])


def test_field_purity(heston):
    v1 = heston.stratonovich_fields[1]
    x = np.array([[100.0, 0.32], [80.0, 0.5]])
    a = v1.eval(0.0, x)
    b = v1.eval(0.0, x)
    np.testing.assert_array_equal(a, b)


def test_variance_clamp(heston):
    # the square roots read negative variance as zero, so the fields stay finite
    for vi in heston.stratonovich_fields[1:]:
        out = vi.eval(0.0, np.array([[100.0, -0.05], [80.0, -3.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, vi.eval(0.0, np.array([[100.0, 0.0], [80.0, 0.0]])))
