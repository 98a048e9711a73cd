"""Mode-equation oracle: agreement with closed forms, integrator quality."""

import cmath
from types import SimpleNamespace

import pytest

from cosmo_qfi import (
    IntegrationConfig,
    IntegrationError,
    ModelParams,
    WindowTooSmallError,
    _kernel,
    frequencies,
    integrate_mode,
    mixing_sq_sinh,
    wronskian_drift,
)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.mark.parametrize(
    "point",
    [(1.0, 1.0, 1.0), (0.01, 2.0, 0.5), (5.0, 0.3, 1.0), (2.0, 0.1, 3.0)],
)
def test_ratio_matches_closed_form(point):
    p = ModelParams(*point)
    match = integrate_mode(p)
    assert _rel(match.ratio_sq, mixing_sq_sinh(p)) < 1e-4
    assert match.fit_residual < 1e-8
    assert abs(match.A_num) > abs(match.B_num)


def test_near_conformal_ratio_vanishes():
    match = integrate_mode(ModelParams(1.0, 1e-6, 1.0))
    assert match.ratio_sq < 1e-10


def test_ratio_invariant_under_start_shift():
    p = ModelParams(1.0, 1.0, 1.0)
    cfg = IntegrationConfig()
    base = integrate_mode(p, cfg).ratio_sq
    for delta in (0.25, 0.6, 1.0):
        shifted = integrate_mode(p, cfg, eta0=-cfg.eta_span - delta).ratio_sq
        assert abs(shifted - base) / base < 1e-8


def test_wronskian_drift_within_budget():
    for point in [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0), (2.0, 0.1, 3.0)]:
        assert wronskian_drift(ModelParams(*point)) < 1e-8


def test_wronskian_drift_window_independent():
    p = ModelParams(1.0, 1.0, 1.0)
    d15 = wronskian_drift(p, IntegrationConfig(eta_span=15.0))
    d30 = wronskian_drift(p, IntegrationConfig(eta_span=30.0))
    assert d30 < 10.0 * max(d15, 1e-12)


def test_wronskian_drift_plane_wave_regime():
    # eps ~ 0 makes the equation constant-coefficient; conservation is then
    # limited only by the requested tolerance (drift scales linearly with
    # rel_tol, ~1e-11 at the package default)
    tight = IntegrationConfig(rel_tol=1e-14, abs_tol=1e-16)
    assert wronskian_drift(ModelParams(1e-12, 1.0, 1.0), tight) < 1e-12


def test_wronskian_drift_at_loose_tolerance():
    # the documented budget: rel_tol 1e-10 keeps drift below 1e-8
    cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12)
    for point in [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)]:
        assert wronskian_drift(ModelParams(*point), cfg) < 1e-8


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)])
def test_combined_drift_is_a_tight_bound(point):
    # the two-leg figure is the public gauge, and it stays close to the drift
    # one unbroken integration of the same pair across the window records
    p = ModelParams(*point)
    cfg = IntegrationConfig()
    drift = integrate_mode(p, cfg).wronskian_drift
    assert drift == wronskian_drift(p, cfg)
    w, eta0 = frequencies(p).omega_in, -cfg.eta_span
    psi = cmath.exp(-1j * w * eta0)
    dpsi = -1j * w * psi
    pair = (psi.real, psi.imag, dpsi.real, dpsi.imag, psi.real, psi.imag, -dpsi.real, -dpsi.imag)
    _, full, _, status = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, p.k_tilde, eta0, cfg.eta_span, pair, cfg.rel_tol, cfg.abs_tol
    )
    assert status == _kernel.STATUS_OK
    assert abs(drift - full) <= 0.05 * full


def test_integration_work_is_reported(monkeypatch):
    # steps sums both legs' accepted steps.  DOP853 takes 1 312 here, where
    # Dormand-Prince 5(4) took 19 507 at the same tolerance.
    legs = []
    impl = _kernel.impl

    def integrate_pair_drift(*args):
        out = impl.integrate_pair_drift(*args)
        legs.append(out[2])
        return out

    monkeypatch.setattr(_kernel, "impl", SimpleNamespace(integrate_pair_drift=integrate_pair_drift))
    match = integrate_mode(ModelParams(0.5, 5.0, 2.0))
    assert len(legs) == 2
    assert match.steps == sum(legs) < 2000


def test_window_too_small_raises():
    with pytest.raises(WindowTooSmallError):
        integrate_mode(ModelParams(600.0, 0.5, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(eta_span=10.0)
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=1e-5)
    with pytest.raises(ValueError):
        IntegrationConfig(abs_tol=0.0)


def test_requires_massive_field():
    with pytest.raises(ValueError):
        integrate_mode(ModelParams(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        wronskian_drift(ModelParams(1.0, 0.0, 1.0))


def test_eta0_must_precede_window():
    with pytest.raises(ValueError):
        integrate_mode(ModelParams(1.0, 1.0, 1.0), eta0=-10.0)


@pytest.mark.parametrize("span", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_span(span):
    # NaN fails every comparison, so the saturation check alone admits it.
    with pytest.raises(ValueError, match="finite"):
        IntegrationConfig(eta_span=span)


@pytest.mark.parametrize("span", [-20.0, 0.0])
def test_config_rejects_non_positive_span(span):
    # The saturation check takes |tanh(span)|, so it alone admits -20.
    with pytest.raises(ValueError, match="positive"):
        IntegrationConfig(eta_span=span)


def test_overflowing_mass_raises_integration_error():
    # m^2 overflows, so the first error estimate is NaN.
    with pytest.raises(IntegrationError, match="non-finite error estimate"):
        integrate_mode(ModelParams(1.0, 1e160, 1.0))


@pytest.mark.parametrize("eta0", [float("nan"), float("-inf")])
def test_eta0_must_be_finite(eta0):
    # A NaN state makes every error estimate NaN, which no step size fixes.
    with pytest.raises(ValueError, match="finite"):
        integrate_mode(ModelParams(1.0, 1.0, 1.0), eta0=eta0)
