"""Mode-equation oracle: agreement with closed forms, integrator quality."""

import cmath
from types import SimpleNamespace

import pytest

from cosmo_qfi import (
    DegenerateParameterError,
    ModelParams,
    _kernel,
    bogoliubov,
    excitation_weight,
    frequencies,
    integrate_mode,
    oracle,
    verify,
    wronskian_drift,
)
from cosmo_qfi._kernel import pure


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.mark.parametrize(
    "point",
    [(1.0, 1.0, 1.0), (0.01, 2.0, 0.5), (5.0, 0.3, 1.0), (2.0, 0.1, 3.0)],
)
def test_ratio_matches_closed_form(point):
    p = ModelParams(*point)
    match = integrate_mode(p)
    assert _rel(match.X, excitation_weight(p).X) < 1e-4
    assert match.fit_residual < 1e-8
    assert match.X < 1


def test_near_conformal_ratio_vanishes():
    match = integrate_mode(ModelParams(1.0, 1e-6, 1.0))
    assert match.X < 1e-10


def test_ratio_invariant_under_start_shift(monkeypatch):
    # A wider window starts the in-mode deeper in the asymptotic past (and
    # matches it later); the extracted excitation weight must not move.
    p = ModelParams(1.0, 1.0, 1.0)
    weights = []
    for span in (15.0, 15.25, 16.0, 20.0):
        monkeypatch.setattr(oracle, "ETA_SPAN", span)
        weights.append(integrate_mode(p).X)
    for shifted in weights[1:]:
        assert abs(shifted - weights[0]) / weights[0] < 1e-8


def test_window_span_is_read_at_call_time(monkeypatch):
    # At span 15 the finite window leaves 3.0e-7 in X here; at 20 it leaves 3.9e-10.
    monkeypatch.setattr(oracle, "ETA_SPAN", 20.0)
    p = ModelParams(0.5, 5.0, 2.0)
    assert _rel(integrate_mode(p).X, excitation_weight(p).X) < 1e-7


def test_wronskian_drift_within_budget():
    for point in [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0), (2.0, 0.1, 3.0)]:
        assert wronskian_drift(ModelParams(*point)) < 1e-8


def test_wronskian_drift_window_independent(monkeypatch):
    p = ModelParams(1.0, 1.0, 1.0)
    monkeypatch.setattr(oracle, "ETA_SPAN", 15.0)
    d15 = wronskian_drift(p)
    monkeypatch.setattr(oracle, "ETA_SPAN", 30.0)
    d30 = wronskian_drift(p)
    assert d30 < 10.0 * max(d15, 1e-12)


def test_wronskian_drift_plane_wave_regime(monkeypatch):
    # eps ~ 0 makes the equation constant-coefficient; conservation is then
    # limited only by the requested tolerance (drift scales linearly with
    # rel_tol, ~1e-11 at the package default)
    monkeypatch.setattr(oracle, "REL_TOL", 1e-14)
    monkeypatch.setattr(oracle, "ABS_TOL", 1e-16)
    assert wronskian_drift(ModelParams(1e-12, 1.0, 1.0)) < 1e-12


def test_wronskian_drift_at_loose_tolerance(monkeypatch):
    # the documented budget: rel_tol 1e-10 keeps drift below 1e-8
    monkeypatch.setattr(oracle, "REL_TOL", 1e-10)
    monkeypatch.setattr(oracle, "ABS_TOL", 1e-12)
    for point in [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)]:
        assert wronskian_drift(ModelParams(*point)) < 1e-8


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)])
def test_combined_drift_is_a_tight_bound(point):
    # the two-leg figure is the public gauge, and it stays close to the drift
    # one unbroken integration of the same in-mode across the window records
    p = ModelParams(*point)
    drift = integrate_mode(p).norm_drift
    assert drift == wronskian_drift(p)
    w, eta0 = frequencies(p).omega_in, -oracle.ETA_SPAN
    psi = cmath.exp(-1j * w * eta0)
    dpsi = -1j * w * psi
    y0 = (psi.real, psi.imag, dpsi.real, dpsi.imag)
    _, full, _ = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, p.k_tilde, eta0, oracle.ETA_SPAN, y0, oracle.REL_TOL, oracle.ABS_TOL
    )
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


def test_oracle_row_catches_a_wrong_chi(monkeypatch):
    # The oracle reads chi off its own endpoint spinor, so a spinor factor
    # chi = k/(omega_out + mu_out) 0.1 % too large in the closed form shows in
    # the X comparison.  X takes ln chi^2 from omega_out and mu_out.
    real = bogoliubov.frequencies

    def wrong_chi(p):
        f = real(p)
        return f._replace(mu_out=(f.omega_out + f.mu_out) / 1.001 - f.omega_out)

    matches = verify.oracle_matches(5)
    assert verify.check_ode_oracle(matches).passed
    monkeypatch.setattr(bogoliubov, "frequencies", wrong_chi)
    row = verify.check_ode_oracle(matches)
    assert not row.passed
    assert row.worst > 1e-3


def test_drift_row_catches_a_perturbed_tableau(monkeypatch):
    # The norm is as sensitive a gauge as the pair Wronskian it replaced: one
    # tableau coefficient of the pure stepper off by 1e-6 moves the drift
    # at (1, 1, 1) to 8.2e-8, where the Wronskian read 8.1e-8.
    monkeypatch.setattr(_kernel, "impl", pure)
    monkeypatch.setattr(pure, "_A11_8", pure._A11_8 * (1.0 + 1e-6))
    p = ModelParams(1.0, 1.0, 1.0)
    row = verify.check_wronskian([(p, integrate_mode(p))])
    assert row.worst > verify.DRIFT_TOL
    assert not row.passed


def test_twins_give_the_same_oracle_results(monkeypatch, compiled):
    # The backend is whichever twin was built, so the suite holds both to
    # the same `verify` oracle run: the same steps, and X and the drift
    # within the kernel parity bound of test_kernel_backends.
    runs = []
    for impl in (pure, compiled):
        monkeypatch.setattr(_kernel, "impl", impl)
        runs.append(verify.oracle_matches(12))
    for (p, a), (q, b) in zip(*runs):
        assert p == q
        assert a.steps == b.steps
        assert _rel(a.X, b.X) <= 1e-10
        assert abs(a.norm_drift - b.norm_drift) <= 1e-10
    assert len(runs[0]) == len(runs[1]) == 12


def test_window_too_small_raises():
    with pytest.raises(DegenerateParameterError, match="not asymptotic at window ends"):
        integrate_mode(ModelParams(600.0, 0.5, 1.0))


def test_window_check_admits_an_asymptotic_window():
    # At span 15 both ends of a(eta) miss their limits by 534 (1 - tanh 15)
    # = 9.994e-11, inside the 1e-10 tolerance; reading a(15) against 1069
    # would add the rounding at ulp(1069) and refuse the window.
    p = ModelParams(534.0, 1e-3, 0.1)
    assert _rel(integrate_mode(p).X, excitation_weight(p).X) < verify.ODE_TOL
    with pytest.raises(DegenerateParameterError, match="not asymptotic at window ends"):
        integrate_mode(ModelParams(535.0, 1e-3, 0.1))


def test_requires_massive_field():
    with pytest.raises(DegenerateParameterError, match="m_tilde > 0"):
        integrate_mode(ModelParams(1.0, 0.0, 1.0))
    with pytest.raises(DegenerateParameterError, match="m_tilde > 0"):
        wronskian_drift(ModelParams(1.0, 0.0, 1.0))


def test_overflowing_mass_raises_integration_error():
    # m^2 overflows, so the first error estimate is NaN.
    with pytest.raises(DegenerateParameterError, match="non-finite error estimate"):
        integrate_mode(ModelParams(1.0, 1e160, 1.0))


def test_exhausted_step_budget_raises_integration_error(monkeypatch):
    monkeypatch.setattr(pure, "_MAX_STEPS", 10)
    monkeypatch.setattr(_kernel, "impl", pure)
    with pytest.raises(DegenerateParameterError, match="^step budget exhausted at "):
        integrate_mode(ModelParams(1.0, 1.0, 1.0))


def test_step_size_underflow_raises_integration_error(monkeypatch):
    # A relative tolerance far below the double spacing shrinks the step
    # under the kernel's floor of 1e-14 * max(1, |eta|).
    monkeypatch.setattr(oracle, "REL_TOL", 1e-30)
    monkeypatch.setattr(oracle, "ABS_TOL", 1e-300)
    monkeypatch.setattr(_kernel, "impl", pure)
    with pytest.raises(DegenerateParameterError, match="^step size underflow at "):
        integrate_mode(ModelParams(1.0, 1.0, 1.0))
