"""Mode-equation oracle: agreement with closed forms, integrator quality."""

import math
from types import SimpleNamespace

import pytest

from cosmo_qfi import (
    DegenerateParameterError,
    ModelParams,
    _kernel,
    bogoliubov,
    excitation_weight,
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
    # The grid follows the window: 100 steps per unit of eta here.
    p = ModelParams(0.5, 5.0, 2.0)
    at15 = integrate_mode(p)
    monkeypatch.setattr(oracle, "ETA_SPAN", 20.0)
    at20 = integrate_mode(p)
    assert (at15.steps, at20.steps) == (3000, 4000)
    assert at20.X != at15.X
    assert _rel(at20.X, excitation_weight(p).X) < verify.ODE_TOL


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


def test_wronskian_drift_plane_wave_regime():
    # eps ~ 0 makes the equation constant-coefficient, where every step
    # makes the same rounding: the drift grows linearly, to 1.8e-13 here.
    assert wronskian_drift(ModelParams(1e-12, 1.0, 1.0)) < 1e-12


def test_wronskian_drift_at_loose_tolerance(monkeypatch):
    # Every Magnus step is unitary, so a grid 10 times coarser still keeps
    # the drift at rounding, far below the 1e-8 budget.
    monkeypatch.setattr(oracle, "_STEPS_PER_UNIT", 10.0)
    for point in [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)]:
        assert wronskian_drift(ModelParams(*point)) < 1e-12


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (0.5, 5.0, 2.0)])
def test_combined_drift_is_a_tight_bound(point):
    # The two-leg figure is the public gauge.  It bounds the drift of the
    # endpoint norm from the start, and it stays close to the drift one
    # unbroken integration of the same in-mode across the window records;
    # both are rounding alone, which differs between the two grids by up to
    # 13 % at these points.
    p = ModelParams(*point)
    match = integrate_mode(p)
    assert match.norm_drift == wronskian_drift(p)
    span = oracle.ETA_SPAN
    k, y0 = p.k_tilde, (p.k_tilde, 0.0, -oracle._eigen(p, -span)[0], 0.0)
    end, full, _ = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, k, -span, span, y0, match.steps)
    n0 = sum(x * x for x in y0)
    assert abs(sum(x * x for x in end) - n0) / n0 <= full
    assert full / 2.0 <= match.norm_drift <= 2.0 * full


def test_integration_work_is_reported(monkeypatch):
    # steps sums both legs' grids, 100 steps per unit of eta below
    # omega_out = 50.
    legs = []
    impl = _kernel.impl

    def integrate_pair_drift(*args):
        out = impl.integrate_pair_drift(*args)
        legs.append(out[2])
        return out

    monkeypatch.setattr(_kernel, "impl", SimpleNamespace(integrate_pair_drift=integrate_pair_drift))
    match = integrate_mode(ModelParams(0.5, 5.0, 2.0))
    assert legs == [2900, 100]
    assert match.steps == 3000


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


def test_twins_give_the_same_oracle_results(monkeypatch, compiled):
    # The C twin is the reference for the pure one the oracle runs: the
    # suite holds both to the same `verify` oracle run, bit for bit.
    runs = []
    for impl in (pure, compiled):
        monkeypatch.setattr(_kernel, "impl", impl)
        runs.append(verify.oracle_matches(12))
    assert runs[0] == runs[1]
    assert len(runs[0]) == 12


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


def _no_kernel(monkeypatch):
    def integrate_pair_drift(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(_kernel, "impl", SimpleNamespace(integrate_pair_drift=integrate_pair_drift))


def test_overflowing_mass_raises_integration_error(monkeypatch):
    # omega_out is about 3e160, so the grid would need 1.8e162 steps.
    _no_kernel(monkeypatch)
    with pytest.raises(DegenerateParameterError, match="^oracle grid exceeds 5000000 steps "):
        integrate_mode(ModelParams(1.0, 1e160, 1.0))


def test_exhausted_step_budget_raises_integration_error(monkeypatch):
    # The cap is checked against the grid before the first step.
    _no_kernel(monkeypatch)
    monkeypatch.setattr(oracle, "_MAX_STEPS", 2999)
    with pytest.raises(DegenerateParameterError, match=r"^oracle grid exceeds 2999 steps .* at "):
        integrate_mode(ModelParams(1.0, 1.0, 1.0))
    monkeypatch.setattr(oracle, "_MAX_STEPS", 3000)
    monkeypatch.setattr(_kernel, "impl", pure)
    assert integrate_mode(ModelParams(1.0, 1.0, 1.0)).steps == 3000


@pytest.mark.parametrize("state, drift", [((math.nan, 0.0, 1.0, 0.0), 0.0),
                                          ((1.0, 0.0, 0.5, 0.0), math.inf)])
def test_non_finite_result_raises(monkeypatch, state, drift):
    # The kernels return whatever the arithmetic gives; the oracle refuses
    # a non-finite X or drift.
    monkeypatch.setattr(_kernel, "impl", SimpleNamespace(
        integrate_pair_drift=lambda *args: (state, drift, args[-1])))
    with pytest.raises(DegenerateParameterError, match=r"^oracle X=.* at ModelParams"):
        integrate_mode(ModelParams(1.0, 1.0, 1.0))
