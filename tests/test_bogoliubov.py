"""Bogoliubov layer: route agreement, frozen values, derivative validation.

Expected numbers marked as frozen were computed independently with mpmath at
40 significant digits (Gamma-function route and closed sinh form agree there
to all printed digits).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cosmo_qfi import (
    CosmoQfiError,
    ModelParams,
    coefficients,
    dX_deps_analytic,
    dX_deps_fd,
    excitation_weight,
    frequencies,
    mixing_sq_sinh,
    qfi_eps,
    ratio_sq,
)
from cosmo_qfi import bogoliubov
from cosmo_qfi.specfun import log_gamma

mp.mp.dps = 40

# (eps, m, k) -> |B/A|^2, frozen from mpmath
FROZEN_MIXING = {
    (1.0, 1.0, 1.0): 6.3409970333874073e-3,
    (0.01, 2.0, 0.5): 1.3142483278101767e-7,
    (5.0, 0.3, 1.0): 0.35801374611408691,
    (0.5, 5.0, 2.0): 1.6479714969324259e-13,
    (2.0, 0.1, 3.0): 1.4130827493264783e-8,
}
FROZEN_X_UNIT = 1.6698406311094825e-4
FROZEN_DX_UNIT = 9.8493155488480102e-5


def _mp_mixing_sq(eps, m, k):
    eps, m, k = mp.mpf(eps), mp.mpf(m), mp.mpf(k)
    w_in = mp.sqrt(k**2 + m**2)
    w_out = mp.sqrt(k**2 + m**2 * (1 + 2 * eps) ** 2)
    wp, wm = (w_out + w_in) / 2, (w_out - w_in) / 2
    z_pp, z_pm = wp + m * eps, wp - m * eps
    z_mp, z_mm = wm + m * eps, wm - m * eps
    return (
        (z_mp * z_pp) / (z_mm * z_pm)
        * mp.sinh(mp.pi * z_mm) * mp.sinh(mp.pi * z_mp)
        / (mp.sinh(mp.pi * z_pp) * mp.sinh(mp.pi * z_pm))
    )


def _mp_weight(eps, m, k):
    mu_out = m * (1 + 2 * eps)
    return _mp_mixing_sq(eps, m, k) * ((mp.sqrt(k**2 + mu_out**2) - mu_out) / k) ** 2


@pytest.mark.parametrize("point,expected", sorted(FROZEN_MIXING.items()))
def test_mixing_sq_sinh_frozen_points(point, expected):
    assert math.isclose(mixing_sq_sinh(ModelParams(*point)), expected, rel_tol=1e-12)


@pytest.mark.parametrize("point", sorted(FROZEN_MIXING))
def test_gamma_route_matches_sinh_route(point, rel=1e-10):
    p = ModelParams(*point)
    assert math.isclose(ratio_sq(coefficients(p)), mixing_sq_sinh(p), rel_tol=rel)


def test_cornerstone_identity_on_grid():
    axis = np.linspace(0.1, 5.0, 5)
    for eps in axis:
        for m in axis:
            for k in axis:
                p = ModelParams(float(eps), float(m), float(k))
                a = ratio_sq(coefficients(p))
                b = mixing_sq_sinh(p)
                assert abs(a - b) <= 1e-10 * max(a, b), (eps, m, k)


def test_mixing_vanishes_in_conformal_limit():
    assert mixing_sq_sinh(ModelParams(1.0, 0.0, 1.0)) == 0.0
    p = ModelParams(1.0, 1e-8, 1.0)
    assert ratio_sq(coefficients(p)) < 1e-12
    assert mixing_sq_sinh(p) < 1e-12


def test_mixing_vanishes_with_no_expansion():
    val = mixing_sq_sinh(ModelParams(1e-6, 1.0, 1.0))
    assert 0.0 < val < 1e-9


def test_coefficients_reject_massless():
    with pytest.raises(CosmoQfiError):
        coefficients(ModelParams(1.0, 0.0, 1.0))


def test_coefficients_fields_finite():
    log_ratio_sq = coefficients(ModelParams(2.0, 0.3, 0.7))
    assert type(log_ratio_sq) is float and math.isfinite(log_ratio_sq)


def test_coefficients_takes_four_log_gamma_terms(monkeypatch):
    # The common, conjugate and prefactor terms of A and B cancel in |B/A|.
    calls = []

    def counted(z):
        calls.append(z)
        return log_gamma(z)

    monkeypatch.setattr(bogoliubov, "log_gamma", counted)
    coefficients(ModelParams(1.0, 1.0, 1.0))
    assert len(calls) == 4


def test_ratio_sq_raises_where_the_magnitude_overflows():
    with pytest.raises(CosmoQfiError, match="overflows double precision"):
        ratio_sq(710.0)


def test_large_eps_quadratic_growth():
    # mixing / eps^2 approaches a constant
    vals = [mixing_sq_sinh(ModelParams(e, 1.0, 1.0)) / e**2 for e in (50.0, 100.0, 200.0)]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05
    assert abs(vals[2] - vals[1]) / vals[1] < 0.05
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def _solve_k_for_zeta_mm(eps, m, target):
    # zeta_mm(k) decreases from 0 as k grows from 0; bisect for the target.
    assert target < 0.0
    lo, hi = 1e-12, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = frequencies(ModelParams(eps, m, mid)).zeta_mm
        if val > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("target", [-1e-4, -1e-6, -1e-8])
def test_continuity_near_zeta_mm_zero(target):
    # The 1/zeta_mm prefactor cancels the sinh zero; values must stay finite,
    # positive, and match the high-precision reference through the series
    # switchover.  (zeta_mm <= 0 always holds, so the zero is approached from
    # below as k -> 0; positive solves do not exist.)
    eps, m = 1.0, 1.0
    k = _solve_k_for_zeta_mm(eps, m, target)
    p = ModelParams(eps, m, k)
    assert abs(frequencies(p).zeta_mm - target) < 1e-3 * abs(target)
    got = mixing_sq_sinh(p)
    ref = float(_mp_mixing_sq(eps, m, k))
    assert math.isfinite(got) and got > 0.0
    assert math.isclose(got, ref, rel_tol=1e-11)


def test_continuity_across_series_threshold():
    # dX_deps_analytic switches to a series at pi |zeta_mm| = 0.1; the
    # derivative on both sides agrees with mpmath's
    eps, m = 1.0, 1.0
    for target in (-0.1 / math.pi * 0.99, -0.1 / math.pi * 1.01):
        k = _solve_k_for_zeta_mm(eps, m, target)
        ref = mp.diff(lambda e: _mp_weight(e, m, k), mp.mpf(eps))
        assert math.isclose(dX_deps_analytic(ModelParams(eps, m, k)), ref, rel_tol=1e-13)


def test_excitation_weight_unit_point():
    p = ModelParams(1.0, 1.0, 1.0)
    st = excitation_weight(p)
    mixing = mixing_sq_sinh(p)
    assert math.isclose(st.X, FROZEN_X_UNIT, rel_tol=1e-12)
    assert math.isclose(mixing, FROZEN_MIXING[(1.0, 1.0, 1.0)], rel_tol=1e-12)
    assert math.isclose(st.dX, FROZEN_DX_UNIT, rel_tol=1e-11)
    assert math.isclose(st.X, mixing * frequencies(p).chi_abs**2, rel_tol=1e-14)
    p0 = 1.0 / (1.0 + st.X)
    assert (st.p0, st.p1) == (p0, st.X * p0)


def test_excitation_weight_evaluates_the_mixing_once(monkeypatch):
    # X and d ln X/d eps share one sinh chain: dX is formed from the X the
    # weight already holds.
    calls = []
    mixing = bogoliubov._log_mixing_sq

    def counted(f):
        calls.append(f)
        return mixing(f)

    monkeypatch.setattr(bogoliubov, "_log_mixing_sq", counted)
    st = excitation_weight(ModelParams(1.0, 1.0, 1.0))
    assert len(calls) == 1
    assert st.dX > 0.0


def test_excitation_weight_massless_and_heavy_momentum():
    assert excitation_weight(ModelParams(1.0, 0.0, 1.0)).X == 0.0
    tail = [excitation_weight(ModelParams(1.0, 1.0, k)).X for k in (10.0, 50.0, 100.0)]
    assert tail[0] > tail[1] > tail[2] >= 0.0


def test_analytic_derivative_against_fd_grid():
    axis = np.linspace(0.1, 5.0, 5)
    for eps in axis:
        for m in axis:
            for k in axis:
                p = ModelParams(float(eps), float(m), float(k))
                ana = dX_deps_analytic(p)
                fd = dX_deps_fd(p)
                assert abs(ana - fd) <= 1e-6 * max(abs(ana), abs(fd)), (eps, m, k)


def test_analytic_derivative_large_eps_flattens():
    # mpmath gives |dX(100)/dX(1)| = 3.985e-4; the weight saturates and the
    # derivative keeps shrinking with eps (the squared-derivative information
    # collapses much faster, see the acceptance suite)
    d1 = abs(dX_deps_analytic(ModelParams(1.0, 1.0, 1.0)))
    d100 = abs(dX_deps_analytic(ModelParams(100.0, 1.0, 1.0)))
    d200 = abs(dX_deps_analytic(ModelParams(200.0, 1.0, 1.0)))
    assert math.isclose(d100 / d1, 3.9850325e-4, rel_tol=1e-6)
    assert d200 < d100 < 1e-3 * d1


def test_analytic_derivative_rejects_degenerate():
    with pytest.raises(CosmoQfiError, match="requires X > 0"):
        dX_deps_analytic(ModelParams(1.0, 0.0, 1.0))


def test_fd_derivative_five_point_consistency():
    # Richardson value sits on the slope of a plain 5-point stencil at the
    # same step, 1e-5 * max(eps, 1)
    p = ModelParams(1.0, 1.0, 1.0)
    h = 1e-5

    def X(e):
        return excitation_weight(ModelParams(e, 1.0, 1.0)).X

    stencil = (-X(p.eps + 2 * h) + 8 * X(p.eps + h) - 8 * X(p.eps - h) + X(p.eps - 2 * h)) / (12 * h)
    assert math.isclose(dX_deps_fd(p), stencil, rel_tol=1e-9)


def test_fd_derivative_zero_for_massless():
    assert dX_deps_fd(ModelParams(1.0, 0.0, 1.0)) == 0.0


def test_fd_step_contracts():
    # the step 1e-5 reaches past eps = 0 for eps <= 2e-5
    with pytest.raises(CosmoQfiError, match="fd step 1e-05 too large at eps = 1e-05"):
        dX_deps_fd(ModelParams(1e-5, 1.0, 1.0))


def test_excitation_weight_method_flag():
    p = ModelParams(1.0, 1.0, 1.0)
    ana = excitation_weight(p, "analytic")
    fd = excitation_weight(p, "finite_difference")
    assert (ana.dX, fd.dX) == (dX_deps_analytic(p), dX_deps_fd(p))
    assert math.isclose(ana.dX, fd.dX, rel_tol=1e-6)
    with pytest.raises(ValueError):
        excitation_weight(p, "symbolic")


def test_extreme_expansion_degenerates_cleanly():
    # zeta_pm stays near (omega_in + m)/2 however large eps grows, so the
    # sinh route keeps its eps^2 growth until the magnitude overflows, which
    # raises the package error, never a raw arithmetic exception
    assert math.isclose(mixing_sq_sinh(ModelParams(1e18, 1.0, 1.0)) / 1e36,
                        mixing_sq_sinh(ModelParams(1e150, 1.0, 1.0)) / 1e300, rel_tol=1e-12)
    with pytest.raises(CosmoQfiError, match="overflows double precision"):
        mixing_sq_sinh(ModelParams(1e300, 1.0, 1.0))


def test_weight_stays_finite_where_the_mixing_overflows():
    # X tends to a constant in eps: its one exponential takes ln |B/A|^2 +
    # ln chi^2, which stays finite up to where frequencies overflow.
    X16 = excitation_weight(ModelParams(1e16, 1.0, 1.0)).X
    for eps in (1e150, 1e300, 6e307):
        assert math.isclose(excitation_weight(ModelParams(eps, 1.0, 1.0)).X, X16,
                            rel_tol=1e-12), eps


@pytest.mark.parametrize("m, k", [(1.0, 1.0), (0.1, 3.0), (5.0, 0.5), (1e3, 1e-3)])
def test_qfi_past_the_mixing_overflow_is_zero_or_typed(m, k):
    # From eps = 1e155 up to the frequencies overflow, dX underflows to 0, so
    # the QFI reads 0 with an infinite bound; past it the error is typed.
    eps, raised = 1e155, 0
    while eps < 1.7e308:
        try:
            est = qfi_eps(ModelParams(eps, m, k))
        except CosmoQfiError as exc:
            assert "frequencies overflow" in str(exc)
            raised += 1
        else:
            s = est.state
            assert all(0.0 <= v < math.inf for v in (s.X, s.dX, s.p0, s.p1)), eps
            assert (est.qfi, est.bound) == (0.0, math.inf), eps
        eps *= 1.25
    assert raised > 0


def test_pole_error_reachable_through_gamma_route():
    # The log-Gamma sum loses ~1e-15 relative per unit of zeta_pp, so the
    # Gamma route raises past zeta_pp = 5e4 rather than return a value it
    # cannot resolve; just under the limit it still matches the sinh route.
    for eps in (1e16, 1e17, 1e18, 1e150, 1e300):
        with pytest.raises(CosmoQfiError, match="past zeta_pp = 50000"):
            coefficients(ModelParams(eps, 1.0, 1.0))
    p = ModelParams(2.49e4, 1.0, 1.0)
    assert 4.9e4 < frequencies(p).zeta_pp < 5e4
    assert math.isclose(ratio_sq(coefficients(p)), mixing_sq_sinh(p), rel_tol=1e-10)
