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
    DegenerateParameterError,
    DerivativeStepError,
    ModelParams,
    PoleError,
    coefficients,
    dX_deps_analytic,
    dX_deps_fd,
    excitation_weight,
    frequencies,
    mixing_sq_sinh,
    qfi_eps,
    ratio_sq,
)

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
    return float(
        (z_mp * z_pp) / (z_mm * z_pm)
        * mp.sinh(mp.pi * z_mm) * mp.sinh(mp.pi * z_mp)
        / (mp.sinh(mp.pi * z_pp) * mp.sinh(mp.pi * z_pm))
    )


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
    with pytest.raises(DegenerateParameterError):
        coefficients(ModelParams(1.0, 0.0, 1.0))


def test_coefficients_fields_finite():
    pair = coefficients(ModelParams(2.0, 0.3, 0.7))
    for v in pair:
        assert math.isfinite(v)


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
    ref = _mp_mixing_sq(eps, m, k)
    assert math.isfinite(got) and got > 0.0
    assert math.isclose(got, ref, rel_tol=1e-11)


def test_continuity_across_series_threshold():
    # internal switch at |pi zeta_mm| = 1; values on both sides agree with mpmath
    eps, m = 1.0, 1.0
    for target in (-1.0 / math.pi * 0.99, -1.0 / math.pi * 1.01):
        k = _solve_k_for_zeta_mm(eps, m, target)
        p = ModelParams(eps, m, k)
        assert math.isclose(mixing_sq_sinh(p), _mp_mixing_sq(eps, m, k), rel_tol=1e-12)


def test_excitation_weight_unit_point():
    p = ModelParams(1.0, 1.0, 1.0)
    cf = excitation_weight(p)
    mixing = mixing_sq_sinh(p)
    assert math.isclose(cf.X, FROZEN_X_UNIT, rel_tol=1e-12)
    assert math.isclose(mixing, FROZEN_MIXING[(1.0, 1.0, 1.0)], rel_tol=1e-12)
    assert math.isclose(cf.dX_deps, FROZEN_DX_UNIT, rel_tol=1e-11)
    assert math.isclose(cf.X, mixing * frequencies(p).chi_abs**2, rel_tol=1e-14)


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
    with pytest.raises(DegenerateParameterError, match="requires X > 0"):
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
    with pytest.raises(DerivativeStepError, match="too large"):
        dX_deps_fd(ModelParams(1e-5, 1.0, 1.0))


def test_excitation_weight_method_flag():
    p = ModelParams(1.0, 1.0, 1.0)
    ana = excitation_weight(p, "analytic")
    fd = excitation_weight(p, "finite_difference")
    for method in ("analytic", "finite_difference"):
        assert qfi_eps(p, deriv_method=method).derivative_method == method
    assert math.isclose(ana.dX_deps, fd.dX_deps, rel_tol=1e-6)
    with pytest.raises(ValueError):
        excitation_weight(p, "symbolic")


def test_extreme_expansion_degenerates_cleanly():
    # zeta_pm = (omega_in + m)/2 + O(1/eps) cancels to zero in doubles once
    # m*eps passes ~1e16; the guard must turn that into the package error,
    # never a raw arithmetic exception
    for eps in (1e18, 1e150, 1e300):
        with pytest.raises(DegenerateParameterError):
            mixing_sq_sinh(ModelParams(eps, 1.0, 1.0))


def test_pole_error_reachable_through_gamma_route():
    # zeta_mp = 0 puts a Gamma argument on a pole; with valid ModelParams this
    # needs m = 0, which coefficients() rejects first, so exercise log_gamma's
    # guard through the specfun surface instead.
    from cosmo_qfi.specfun import log_gamma

    with pytest.raises(PoleError):
        log_gamma(0j)
