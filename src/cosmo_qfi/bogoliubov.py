"""Bogoliubov mixing coefficients and the probe excitation weight.

The particle-creation strength is computed along two independent routes that
must agree (the verification suite enforces this):

* `coefficients` assembles the complex mixing coefficients A, B from
  log-Gamma factors, entirely in log space;
* `mixing_sq_sinh` evaluates the closed sinh form of |B/A|^2, with explicit
  sign tracking and a series fill at the removable zero of zeta_mm.

The excitation weight X = |B/A|^2 * chi_abs^2 is what the reduced probe state
sees.  `_weight` is its only statement, on the sinh route; at m_tilde = 0 it
takes the generic path, where zeta_mp = 0 gives the exact zero.  Its
derivative in the expansion parameter ships in two independent
implementations (exact chain rule and Richardson finite differences).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cosmology import FrequencySet, ModelParams, domega_out_deps, frequencies
from .errors import DegenerateParameterError
from .specfun import coth, coth_minus_inv, log_gamma, log_sinh_abs, sinh_over_x

ANALYTIC = "analytic"
FINITE_DIFFERENCE = "finite_difference"

_PI = math.pi


class BogoliubovPair(namedtuple("BogoliubovPair", ("log_abs_A", "log_abs_B"))):
    """Log-magnitudes of the mixing coefficients."""

    __slots__ = ()


class CreationFactor(namedtuple("CreationFactor", ("X", "dX_deps"))):
    """Probe excitation weight X = |B/A|^2 * chi_abs^2 at one point and
    dX_deps, its derivative in the expansion parameter.
    """

    __slots__ = ()


def coefficients(p: ModelParams) -> BogoliubovPair:
    """Mixing coefficients A, B via log-Gamma.

    Requires m_tilde > 0 (no mixing happens in the conformally invariant
    limit and the Gamma arguments degenerate).
    """
    if p.m_tilde == 0.0:
        raise DegenerateParameterError("coefficients undefined at m_tilde = 0")
    f = frequencies(p)
    half_log_pref = 0.5 * math.log(f.omega_out / f.omega_in)
    common = log_gamma(1.0 - 1j * f.omega_in)
    log_A = common + log_gamma(-1j * f.omega_out) \
        - log_gamma(1.0 - 1j * f.zeta_pp) - log_gamma(-1j * f.zeta_pm)
    log_B = common + log_gamma(1j * f.omega_out) \
        - log_gamma(1.0 + 1j * f.zeta_mm) - log_gamma(1j * f.zeta_mp)
    return BogoliubovPair(log_A.real + half_log_pref, log_B.real + half_log_pref)


def _exp_checked(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DegenerateParameterError(
            f"magnitude exp({log_value:.1f}) overflows double precision"
        ) from None


def ratio_sq(pair: BogoliubovPair) -> float:
    """|B/A|^2 from a coefficient pair."""
    return _exp_checked(2.0 * (pair.log_abs_B - pair.log_abs_A))


def _mixing_sq_sinh(f: FrequencySet) -> float:
    # |B/A|^2:
    #   (zeta_mp zeta_pp)/(zeta_mm zeta_pm)
    #     * sinh(pi zeta_mm) sinh(pi zeta_mp) / (sinh(pi zeta_pp) sinh(pi zeta_pm))
    # regrouped so each factor is positive:
    #   [zeta_pp/zeta_pm] * [sinh(pi zeta_mm)/zeta_mm]
    #     * [zeta_mp sinh(pi zeta_mp)] / [sinh(pi zeta_pp) sinh(pi zeta_pm)]
    if f.zeta_pp <= 0.0 or f.zeta_pm <= 0.0:
        raise DegenerateParameterError(
            "sinh closed form requires zeta_pp > 0 and zeta_pm > 0"
        )
    if f.zeta_mp == 0.0:
        # zeta_mp and sinh(pi zeta_mp) vanish together; the product is an
        # exact zero (the no-expansion / massless limits).
        return 0.0
    # sinh(pi zeta_mm)/zeta_mm: positive with a removable zero at zeta_mm = 0.
    x = _PI * f.zeta_mm
    if abs(x) < 1.0:
        log_even = math.log(_PI * sinh_over_x(x))
    else:
        log_even = log_sinh_abs(x) - math.log(abs(f.zeta_mm))
    log_total = (
        math.log(f.zeta_pp) - math.log(f.zeta_pm)
        + log_even
        + math.log(f.zeta_mp) + log_sinh_abs(_PI * f.zeta_mp)
        - log_sinh_abs(_PI * f.zeta_pp) - log_sinh_abs(_PI * f.zeta_pm)
    )
    return _exp_checked(log_total)


def mixing_sq_sinh(p: ModelParams) -> float:
    """|B/A|^2 via the stable sinh closed form.

    Returns exactly 0 for m_tilde = 0, where zeta_mp = 0.  Continuous through
    zeta_mm = 0, where the 1/zeta_mm prefactor cancels the sinh zero.
    """
    return _mixing_sq_sinh(frequencies(p))


def _weight(f: FrequencySet) -> float:
    # X = |B/A|^2 * chi_abs^2 without the derivative machinery.
    return _mixing_sq_sinh(f) * f.chi_abs * f.chi_abs


def dX_deps_analytic(p: ModelParams) -> float:
    """Exact chain-rule derivative of the excitation weight in eps.

    Differentiates ln X through every zeta and through chi; the zeta_mm group
    uses coth(x) - 1/x, which is analytic through the removable zero.
    Requires X > 0, so m_tilde > 0.
    """
    f = frequencies(p)
    X = _weight(f)
    if X == 0.0:
        raise DegenerateParameterError("dX_deps_analytic requires X > 0")
    m = p.m_tilde
    domega = domega_out_deps(p)
    dz_p = 0.5 * domega + m  # zeta_pp' and zeta_mp'
    dz_m = 0.5 * domega - m  # zeta_pm' and zeta_mm'
    dlog_mix = (
        dz_p / f.zeta_pp - dz_m / f.zeta_pm
        + dz_m * _PI * coth_minus_inv(_PI * f.zeta_mm)
        + dz_p * (1.0 / f.zeta_mp + _PI * coth(_PI * f.zeta_mp))
        - _PI * (coth(_PI * f.zeta_pp) * dz_p + coth(_PI * f.zeta_pm) * dz_m)
    )
    # chi = k/(omega_out + mu_out), so dln(chi^2) = -2 (domega + 2m)/(omega_out + mu_out)
    dlog_chi_sq = -2.0 * (domega + 2.0 * m) / (f.omega_out + f.mu_out)
    return X * (dlog_mix + dlog_chi_sq)


def dX_deps_fd(p: ModelParams) -> float:
    """Richardson-extrapolated central difference of the excitation weight.

    One halving of the fixed step h = 1e-5 * max(eps, 1): returns
    (4 D(h/2) - D(h))/3 with D(s) = (X(eps+s) - X(eps-s))/(2 s).  Raises
    DegenerateParameterError at eps <= 2h, that is eps <= 2e-5.
    """
    h = 1e-5 * max(p.eps, 1.0)
    if p.eps - 2.0 * h <= 0.0:
        raise DegenerateParameterError(f"fd step {h} too large at eps = {p.eps}")

    def X_at(e: float) -> float:
        return _weight(frequencies(ModelParams(e, p.m_tilde, p.k_tilde)))

    d_full = (X_at(p.eps + h) - X_at(p.eps - h)) / (2.0 * h)
    d_half = (X_at(p.eps + 0.5 * h) - X_at(p.eps - 0.5 * h)) / h
    return (4.0 * d_half - d_full) / 3.0


def excitation_weight(p: ModelParams, deriv_method: str = ANALYTIC) -> CreationFactor:
    """Excitation weight X = |B/A|^2 * chi_abs^2 and its eps-derivative.

    Where the weight is zero (m_tilde = 0) or underflows to zero, the
    derivative vanishes or underflows with it and is reported as zero rather
    than raising.
    """
    if deriv_method not in (ANALYTIC, FINITE_DIFFERENCE):
        raise ValueError(f"unknown derivative method {deriv_method!r}")
    X = _weight(frequencies(p))
    if X == 0.0:
        dX = 0.0
    elif deriv_method == ANALYTIC:
        dX = dX_deps_analytic(p)
    else:
        dX = dX_deps_fd(p)
    return CreationFactor(X, dX)
