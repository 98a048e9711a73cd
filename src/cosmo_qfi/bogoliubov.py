"""Bogoliubov mixing coefficients and the probe excitation weight.

The particle-creation strength is computed along two independent routes that
must agree (the verification suite enforces this):

* `coefficients` sums the four log-Gamma terms of ln |B/A|^2 that do not
  cancel between A and B, entirely in log space;
* `mixing_sq_sinh` evaluates the closed sinh form of |B/A|^2 as a sum of
  logs in which nothing cancels.

Both routes end in `ratio_sq`, the one checked exponential.

The excitation weight X = |B/A|^2 * chi_abs^2 is what the reduced probe state
sees.  `_weight` is its only statement, on the sinh route: `ratio_sq` of
ln |B/A|^2 + ln chi^2, so X stays finite where |B/A|^2 overflows, and is the
exact zero at m_tilde = 0, where zeta_mp = 0.  Its derivative in the
expansion parameter ships in two independent implementations (exact chain
rule and Richardson finite differences).
`_dlnX_deps` is the one statement of the chain rule, d ln X/d eps, so a
probe evaluates X once and `excitation_weight` forms dX = X * d ln X/d eps
from it, returning the probe state (p0, p1) = (1, X)/(1+X) with X and dX;
`dX_deps_analytic` is the same product for callers that hold no X.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .cosmology import FrequencySet, ModelParams, domega_out_deps, frequencies
from .errors import DegenerateParameterError
from .specfun import log_gamma

ANALYTIC = "analytic"
FINITE_DIFFERENCE = "finite_difference"

_PI = math.pi
_TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(_TWO_PI)
# The log-Gamma sum loses ~1e-15 relative per unit of zeta_pp: against the
# sinh route, 3.6e-11 at most up to this limit over 20 000 log-uniform points
# in [1e-8, 1e6]^3.
_GAMMA_ZETA_PP_MAX = 5e4


class ProbeState(namedtuple("ProbeState", ("p0", "p1", "X", "dX"))):
    """Two-outcome diagonal probe state with its excitation weight."""

    __slots__ = ()


def coefficients(p: ModelParams) -> float:
    """ln |B/A|^2 via log-Gamma:

        2 Re[ln Gamma(1 - i zeta_pp) + ln Gamma(-i zeta_pm)
             - ln Gamma(1 + i zeta_mm) - ln Gamma(i zeta_mp)],

    the terms of |Gamma(1 - i zeta_pp) Gamma(-i zeta_pm)|^2 /
    |Gamma(1 + i zeta_mm) Gamma(i zeta_mp)|^2.  The common factor
    Gamma(1 - i omega_in), the conjugate pair Gamma(-/+ i omega_out) and the
    prefactor sqrt(omega_out/omega_in) of A and B cancel in |B/A| and are not
    evaluated.  Requires m_tilde > 0 (no
    mixing happens in the conformally invariant limit and the Gamma
    arguments degenerate) and zeta_pp <= 5e4.
    """
    if p.m_tilde == 0.0:
        raise DegenerateParameterError("coefficients undefined at m_tilde = 0")
    f = frequencies(p)
    if f.zeta_pp > _GAMMA_ZETA_PP_MAX:
        raise DegenerateParameterError(
            f"Gamma route cannot resolve |B/A|^2 past zeta_pp = {_GAMMA_ZETA_PP_MAX:g}")
    return 2.0 * (
        log_gamma(1.0 - 1j * f.zeta_pp) + log_gamma(-1j * f.zeta_pm)
        - log_gamma(1.0 + 1j * f.zeta_mm) - log_gamma(1j * f.zeta_mp)
    ).real


def ratio_sq(log_ratio_sq: float) -> float:
    """|B/A|^2 or X from its logarithm; raises where it overflows double precision."""
    try:
        return math.exp(log_ratio_sq)
    except OverflowError:
        raise DegenerateParameterError(
            f"magnitude exp({log_ratio_sq:.1f}) overflows double precision"
        ) from None


def _log_tail(z: float) -> float:
    # T(z) = ln(1 - e^(-2 pi z)) = ln sinh(pi z) - (pi z - ln 2) for z > 0.
    return math.log(-math.expm1(-_TWO_PI * z))


def _dlog_tail(z: float) -> float:
    # T'(z) = 2 pi e^(-2 pi z) / (1 - e^(-2 pi z)).
    return _TWO_PI * math.exp(-_TWO_PI * z) / -math.expm1(-_TWO_PI * z)


def _log_mixing_sq(f: FrequencySet) -> float:
    # ln |B/A|^2 with |B/A|^2 =
    #   (zeta_mp zeta_pp)/(zeta_mm zeta_pm)
    #     * sinh(pi zeta_mm) sinh(pi zeta_mp) / (sinh(pi zeta_pp) sinh(pi zeta_pm))
    # With a = -zeta_mm >= 0, the linear parts pi z - ln 2 of the four ln sinh
    # sum to -2 pi zeta_pm, as zeta_pp - zeta_mp = zeta_pm - zeta_mm = omega_in.
    if f.zeta_mp == 0.0:
        # zeta_mp and sinh(pi zeta_mp) vanish together; the product is an
        # exact zero (the no-expansion / massless limits).
        return -math.inf
    a = -f.zeta_mm
    # ln(sinh(pi a)/a) - (pi a - ln 2), which tends to ln 2 pi as a -> 0; a
    # subnormal a leaves expm1 too few bits, so its limit stands in there.
    log_even = (math.log(-math.expm1(-_TWO_PI * a) / a) if a >= sys.float_info.min
                else _LOG_TWO_PI)
    return (
        math.log(f.zeta_pp) - math.log(f.zeta_pm) + math.log(f.zeta_mp)
        - _TWO_PI * f.zeta_pm + log_even
        + _log_tail(f.zeta_mp) - _log_tail(f.zeta_pp) - _log_tail(f.zeta_pm)
    )


def mixing_sq_sinh(p: ModelParams) -> float:
    """|B/A|^2 via the stable sinh closed form.

    Returns exactly 0 for m_tilde = 0, where zeta_mp = 0.  Continuous through
    zeta_mm = 0, where the 1/zeta_mm prefactor cancels the sinh zero.
    """
    return ratio_sq(_log_mixing_sq(frequencies(p)))


def _weight(p: ModelParams) -> float:
    # ln chi^2 = 2 ln(k/(omega_out + mu_out)), taken apart: chi may underflow.
    f = frequencies(p)
    return ratio_sq(_log_mixing_sq(f) + 2.0 * (
        math.log(p.k_tilde) - math.log(f.omega_out) - math.log1p(f.mu_out / f.omega_out)))


def _dlnX_deps(p: ModelParams) -> float:
    # d ln X/d eps = zeta_pp' G - zeta_mm' S with zeta_pp' > 0 > zeta_mm' and
    # G, S > 0, so every term is non-negative.  The one statement of the
    # derivative chain; requires m_tilde > 0, and its callers hold X > 0.
    f = frequencies(p)
    m = p.m_tilde
    dz_p = 0.5 * domega_out_deps(p) + m  # zeta_pp' and zeta_mp'
    dz_m = -m * (p.k_tilde / f.omega_out * f.chi_abs)  # zeta_pm' and zeta_mm'
    # G: the zeta_pp and zeta_mp terms with d ln chi^2 folded in, and their
    # tails T'(zeta_mp) - T'(zeta_pp) differenced in closed form; no sum in it
    # overflows, as omega_out + mu_out would.  The tails' product (>= 0)
    # underflows where m and k are both tiny; two divisions there give wrong
    # figures, and so does dividing by it once it is subnormal.
    tails = math.expm1(-_TWO_PI * f.zeta_mp) * math.expm1(-_TWO_PI * f.zeta_pp)
    if tails < sys.float_info.min:
        raise DegenerateParameterError(
            f"d ln X/d eps underflows for eps={p.eps}, m_tilde={m}, k_tilde={p.k_tilde}")
    G = (
        (f.omega_in / f.zeta_pp * (f.omega_in / f.zeta_mp) + m / f.zeta_pp + m / f.zeta_mp)
        / f.omega_out / (1.0 + f.mu_out / f.omega_out)
        + _TWO_PI * -math.expm1(-_TWO_PI * f.omega_in) * math.exp(-_TWO_PI * f.zeta_mp) / tails
    )
    # S: the zeta_pm and zeta_mm terms, with D(a) = T'(a) - 1/a in (-pi, 0]
    # at a = -zeta_mm; below x = pi a = 0.1, where the direct difference
    # loses a factor 1/x in accuracy, its series takes over.
    a = -f.zeta_mm
    x = _PI * a
    if x < 0.1:
        x2 = x * x
        D = _PI * (x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0 - x2 / 4725.0))) - 1.0)
    else:
        D = _dlog_tail(a) - 1.0 / a
    S = 1.0 / f.zeta_pm + _TWO_PI + _dlog_tail(f.zeta_pm) + D
    return dz_p * G - dz_m * S


def dX_deps_analytic(p: ModelParams) -> float:
    """Exact chain-rule derivative of the excitation weight in eps,
    X * d ln X/d eps.

    Every term of d ln X/d eps is non-negative, so dX > 0 wherever X > 0.
    Requires X > 0, so m_tilde > 0.
    """
    X = _weight(p)
    if X == 0.0:
        raise DegenerateParameterError("dX_deps_analytic requires X > 0")
    return X * _dlnX_deps(p)


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
        return _weight(ModelParams(e, p.m_tilde, p.k_tilde))

    d_full = (X_at(p.eps + h) - X_at(p.eps - h)) / (2.0 * h)
    d_half = (X_at(p.eps + 0.5 * h) - X_at(p.eps - 0.5 * h)) / h
    return (4.0 * d_half - d_full) / 3.0


def excitation_weight(p: ModelParams, deriv_method: str = ANALYTIC) -> ProbeState:
    """Probe state (1/(1+X), X/(1+X)) with the excitation weight
    X = |B/A|^2 * chi_abs^2 and its eps-derivative dX.

    Where the weight is zero (m_tilde = 0) or underflows to zero, the
    derivative vanishes or underflows with it and is reported as zero rather
    than raising.
    """
    if deriv_method not in (ANALYTIC, FINITE_DIFFERENCE):
        raise ValueError(f"unknown derivative method {deriv_method!r}")
    X = _weight(p)
    if X == 0.0:
        dX = 0.0
    elif deriv_method == ANALYTIC:
        dX = X * _dlnX_deps(p)
    else:
        dX = dX_deps_fd(p)
    p0 = 1.0 / (1.0 + X)
    return tuple.__new__(ProbeState, (p0, X * p0, X, dX))
