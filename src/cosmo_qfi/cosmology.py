"""Expansion kinematics: scale factor and all derived mode frequencies.

Every quantity is stored dimensionless (divided by the expansion rate rho),
so conformal time is measured in units of 1/rho and `scale_factor` has
rho = 1 built in, as have both mode-equation kernels.  The Bogoliubov
coefficients depend on the expansion only through these dimensionless
combinations.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import CosmoQfiError


class ModelParams(namedtuple("ModelParams", ("eps", "m_tilde", "k_tilde"))):
    """Dimensionless channel parameters.

    eps
        Volume ratio of the expansion (ratio of final to initial conformal
        factor growth); the parameter being estimated.  Strictly positive.
    m_tilde
        Field mass in units of the expansion rate.  Zero is admitted as a
        degenerate input (conformally invariant field, no particle creation).
    k_tilde
        Mode wave number in units of the expansion rate.  Strictly positive.
    """

    __slots__ = ()

    def __new__(cls, eps: float, m_tilde: float, k_tilde: float):
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        if not (math.isfinite(m_tilde) and m_tilde >= 0.0):
            raise ValueError(f"m_tilde must be finite and >= 0, got {m_tilde}")
        if not (math.isfinite(k_tilde) and k_tilde > 0.0):
            raise ValueError(f"k_tilde must be finite and > 0, got {k_tilde}")
        return tuple.__new__(cls, (eps, m_tilde, k_tilde))

    @classmethod
    def _make(cls, iterable):
        # Through the constructor, so `_replace` validates too.
        return cls(*iterable)


class FrequencySet(namedtuple("FrequencySet", (
        "omega_in", "omega_out", "zeta_pp", "zeta_pm", "zeta_mp", "zeta_mm",
        "mu_out", "chi_abs"))):
    """Asymptotic frequencies and the sinh/Gamma argument combinations.

    With omega_plus = (omega_out + omega_in)/2 and omega_minus =
    (omega_out - omega_in)/2, zeta_pp, zeta_pm, zeta_mp, zeta_mm are
    omega_plus + m*eps, omega_plus - m*eps, omega_minus + m*eps and
    omega_minus - m*eps.  The first three are strictly positive for
    m_tilde > 0 and zeta_mm <= 0 everywhere (hypot is 1-Lipschitz, so
    omega_out - omega_in <= mu_out - m = 2 m eps); at m_tilde = 0, zeta_mp
    and zeta_mm are exactly 0.
    """

    __slots__ = ()


def scale_factor(eta: float, eps: float) -> float:
    """Conformal factor 1 + eps*(1 + tanh(eta)), eta in units of 1/rho.

    Tends to 1 in the asymptotic past and to 1 + 2*eps in the asymptotic
    future.
    """
    if not eps > 0.0:
        raise ValueError("scale_factor requires eps > 0")
    return 1.0 + eps * (1.0 + math.tanh(eta))


_last = (None, None)  # (p, frequencies(p)) last computed, rebound in one step


def frequencies(p: ModelParams) -> FrequencySet:
    """All derived frequencies for the given channel parameters.

    chi_abs is the magnitude of the spinor-structure factor
    (omega_out - mu_out)/k_tilde, evaluated in the cancellation-free form
    k_tilde/(omega_out + mu_out); it is 1 at m_tilde = 0.

    The last result is returned again for the same `ModelParams` object
    (`is`), which a sweep row passes six times; ROADMAP.md item 3 deletes this.
    """
    global _last
    last_p, last_f = _last
    if p is last_p:
        return last_f
    m, k, eps = p.m_tilde, p.k_tilde, p.eps
    mu_out = m * (1.0 + 2.0 * eps)
    omega_in = math.hypot(k, m)
    omega_out = math.hypot(k, mu_out)
    if not (math.isfinite(omega_out) and math.isfinite(omega_in)):
        raise CosmoQfiError(
            f"frequencies overflow for eps={eps}, m_tilde={m}, k_tilde={k}"
        )
    # No differences: omega_out - omega_in = (mu_out^2 - m^2)/(omega_out +
    # omega_in) and omega - mass = k^2/(omega + mass).
    chi = k / omega_out / (1.0 + mu_out / omega_out)  # omega_out + mu_out may overflow
    me = m * eps
    omega_minus = 2.0 * me * (m * (1.0 + eps) / (omega_out + omega_in))
    zeta_mp = omega_minus + me
    k_in = k / (omega_in + m)
    zeta_pm = m + 0.5 * (k * chi + k * k_in)
    # Positional, through tuple.__new__: the generated constructor spends
    # longer binding its arguments than building the tuple.
    f = tuple.__new__(FrequencySet, (
        omega_in, omega_out, zeta_pm + 2.0 * me, zeta_pm, zeta_mp,
        -chi * k_in * zeta_mp, mu_out, chi,
    ))
    _last = (p, f)
    return f


def domega_out_deps(p: ModelParams) -> float:
    """d(omega_out)/d(eps) at fixed m_tilde, k_tilde: 2 m mu_out/omega_out."""
    f = frequencies(p)
    return 2.0 * p.m_tilde * (f.mu_out / f.omega_out)
