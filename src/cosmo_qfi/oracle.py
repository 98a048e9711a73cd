"""Independent verification of the closed-form mixing ratio.

Integrates the mode equation directly across the expansion epoch and reads
the mixing coefficients off the asymptotic plane waves.  The in-mode enters
as exp(-i omega_in eta).  At the far end the solution is matched to

    A exp(-i omega_out eta) + B exp(+i omega_out eta),

which gives |B/A|^2.  The mode equation is the second-order form of the
Dirac system i chi' = -H chi, H = [[M, k], [k, -M]], M = m a(eta), with
chi = (psi, v) and v = -(i psi' + M psi)/k (see `_kernel.pure`).  So the
endpoint state also gives the spinor, and its projections alpha and beta
onto the eigenspinors of the oracle's own H_out give the excitation weight
X = |beta/alpha|^2 = |B/A|^2 chi^2, with chi never taken from the closed
form.  The verification suite compares X with the closed forms.  Only
magnitude ratios are meaningful here; overall phase conventions of the exact
mode functions are not reproduced.

Only the in-mode is integrated.  H is Hermitian, so the Dirac norm
|psi|^2 + |v|^2 of that one solution is exactly conserved, and its drift
gauges the integrator along the in-mode's own step sequence.

The oracle runs in one fixed configuration: the window [-ETA_SPAN, ETA_SPAN]
and the step tolerances REL_TOL and ABS_TOL are module constants, read at
call time, not caller options.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from . import _kernel
from .cosmology import ModelParams, frequencies, scale_factor
from .errors import DegenerateParameterError, IntegrationError, WindowTooSmallError

_ASYMPTOTE_TOL = 1e-10  # max allowed deviation of a(eta) from its limits
_CHECKPOINT_BACKOFF = 1.0  # matching consistency is checked this far before the end


# Half-width of the integration window, in units of the inverse expansion
# rate.  The window, not the integrator, bounds the oracle's accuracy: at its
# ends a(eta) still differs from its limits by about 2 eps e^(-2 ETA_SPAN), so
# plane waves started and matched there leave a relative error in |B/A|^2 of
# order 2 eps e^(-2 ETA_SPAN) / |B/A|.  At span 15 that error is 2.9e-7 at
# (eps, m, k) = (0.5, 5, 2), where |B/A| is 4e-7, and it does not fall as
# REL_TOL tightens; at span 20 it is 2.9e-8.
ETA_SPAN = 15.0
# Step tolerances, tight enough that the norm drift stays far below the
# verification budget.
REL_TOL = 1e-12
ABS_TOL = 1e-14


class MatchResult(namedtuple("MatchResult", (
        "A_num", "B_num", "ratio_sq", "X", "fit_residual", "norm_drift", "steps"))):
    """Matched mixing coefficients and the quality of the plane-wave fit.

    X is the excitation weight |beta/alpha|^2 read off the endpoint spinor.
    fit_residual measures how well the matched superposition reproduces the
    integrated solution and its derivative one backoff interval before the
    endpoint, relative to |A|.  norm_drift bounds the relative drift of the
    in-mode's Dirac norm over the whole integration.  steps counts the
    integrator's accepted steps over both legs.
    """

    __slots__ = ()


def _check_window(p: ModelParams, span: float, eta0: float) -> None:
    a_out = scale_factor(span, p.eps)
    a_in = scale_factor(eta0, p.eps)
    if abs(a_out - (1.0 + 2.0 * p.eps)) > _ASYMPTOTE_TOL or abs(a_in - 1.0) > _ASYMPTOTE_TOL:
        raise WindowTooSmallError(
            f"a(eta) not asymptotic at window ends (span {span}, eps {p.eps})"
        )


def _raise_on_status(status: int, p: ModelParams) -> None:
    if status == _kernel.STATUS_MAX_STEPS:
        raise IntegrationError(f"step budget exhausted at {p}")
    if status == _kernel.STATUS_UNDERFLOW:
        raise IntegrationError(f"step size underflow at {p}")
    if status == _kernel.STATUS_NONFINITE:
        raise IntegrationError(f"non-finite error estimate at {p}")


def _in_mode_state(omega_in: float, eta0: float) -> tuple[float, float, float, float]:
    # psi = exp(-i omega_in eta), dpsi = -i omega_in psi at eta0.
    psi = cmath.exp(-1j * omega_in * eta0)
    dpsi = -1j * omega_in * psi
    return (psi.real, psi.imag, dpsi.real, dpsi.imag)


def integrate_mode(p: ModelParams) -> MatchResult:
    """Integrate the mode equation across [-ETA_SPAN, ETA_SPAN] and match the
    asymptotic plane waves."""
    if p.m_tilde <= 0.0:
        raise DegenerateParameterError("integrate_mode requires m_tilde > 0")
    span, rel_tol, abs_tol = ETA_SPAN, REL_TOL, ABS_TOL
    eta0 = -span
    _check_window(p, span, eta0)
    f = frequencies(p)

    y = _in_mode_state(f.omega_in, eta0)
    checkpoint = span - _CHECKPOINT_BACKOFF
    y, d1, steps1, status = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, p.k_tilde, eta0, checkpoint, y, rel_tol, abs_tol
    )
    _raise_on_status(status, p)
    psi_c = complex(y[0], y[1])
    dpsi_c = complex(y[2], y[3])
    y, d2, steps2, status = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, p.k_tilde, checkpoint, span, y, rel_tol, abs_tol
    )
    _raise_on_status(status, p)
    psi = complex(y[0], y[1])
    dpsi = complex(y[2], y[3])

    w = f.omega_out
    a_coef = (w * psi + 1j * dpsi) * cmath.exp(1j * w * span) / (2.0 * w)
    b_coef = (w * psi - 1j * dpsi) * cmath.exp(-1j * w * span) / (2.0 * w)
    if a_coef == 0:
        raise IntegrationError("matched transmission coefficient vanished")
    # The spinor's projections onto the out-spinors (k, -(w + mu)) and
    # (w + mu, k) of H_out; their common norm hypot(k, w + mu) cancels in X.
    k, wm = p.k_tilde, w + f.mu_out
    v = (-1j * dpsi - f.mu_out * psi) / k
    alpha = k * psi - wm * v
    beta = wm * psi + k * v

    # Consistency of the match: the superposition must reproduce the solution
    # at the checkpoint, where it was not fitted.
    phase = cmath.exp(-1j * w * checkpoint)
    psi_fit = a_coef * phase + b_coef / phase
    dpsi_fit = -1j * w * a_coef * phase + 1j * w * b_coef / phase
    residual = max(abs(psi_fit - psi_c), abs(dpsi_fit - dpsi_c) / w) / abs(a_coef)

    return MatchResult(
        A_num=a_coef,
        B_num=b_coef,
        ratio_sq=abs(b_coef / a_coef) ** 2,
        X=abs(beta / alpha) ** 2,
        fit_residual=residual,
        # Leg 2 measures its drift against the checkpoint norm N_c, so
        # |N - N_0| <= d2 N_c + d1 N_0 <= (d1 + d2 (1 + d1)) N_0: the
        # combined figure never under-reports the drift from the start.
        norm_drift=d1 + d2 * (1.0 + d1),
        steps=steps1 + steps2,
    )


def wronskian_drift(p: ModelParams) -> float:
    """Max relative drift of the in-mode's Dirac norm: integrate_mode(p).norm_drift.

    The norm is exactly conserved whatever the coefficient function, so its
    drift is a pure integrator-quality gauge.  The name is from the pair
    Wronskian the norm replaced; `perfbench/` traces the function by it.
    """
    return integrate_mode(p).norm_drift
