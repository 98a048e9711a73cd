"""Independent verification of the closed-form mixing ratio.

Integrates the mode equation directly across the expansion epoch and reads
the mixing coefficients off the asymptotic plane waves.  The in-mode enters
as exp(-i omega_in eta).  At the far end it is

    A exp(-i omega_out eta) + B exp(+i omega_out eta),

so the endpoint numbers plus, minus = w psi +/- i psi' (w = omega_out) are
2 w A exp(-i w eta) and 2 w B exp(+i w eta), and |B/A| = |minus/plus|.  The
mode equation is the second-order form of the Dirac system i chi' = -H chi,
H = [[M, k], [k, -M]], M = m a(eta), with chi = (psi, v) and
v = -(i psi' + M psi)/k (see `_kernel.pure`).  The endpoint spinor's
projections onto the eigenspinors (k, -(w + mu)) and (w + mu, k) of the
oracle's own H_out are (w + mu) plus/k and minus, by k^2 + mu^2 = w^2, so the
excitation weight is X = (k/(w + mu))^2 |minus/plus|^2 = |B/A|^2 chi^2, with
chi never read from the closed form.  The verification suite compares X with
the closed forms.  Only magnitude ratios are meaningful here; overall phase
conventions of the exact mode functions are not reproduced.

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
from .errors import DegenerateParameterError

_ASYMPTOTE_TOL = 1e-10  # max allowed deviation of a(eta) from its limits
_CHECKPOINT_BACKOFF = 1.0  # matching consistency is checked this far before the end


# Half-width of the integration window, in units of the inverse expansion
# rate.  The window, not the integrator, bounds the oracle's accuracy: at its
# ends a(eta) still differs from its limits by about 2 eps e^(-2 ETA_SPAN), so
# a mode started and read off there leaves a relative error in X of order
# 2 eps e^(-2 ETA_SPAN) / |B/A|.  At span 15 that error is 3.0e-7 at
# (eps, m, k) = (0.5, 5, 2), where |B/A| is 4e-7, and it does not fall as
# REL_TOL tightens; at span 20 it is 3.9e-10.
ETA_SPAN = 15.0
# Step tolerances, tight enough that the norm drift stays far below the
# verification budget.
REL_TOL = 1e-12
ABS_TOL = 1e-14


class MatchResult(namedtuple("MatchResult", ("X", "fit_residual", "norm_drift", "steps"))):
    """Excitation weight read off the oracle and the quality of its match.

    X is the excitation weight read off the endpoint spinor.
    fit_residual measures how well the matched superposition reproduces the
    integrated solution and its derivative one backoff interval before the
    endpoint, relative to |A|.  norm_drift bounds the relative drift of the
    in-mode's Dirac norm over the whole integration.  steps counts the
    integrator's accepted steps over both legs.
    """

    __slots__ = ()


def _check_window(p: ModelParams, span: float) -> None:
    # tanh is odd, so a(-span) - 1 is also the deviation of a(span) from
    # 1 + 2 eps; read at the small end, it carries no rounding of 1 + 2 eps.
    if abs(scale_factor(-span, p.eps) - 1.0) > _ASYMPTOTE_TOL:
        raise DegenerateParameterError(
            f"a(eta) not asymptotic at window ends (span {span}, eps {p.eps})"
        )


def _in_mode_state(omega_in: float, eta0: float) -> tuple[float, float, float, float]:
    # psi = exp(-i omega_in eta), dpsi = -i omega_in psi at eta0.
    psi = cmath.exp(-1j * omega_in * eta0)
    dpsi = -1j * omega_in * psi
    return (psi.real, psi.imag, dpsi.real, dpsi.imag)


def integrate_mode(p: ModelParams) -> MatchResult:
    """Integrate the mode equation across [-ETA_SPAN, ETA_SPAN] and match the
    asymptotic plane waves.  A point out of the oracle's reach, a failed
    integration included, raises DegenerateParameterError."""
    if p.m_tilde <= 0.0:
        raise DegenerateParameterError("integrate_mode requires m_tilde > 0")
    span, rel_tol, abs_tol = ETA_SPAN, REL_TOL, ABS_TOL
    eta0 = -span
    _check_window(p, span)
    f = frequencies(p)

    y = _in_mode_state(f.omega_in, eta0)
    checkpoint = span - _CHECKPOINT_BACKOFF
    try:
        y, d1, steps1 = _kernel.impl.integrate_pair_drift(
            p.eps, p.m_tilde, p.k_tilde, eta0, checkpoint, y, rel_tol, abs_tol
        )
        psi_c = complex(y[0], y[1])
        dpsi_c = complex(y[2], y[3])
        y, d2, steps2 = _kernel.impl.integrate_pair_drift(
            p.eps, p.m_tilde, p.k_tilde, checkpoint, span, y, rel_tol, abs_tol
        )
    except RuntimeError as exc:  # the kernel's message is the cause alone
        raise DegenerateParameterError(f"{exc} at {p}") from None
    psi = complex(y[0], y[1])
    dpsi = complex(y[2], y[3])

    w = f.omega_out
    plus, minus = w * psi + 1j * dpsi, w * psi - 1j * dpsi
    if plus == 0:
        raise DegenerateParameterError("matched transmission coefficient vanished")

    # Consistency of the match: the plane waves, carried back to the
    # checkpoint, must reproduce the solution there, where they were not fitted.
    rot = cmath.exp(1j * w * (span - checkpoint))
    fwd, back = plus * rot, minus / rot
    residual = max(
        abs(fwd + back - 2.0 * w * psi_c), abs(fwd - back - 2j * dpsi_c)
    ) / abs(plus)

    return MatchResult(
        X=(p.k_tilde / (w + f.mu_out)) ** 2 * abs(minus / plus) ** 2,
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
