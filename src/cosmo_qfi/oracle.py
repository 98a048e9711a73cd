"""Independent verification of the closed-form mixing ratio.

Integrates the mode equation directly across the expansion epoch and reads
the excitation weight off the asymptotic eigenspinors.  The mode equation is
the second-order form of the Dirac system chi' = i H chi,
H = [[M, k], [k, -M]], M = m a(eta), and the oracle advances the spinor
chi = (u, v), u = psi, v = -(i psi' + M psi)/k (see `_kernel.pure`).  With
w = hypot(k, M), the eigenspinors of H are (k, -(w + M)) for -w and
(w + M, k) for +w.  The in-mode, which enters as exp(-i omega_in eta), starts
as the first of them at the window's start.  At the window's end the
spinor's projections onto the two carry the phases exp(-i w eta) and
exp(+i w eta): they are A and B up to the eigenspinors' common norm, so the
excitation weight is X = |B/A|^2 = |B/A|_mixing^2 chi^2, with chi never read
from the closed form.  Both ends take H where the window ends, not its
limits: at (eps, m, k) = (400, 5, 0.5) that leaves 1.2e-5 in X where the
limits' eigenspinors leave 1.7e-4.  The verification suite compares X with
the closed forms.  Only magnitude ratios are meaningful here; overall phase
conventions of the exact mode functions are not reproduced.

Only the in-mode is integrated.  H is Hermitian, so the Dirac norm
|u|^2 + |v|^2 of that one solution is exactly conserved; the Magnus step is
exactly unitary, so the norm's drift gauges the arithmetic.

The oracle runs in one fixed configuration: the window [-ETA_SPAN, ETA_SPAN]
is a module constant, read at call time, and the step count follows from the
parameter point; neither is a caller option.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import _kernel
from .cosmology import ModelParams, scale_factor
from .errors import CosmoQfiError

_ASYMPTOTE_TOL = 1e-10  # max allowed deviation of a(eta) from its limits
_CHECKPOINT_BACKOFF = 1.0  # matching consistency is checked this far before the end


# Half-width of the integration window, in units of the inverse expansion
# rate.  At its ends a(eta) still differs from its limits by about
# 2 eps e^(-2 ETA_SPAN), so a mode started and read off there leaves a
# relative error in X of order 2 eps e^(-2 ETA_SPAN) / |B/A|: 3.0e-7 at
# (eps, m, k) = (0.5, 5, 2), where |B/A| is 4e-7, at span 15, and 3.9e-10 at
# span 20.
ETA_SPAN = 15.0
# The step rule: h = min(0.01, 0.5 / omega_out), as steps per unit of eta.
# The Magnus series converges only for h ||H|| < pi, and ||H|| <= omega_out
# over the window; with a flat 100 steps per unit, (300, 1, 1) was off by
# 1.6e-3.
_STEPS_PER_UNIT = 100.0
# The finest grid the oracle runs, over the whole window; at span 15 it is
# reached at omega_out of about 83 000.
_MAX_STEPS = 5_000_000


class MatchResult(namedtuple("MatchResult", ("X", "fit_residual", "norm_drift", "steps"))):
    """Excitation weight read off the oracle and the quality of its match.

    X is the excitation weight read off the endpoint spinor.
    fit_residual measures how well the matched eigenspinor components,
    carried back one backoff interval before the endpoint, reproduce the
    integrated spinor there, relative to |A|.  norm_drift bounds the
    relative drift of the in-mode's Dirac norm over the whole integration.
    steps is the grid size, the Magnus steps over both legs.
    """

    __slots__ = ()


def _check_window(p: ModelParams, span: float) -> None:
    # tanh is odd, so a(-span) - 1 is also the deviation of a(span) from
    # 1 + 2 eps; read at the small end, it carries no rounding of 1 + 2 eps.
    if abs(scale_factor(-span, p.eps) - 1.0) > _ASYMPTOTE_TOL:
        raise CosmoQfiError(
            f"a(eta) not asymptotic at window ends (span {span}, eps {p.eps})"
        )


def _eigen(p: ModelParams, eta: float) -> tuple[float, float]:
    """(w + M, w) of H at eta, M = m a(eta) and w = hypot(k, M)."""
    mass = p.m_tilde * scale_factor(eta, p.eps)
    w = math.hypot(p.k_tilde, mass)
    return w + mass, w


def integrate_mode(p: ModelParams) -> MatchResult:
    """Integrate the mode equation across [-ETA_SPAN, ETA_SPAN] and match the
    asymptotic eigenspinors.  A point out of the oracle's reach, one whose
    grid would exceed the step cap or whose figures are not finite included,
    raises CosmoQfiError."""
    if p.m_tilde <= 0.0:
        raise CosmoQfiError("integrate_mode requires m_tilde > 0")
    span = ETA_SPAN
    _check_window(p, span)
    checkpoint = span - _CHECKPOINT_BACKOFF
    k, (wm0, _), (wm, w) = p.k_tilde, _eigen(p, -span), _eigen(p, span)
    rate = max(_STEPS_PER_UNIT, 2.0 * w)
    if 2.0 * span * rate > _MAX_STEPS:
        raise CosmoQfiError(
            f"oracle grid exceeds {_MAX_STEPS} steps (omega_out {w}) at {p}")

    y, d1, steps1 = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, k, -span, checkpoint, (k, 0.0, -wm0, 0.0),
        math.ceil((span + checkpoint) * rate))
    u, v = complex(y[0], y[1]), complex(y[2], y[3])
    a_c, b_c = k * u - wm * v, wm * u + k * v
    y, d2, steps2 = _kernel.impl.integrate_pair_drift(
        p.eps, p.m_tilde, k, checkpoint, span, y, math.ceil(_CHECKPOINT_BACKOFF * rate))
    u, v = complex(y[0], y[1]), complex(y[2], y[3])
    a, b = k * u - wm * v, wm * u + k * v
    if a == 0:
        raise CosmoQfiError("matched transmission coefficient vanished")

    # Consistency of the match: the eigenspinor components, carried back to
    # the checkpoint, must reproduce the solution there, where they were not
    # fitted.
    rot = cmath.exp(1j * w * _CHECKPOINT_BACKOFF)
    residual = max(abs(a * rot - a_c), abs(b / rot - b_c)) / abs(a)
    X = abs(b / a) ** 2
    # Leg 2 measures its drift against the checkpoint norm N_c, so
    # |N - N_0| <= d2 N_c + d1 N_0 <= (d1 + d2 (1 + d1)) N_0: the combined
    # figure never under-reports the drift from the start.
    drift = d1 + d2 * (1.0 + d1)
    if not (math.isfinite(X) and math.isfinite(drift)):
        raise CosmoQfiError(f"oracle X={X}, norm drift={drift} at {p}")
    return MatchResult(X=X, fit_residual=residual, norm_drift=drift, steps=steps1 + steps2)


def wronskian_drift(p: ModelParams) -> float:
    """Max relative drift of the in-mode's Dirac norm: integrate_mode(p).norm_drift.

    The norm is exactly conserved whatever the coefficient function, and
    every Magnus step is unitary, so its drift gauges the arithmetic: a step
    that is not unitary shows in it.  The name is from the pair
    Wronskian the norm replaced; `perfbench/` traces the function by it.
    """
    return integrate_mode(p).norm_drift
