"""The reduced one-mode probe state and its estimation figures of merit.

The probe is the particle mode left after tracing out the antiparticle
partner: a two-outcome diagonal state with weights 1/(1+X) and X/(1+X),
where X is the excitation weight from the Bogoliubov layer.  Because the
eigenvectors do not move with the expansion parameter, the eigenprojector
measurement is optimal and the classical Fisher information of (p0, p1)
equals the quantum Fisher information.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bogoliubov import ANALYTIC, excitation_weight
from .cosmology import ModelParams
from .errors import IdentityCheckError

DEFAULT_TRIALS = 10**11  # repetition count used for the published bound curves

_IDENTITY_RTOL = 1e-10


class ProbeState(namedtuple("ProbeState", ("p0", "p1", "X", "dX"))):
    """Two-outcome diagonal probe state with its excitation weight."""

    __slots__ = ()


class EstimationResult(namedtuple(
        "EstimationResult", ("qfi", "state", "bound", "trials", "derivative_method"))):
    """Fisher information and Cramer-Rao bound for a parameter point.

    bound is the lower bound on the squared error after `trials` repetitions,
    1/(trials * qfi); it is +inf when the state carries no information.
    state is the probe state the figures were computed from.
    """

    __slots__ = ()


def probe(p: ModelParams, deriv_method: str = ANALYTIC) -> ProbeState:
    """Reduced particle-mode state at the given channel parameters."""
    cf = excitation_weight(p, deriv_method)
    p0 = 1.0 / (1.0 + cf.X)
    return ProbeState(p0, cf.X * p0, cf.X, cf.dX_deps)


def state_entropy(state: ProbeState) -> float:
    """Von Neumann entropy of the probe state in nats (0 log 0 = 0)."""
    s = 0.0
    for w in (state.p0, state.p1):
        if w > 0.0:
            s -= w * math.log(w)
    return s


def entanglement_entropy(p: ModelParams) -> float:
    """Entropy of the reduced particle mode, i.e. the particle-antiparticle
    entanglement generated by the expansion.  Zero for m_tilde = 0."""
    return state_entropy(probe(p))


def qfi_eps(
    p: ModelParams,
    trials: float = DEFAULT_TRIALS,
    deriv_method: str = ANALYTIC,
) -> EstimationResult:
    """Quantum Fisher information for the expansion parameter.

    Evaluates the two-outcome closed form literally,

        (1+X) (d p0)^2 + ((1+X)/X) (d p1)^2,

    and cross-checks it against the simplified (dX)^2 / (X (1+X)^2) before
    returning; disagreement beyond rounding (a broken derivative, either form
    leaving the range of doubles) or a non-finite literal form raises
    IdentityCheckError.  X = 0 returns zero information by convention (the
    derivative vanishes at least as fast as sqrt(X) there).
    """
    if not (math.isfinite(trials) and trials >= 1):
        raise ValueError(f"trials must be finite and >= 1, got {trials}")
    st = probe(p, deriv_method)
    X, dX = st.X, st.dX
    if X == 0.0:
        qfi = 0.0
    else:
        denom = (1.0 + X) * (1.0 + X)
        dp0 = -dX / denom
        dp1 = dX / denom
        qfi = (1.0 + X) * dp0 * dp0 + (1.0 + X) / X * dp1 * dp1
        # dX/X first: dX*dX underflows to zero where the QFI itself is normal.
        simplified = dX / X * dX / denom
        # Written so that a NaN in either form, or an overflowed literal form
        # (at subnormal X, (1+X)/X is inf), fails the check.
        diff = abs(qfi - simplified)
        scale = max(abs(qfi), abs(simplified))
        if not (math.isfinite(qfi) and diff <= _IDENTITY_RTOL * scale):
            raise IdentityCheckError(
                f"QFI forms disagree: literal={qfi!r} simplified={simplified!r}"
            )
    bnd = 1.0 / (trials * qfi) if qfi > 0.0 else math.inf
    return EstimationResult(qfi, st, bnd, trials, deriv_method)
