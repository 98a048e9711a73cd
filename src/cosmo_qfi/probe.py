"""The reduced one-mode probe state and its estimation figures of merit.

The probe is the particle mode left after tracing out the antiparticle
partner: a two-outcome diagonal state with weights 1/(1+X) and X/(1+X),
where X is the excitation weight.  The Bogoliubov layer builds that state,
`ProbeState`, in `excitation_weight`.  Because the eigenvectors do not move
with the expansion parameter, the eigenprojector measurement is optimal and
the classical Fisher information of (p0, p1) equals the quantum Fisher
information.  `qfi_eps` evaluates that sum as it stands; `verify` checks it
against the simplified (dX)^2 / (X (1+X)^2).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bogoliubov import ANALYTIC, ProbeState, excitation_weight
from .cosmology import ModelParams
from .errors import DegenerateParameterError

DEFAULT_TRIALS = 10**11  # repetition count used for the published bound curves


class EstimationResult(namedtuple("EstimationResult", ("qfi", "state", "bound"))):
    """Fisher information and Cramer-Rao bound for a parameter point.

    bound is the lower bound on the squared error after the caller's `trials`
    repetitions, 1/(trials * qfi); it is +inf when the state carries no
    information.  state is the probe state the figures were computed from.
    """

    __slots__ = ()


def probe(p: ModelParams, deriv_method: str = ANALYTIC) -> ProbeState:
    """Reduced particle-mode state, `excitation_weight`'s passed on: kept a
    function because the benchmark in `perfbench/` traces and counts it."""
    return excitation_weight(p, deriv_method)


def state_entropy(state: ProbeState) -> float:
    """Von Neumann entropy of the probe state in nats (0 log 0 = 0)."""
    s = 0.0
    for w in (state.p0, state.p1):
        if w > 0.0:
            s -= w * math.log(w)
    return s


def qfi_eps(
    p: ModelParams,
    trials: float = DEFAULT_TRIALS,
    deriv_method: str = ANALYTIC,
) -> EstimationResult:
    """Quantum Fisher information for the expansion parameter.

    Evaluates the two-outcome sum over i of (d p_i)^2 / p_i literally,

        (1+X) (d p0)^2 + ((1+X)/X) (d p1)^2,  d p1 = -d p0 = dX / (1+X)^2.

    A non-finite result (at subnormal X, (1+X)/X overflows) raises
    DegenerateParameterError naming X, and so does a positive QFI too small
    for 1/(trials * qfi) to be finite.  X = 0 returns zero information by
    convention (the derivative vanishes at least as fast as sqrt(X) there).
    """
    if not (math.isfinite(trials) and trials >= 1):
        raise ValueError(f"trials must be finite and >= 1, got {trials}")
    st = probe(p, deriv_method)
    X, dX = st.X, st.dX
    if X == 0.0:
        qfi = 0.0
    else:
        dp = dX / ((1.0 + X) * (1.0 + X))
        qfi = (1.0 + X) * dp * dp + (1.0 + X) / X * dp * dp
        if not math.isfinite(qfi):
            raise DegenerateParameterError(
                f"QFI is {qfi!r} at X={X!r}: the excitation weight is too "
                "small for the two-outcome form"
            )
    bnd = 1.0 / (trials * qfi) if qfi > 0.0 else math.inf
    if bnd == math.inf and qfi > 0.0:
        raise DegenerateParameterError(
            f"bound 1/(trials*qfi) overflows at qfi={qfi!r}, trials={trials!r}"
        )
    return tuple.__new__(EstimationResult, (qfi, st, bnd))
