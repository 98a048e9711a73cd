"""Classical Fisher information of a discrete outcome family.

`verify` measures the probe in its eigenbasis and compares the classical
Fisher information of that outcome distribution with the quantum Fisher
information `qfi_eps` reports: equality is the paper's claim that the
eigenprojector measurement is optimal.  Outcomes with p = 0 and dp = 0
contribute nothing (0/0 terms are dropped).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import SingularOutcomeError

_PROB_SUM_TOL = 1e-12
_DPROB_SUM_TOL = 1e-10


class OutcomeDistribution(namedtuple("OutcomeDistribution", ("probs", "dprobs"))):
    """Outcome probabilities and their parameter derivatives."""

    __slots__ = ()

    def __new__(cls, probs: tuple[float, ...], dprobs: tuple[float, ...]):
        probs = tuple(float(x) for x in probs)
        dprobs = tuple(float(x) for x in dprobs)
        if len(probs) != len(dprobs):
            raise ValueError("probs and dprobs must have equal length")
        if not probs:
            raise ValueError("empty distribution")
        for x in probs:
            if not (0.0 <= x <= 1.0) or not math.isfinite(x):
                raise ValueError(f"probability {x} outside [0, 1]")
        if abs(math.fsum(probs) - 1.0) > _PROB_SUM_TOL:
            raise ValueError("probabilities do not sum to 1")
        if abs(math.fsum(dprobs)) > _DPROB_SUM_TOL:
            raise ValueError("probability derivatives do not sum to 0")
        return tuple.__new__(cls, (probs, dprobs))

    @classmethod
    def _make(cls, iterable):
        # Through the constructor, so `_replace` validates too.
        return cls(*iterable)


def classical_fisher(d: OutcomeDistribution) -> float:
    """Sum of dp^2/p over outcomes with p > 0.

    Outcomes with p = 0 and dp = 0 contribute nothing; p = 0 with dp != 0 is
    a singular outcome and raises.
    """
    total = 0.0
    for prob, dprob in zip(d.probs, d.dprobs):
        if prob > 0.0:
            # dp/p first: dp*dp underflows to zero where the information is normal.
            total += dprob / prob * dprob
        elif dprob != 0.0:
            raise SingularOutcomeError(
                f"outcome with zero probability has derivative {dprob}"
            )
    return total
