"""Fisher-information machinery for discrete outcome families.

Covers the two pieces the probe state needs: classical Fisher information
of an outcome distribution and the spectral form of the quantum Fisher
information for families that need not be full rank.  Zero-eigenvalue terms
follow the usual spectral summation convention (they are dropped, and 0/0
outcomes contribute nothing).
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


class SpectralFamily(namedtuple(
        "SpectralFamily", ("eigenvalues", "deigenvalues", "overlap_terms"))):
    """Eigenvalues, their derivatives, and eigenvector overlap strengths.

    overlap_terms[m][n] holds |<psi_m | d psi_n>|^2 and must be symmetric
    with nonnegative entries.
    """

    __slots__ = ()

    def __new__(cls, eigenvalues: tuple[float, ...], deigenvalues: tuple[float, ...],
                overlap_terms: tuple[tuple[float, ...], ...]):
        eigenvalues = tuple(float(x) for x in eigenvalues)
        deigenvalues = tuple(float(x) for x in deigenvalues)
        overlap_terms = tuple(tuple(float(x) for x in row) for row in overlap_terms)
        n = len(eigenvalues)
        if len(deigenvalues) != n or len(overlap_terms) != n:
            raise ValueError("inconsistent family dimensions")
        for lam in eigenvalues:
            if lam < 0.0 or not math.isfinite(lam):
                raise ValueError(f"eigenvalue {lam} negative or non-finite")
        if abs(math.fsum(eigenvalues) - 1.0) > _PROB_SUM_TOL:
            raise ValueError("eigenvalues do not sum to 1")
        for i, row in enumerate(overlap_terms):
            if len(row) != n:
                raise ValueError("overlap_terms must be square")
            for j, w in enumerate(row):
                if w < 0.0:
                    raise ValueError("overlap_terms must be nonnegative")
                if w != overlap_terms[j][i]:
                    raise ValueError("overlap_terms must be symmetric")
        return tuple.__new__(cls, (eigenvalues, deigenvalues, overlap_terms))

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
            total += dprob * dprob / prob
        elif dprob != 0.0:
            raise SingularOutcomeError(
                f"outcome with zero probability has derivative {dprob}"
            )
    return total


def qfi_spectral(f: SpectralFamily) -> float:
    """Quantum Fisher information from the spectral decomposition.

    First term sums (d lambda)^2/lambda over nonzero eigenvalues; second term
    sums 2 (lambda_m - lambda_n)^2/(lambda_m + lambda_n) * overlap over all
    ordered pairs m != n with lambda_m + lambda_n != 0.
    """
    total = 0.0
    for lam, dlam in zip(f.eigenvalues, f.deigenvalues):
        if lam != 0.0:
            total += dlam * dlam / lam
    n = len(f.eigenvalues)
    for m in range(n):
        for k in range(n):
            if m == k:
                continue
            denom = f.eigenvalues[m] + f.eigenvalues[k]
            if denom == 0.0:
                continue
            diff = f.eigenvalues[m] - f.eigenvalues[k]
            total += 2.0 * diff * diff / denom * f.overlap_terms[m][k]
    return total

