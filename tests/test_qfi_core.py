"""Classical Fisher information of discrete outcome families."""

import math

import numpy as np
import pytest

from cosmo_qfi import (
    ModelParams,
    OutcomeDistribution,
    SingularOutcomeError,
    classical_fisher,
    qfi_eps,
)


def test_classical_fisher_symmetric_binary():
    d = OutcomeDistribution((0.5, 0.5), (0.3, -0.3))
    assert math.isclose(classical_fisher(d), 4.0 * 0.3**2, rel_tol=1e-15)


def test_classical_fisher_insensitive_distribution():
    assert classical_fisher(OutcomeDistribution((1.0, 0.0), (0.0, 0.0))) == 0.0


def test_classical_fisher_two_outcome_closed_form():
    p, dp = 0.3, 0.1
    d = OutcomeDistribution((p, 1.0 - p), (dp, -dp))
    assert math.isclose(classical_fisher(d), dp * dp / (p * (1.0 - p)), rel_tol=1e-14)


def test_classical_fisher_singular_outcome():
    with pytest.raises(SingularOutcomeError):
        classical_fisher(OutcomeDistribution((1.0, 0.0), (0.1, -0.1)))


def test_outcome_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution((0.6, 0.6), (0.0, 0.0))
    with pytest.raises(ValueError):
        OutcomeDistribution((0.5, 0.5), (0.2, 0.2))
    with pytest.raises(ValueError):
        OutcomeDistribution((1.2, -0.2), (0.0, 0.0))


def test_cramer_rao_ordering_under_coarse_graining():
    # any 2-outcome coarse-graining of the diagonal probe family carries at
    # most the quantum Fisher information
    est = qfi_eps(ModelParams(0.8, 0.6, 1.3))
    st, full = est.state, est.qfi
    dp0 = -st.dX / (1.0 + st.X) ** 2
    rng = np.random.default_rng(23)
    for _ in range(200):
        t0, t1 = rng.uniform(0.0, 1.0, size=2)
        q0 = t0 * st.p0 + t1 * st.p1
        dq0 = t0 * dp0 + t1 * (-dp0)
        try:
            coarse = classical_fisher(OutcomeDistribution((q0, 1.0 - q0), (dq0, -dq0)))
        except SingularOutcomeError:
            continue
        assert coarse <= full + 1e-10


def test_nonnegativity_random_families():
    rng = np.random.default_rng(5)
    for _ in range(100):
        raw = rng.uniform(0.0, 1.0, size=4)
        probs = tuple(raw / raw.sum())
        d = rng.normal(0.0, 0.1, size=4)
        d -= d.mean()
        dprobs = tuple(d)
        assert classical_fisher(OutcomeDistribution(probs, dprobs)) >= 0.0
