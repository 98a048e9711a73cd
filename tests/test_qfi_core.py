"""Classical Fisher information of the eigenprojector measurement."""

import math

import numpy as np

from cosmo_qfi import ModelParams, ProbeState, classical_fisher, qfi_eps


def _state(p0: float, dp1: float) -> ProbeState:
    # the probe state with outcomes (p0, 1 - p0) and dp1 = -dp0 = dX/(1+X)^2
    X = (1.0 - p0) / p0
    return ProbeState(p0, 1.0 - p0, X, dp1 * (1.0 + X) ** 2)


def test_classical_fisher_symmetric_binary():
    assert math.isclose(classical_fisher(_state(0.5, 0.3)), 4.0 * 0.3**2, rel_tol=1e-15)


def test_classical_fisher_insensitive_distribution():
    assert classical_fisher(ProbeState(1.0, 0.0, 0.0, 0.0)) == 0.0


def test_classical_fisher_two_outcome_closed_form():
    p, dp = 0.3, 0.1
    cfi = classical_fisher(_state(p, dp))
    assert math.isclose(cfi, dp * dp / (p * (1.0 - p)), rel_tol=1e-14)


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
        coarse = dq0 / q0 * dq0 + dq0 / (1.0 - q0) * dq0
        assert coarse <= full + 1e-10
