"""Fisher machinery: classical and spectral information."""

import math

import numpy as np
import pytest

from cosmo_qfi import (
    ModelParams,
    OutcomeDistribution,
    SingularOutcomeError,
    SpectralFamily,
    classical_fisher,
    probe,
    qfi_spectral,
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


def test_qfi_spectral_constant_family():
    fam = SpectralFamily((0.4, 0.6), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    assert qfi_spectral(fam) == 0.0


def test_qfi_spectral_diagonal_equals_classical():
    probs, dprobs = (0.2, 0.5, 0.3), (0.05, -0.02, -0.03)
    fam = SpectralFamily(probs, dprobs, tuple((0.0,) * 3 for _ in range(3)))
    d = OutcomeDistribution(probs, dprobs)
    assert qfi_spectral(fam) == classical_fisher(d)


def test_qfi_spectral_two_level_with_overlap():
    # lambda = (0.3, 0.7), dlambda = (0.1, -0.1), overlap 0.05:
    # 0.01/0.3 + 0.01/0.7 + 2 * 2 * 0.16 * 0.05 = 209/2625, frozen by direct
    # substitution into the spectral formula.
    fam = SpectralFamily((0.3, 0.7), (0.1, -0.1), ((0.0, 0.05), (0.05, 0.0)))
    assert math.isclose(qfi_spectral(fam), 209.0 / 2625.0, rel_tol=1e-14)


def test_qfi_spectral_skips_zero_eigenvalues():
    fam = SpectralFamily((1.0, 0.0), (0.1, -0.1), ((0.0, 0.2), (0.2, 0.0)))
    # first sum keeps only lambda=1; cross terms use (1-0)^2/(1+0)
    assert math.isclose(qfi_spectral(fam), 0.01 + 2.0 * 2.0 * 0.2, rel_tol=1e-14)


def test_spectral_family_validation():
    with pytest.raises(ValueError):
        SpectralFamily((0.5, 0.5), (0.0, 0.0), ((0.0, 0.1), (0.2, 0.0)))  # asymmetric
    with pytest.raises(ValueError):
        SpectralFamily((0.5, 0.5), (0.0, 0.0), ((0.0, -0.1), (-0.1, 0.0)))
    with pytest.raises(ValueError):
        SpectralFamily((-0.1, 1.1), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))


def test_cramer_rao_ordering_under_coarse_graining():
    # any 2-outcome coarse-graining of the diagonal probe family carries at
    # most the spectral information
    st = probe(ModelParams(0.8, 0.6, 1.3))
    denom = (1.0 + st.X) ** 2
    dp0 = -st.dX / denom
    fam = SpectralFamily((st.p0, st.p1), (dp0, -dp0), ((0.0, 0.0), (0.0, 0.0)))
    full = qfi_spectral(fam)
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
        w = abs(rng.normal(0.0, 0.05))
        fam = SpectralFamily(
            (probs[0], probs[1], probs[2], probs[3]),
            dprobs,
            tuple(
                tuple(w if i != j else 0.0 for j in range(4)) for i in range(4)
            ),
        )
        assert qfi_spectral(fam) >= 0.0
