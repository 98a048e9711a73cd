"""Kinematics layer: scale factor, frequencies, parameter validation."""

import math
import sys
import threading

import numpy as np
import pytest

from cosmo_qfi import CosmoQfiError, ModelParams, SweepSpec, frequencies, scale_factor, sweep
from cosmo_qfi import cosmology
from cosmo_qfi.cosmology import domega_out_deps


def test_scale_factor_values():
    assert scale_factor(0.0, 1.0) == 2.0
    assert scale_factor(-1e6, 1.0) == 1.0
    assert scale_factor(1e6, 1.0) == 3.0


def test_scale_factor_rejects_bad_params():
    with pytest.raises(ValueError):
        scale_factor(0.0, -1.0)


def test_frequencies_unit_point():
    f = frequencies(ModelParams(1.0, 1.0, 1.0))
    assert math.isclose(f.omega_in, math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(f.omega_out, math.sqrt(10.0), rel_tol=1e-15)
    assert f.mu_out == 3.0
    # chi = (sqrt(10) - 3)/1, evaluated in its stable form
    assert math.isclose(f.chi_abs, math.sqrt(10.0) - 3.0, rel_tol=1e-13)
    omega_plus = 0.5 * (math.sqrt(10.0) + math.sqrt(2.0))
    omega_minus = 0.5 * (math.sqrt(10.0) - math.sqrt(2.0))
    assert math.isclose(f.zeta_pp, omega_plus + 1.0, rel_tol=1e-15)
    assert math.isclose(f.zeta_pm, omega_plus - 1.0, rel_tol=1e-14)
    assert math.isclose(f.zeta_mp, omega_minus + 1.0, rel_tol=1e-15)
    assert math.isclose(f.zeta_mm, omega_minus - 1.0, rel_tol=1e-12)


def test_frequencies_massless_collapse():
    f = frequencies(ModelParams(3.0, 0.0, 2.0))
    assert f.omega_in == f.omega_out == 2.0
    assert f.chi_abs == 1.0
    assert f.mu_out == 0.0
    assert f.zeta_pp == f.zeta_pm == 2.0
    assert f.zeta_mm == f.zeta_mp == 0.0


def test_frequencies_no_expansion_limit():
    f = frequencies(ModelParams(1e-12, 1.0, 1.0))
    assert math.isclose(f.omega_out, f.omega_in, rel_tol=1e-11)
    assert math.isclose(f.zeta_pp, f.omega_in, rel_tol=1e-11)
    assert math.isclose(f.zeta_pm, f.omega_in, rel_tol=1e-11)
    assert 0.0 < f.zeta_mp < 1e-11
    assert -1e-11 < f.zeta_mm < 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(math.nan, 1.0, 1.0)


def test_frequencies_overflow_is_degenerate():
    with pytest.raises(CosmoQfiError):
        frequencies(ModelParams(1e300, 1e10, 1.0))


_GRID = np.geomspace(0.01, 100.0, 10)


def test_grid_invariants():
    # omega_out monotone in eps; chi in (0,1) for m > 0; zeta_pm >= m;
    # zeta_pp and zeta_mp positive.
    for m in _GRID:
        for k in _GRID:
            prev = None
            for eps in _GRID:
                f = frequencies(ModelParams(float(eps), float(m), float(k)))
                assert f.omega_out >= f.omega_in > 0.0
                assert 0.0 < f.chi_abs < 1.0
                assert f.zeta_pp > 0.0 and f.zeta_mp > 0.0
                assert f.zeta_pm >= m * (1.0 - 1e-15)
                if prev is not None:
                    assert f.omega_out > prev
                prev = f.omega_out


def test_zeta_mm_never_positive():
    # omega_minus < m*eps strictly for k > 0, so zeta_mm stays negative and
    # only reaches zero in the k -> 0 limit.
    for m in _GRID:
        for k in _GRID:
            for eps in _GRID:
                f = frequencies(ModelParams(float(eps), float(m), float(k)))
                assert f.zeta_mm < 0.0


def test_domega_out_deps_matches_difference_quotient():
    p = ModelParams(1.3, 0.7, 2.1)
    h = 1e-6
    fd = (
        frequencies(ModelParams(p.eps + h, p.m_tilde, p.k_tilde)).omega_out
        - frequencies(ModelParams(p.eps - h, p.m_tilde, p.k_tilde)).omega_out
    ) / (2.0 * h)
    assert math.isclose(domega_out_deps(p), fd, rel_tol=1e-9)


class _CountingMath:
    """`math`, counting the calls to `hypot`: two per frequency set computed."""

    def __init__(self):
        self.hypot_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *args):
        self.hypot_calls += 1
        return math.hypot(*args)


def test_a_sweep_row_computes_one_frequency_set(monkeypatch):
    # a row calls frequencies six times with one ModelParams object
    monkeypatch.delenv("COSMO_QFI_THREADS", raising=False)
    counting = _CountingMath()
    monkeypatch.setattr(cosmology, "math", counting)
    rows = sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, ModelParams(1.0, 1.0, 1.0)))
    assert len(rows) == 64
    assert counting.hypot_calls == 2 * 64


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (0.7, 1.3, 2.0), (1.0, 0.0, 1.0),
                                   (1e-8, 1e6, 1e-3)])
def test_a_repeated_call_is_a_fresh_evaluation_to_the_bit(point):
    p, twin = ModelParams(*point), ModelParams(*point)
    first = frequencies(p)
    assert frequencies(p) is first
    fresh = frequencies(twin)  # equal, but another object: computed again
    assert fresh is not first
    assert [x.hex() for x in fresh] == [x.hex() for x in first]


def test_a_call_inside_another_calls_computation_leaves_both_right(monkeypatch):
    # what a thread switch in the middle of a computation does, made
    # certain: the memo may end up holding either pair, never a mix of both
    a, b = ModelParams(0.7, 1.3, 2.0), ModelParams(2.0, 0.4, 0.9)
    want_a, want_b = tuple(frequencies(ModelParams(*a))), tuple(frequencies(ModelParams(*b)))
    inner = []

    class Interrupting(_CountingMath):
        def hypot(self, *args):
            if not inner:
                inner.append(None)
                inner.append(frequencies(b))
            return super().hypot(*args)

    monkeypatch.setattr(cosmology, "math", Interrupting())
    assert tuple(frequencies(a)) == want_a
    assert tuple(inner[1]) == want_b
    assert tuple(frequencies(b)) == want_b
    assert tuple(frequencies(a)) == want_a


def test_threads_calling_at_once_each_get_their_own_frequencies():
    points = [ModelParams(0.5 + i, 1.0 + 0.1 * i, 2.0) for i in range(8)]
    expected = [tuple(frequencies(ModelParams(*p))) for p in points]
    wrong = []

    def run(i):
        for _ in range(2000):
            if tuple(frequencies(points[i])) != expected[i]:
                wrong.append(i)
                return

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
