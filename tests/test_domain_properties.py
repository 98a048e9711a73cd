"""Properties of the `point`, `sweep` and `optimize` paths over every finite double.

The admitted domain is every finite eps > 0, m_tilde >= 0 and k_tilde > 0.
`eps`, `m_tilde` and `k_tilde` are drawn log-uniform over [5e-324, 1.7e308],
with `m_tilde = 0` as its own case and a third of the draws near the ray
k = (1 + 2 eps) m, where the QFI approaches its supremum 1/(1 + 2 eps)^2 in
the sudden limit (acceptance criterion 11); a ray draw whose k overflows is
not a point of the domain and is discarded.  Every point either raises a
typed `CosmoQfiError` or yields finite, non-negative figures that respect
that supremum; a derivative only 0.1 % too large breaks the last property
near the ray.  The weight grows with eps, so dX >= 0, and dX == 0 only where
the QFI is 0: where X is tiny, X * d ln X/d eps can underflow to 0 though X
does not.  Sweeps and optimizations run over log-uniform boxes of the same
range: each sweep row is such a point or the documented NaN row, and an
optimization returns such a point or raises a typed error.  A grid across
every finite double holds both derivative routes to "evaluated or typed".
"""

import itertools
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cosmo_qfi import (
    ANALYTIC, DEFAULT_TRIALS, FINITE_DIFFERENCE, CosmoQfiError, ModelParams, SweepSpec,
    optimize, qfi_eps, state_entropy, sweep,
)

LOG_RANGE = (math.log(5e-324), math.log(1.7e308))
SUPREMUM_SLACK = 1e-12
# A subnormal QFI is a whole number of 5e-324 steps; rounding takes it up to
# 8e-5 of its value, a step or two, past the supremum.
SUBNORMAL_STEPS = 4

log_uniform = st.floats(*LOG_RANGE).map(math.exp)

points = st.one_of(
    st.tuples(log_uniform, log_uniform, log_uniform),
    st.tuples(log_uniform, st.just(0.0), log_uniform),
    # k = (1 + 2 eps) m within 1 %: the QFI is stationary across the ray
    st.tuples(log_uniform, log_uniform, st.floats(-0.01, 0.01)).map(
        lambda t: (t[0], t[1], (1.0 + 2.0 * t[0]) * t[1] * math.exp(t[2]))).filter(
        lambda t: math.isfinite(t[2])),
)


def _assert_below_supremum(eps, qfi):
    if qfi >= sys.float_info.min:
        # capped: past eps ~ 6.7e153 the square is inf, and inf * 0 is NaN;
        # there the supremum is subnormal, so a normal QFI fails either way
        assert min(1.0 + 2.0 * eps, 1e154) ** 2 * qfi <= 1.0 + SUPREMUM_SLACK
    else:
        assert qfi <= 1.0 / (1.0 + 2.0 * eps) / (1.0 + 2.0 * eps) + SUBNORMAL_STEPS * 5e-324


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(points)
# QFI 1e-322 > 0, whose bound 1/(trials*qfi) overflows
@example((39059.88820123089, 109.29129654872689, 0.03304315365917624))
# the tails' product in d ln X/d eps is 3.8e-321, subnormal, and dividing
# by it gave a QFI 5e-4 above the supremum
@example((8.575451599375763e-96, 2.1451969913307e-114, 2.156256074799702e-114))
def test_point_path_is_finite_or_typed_and_below_the_supremum(point):
    eps, m, k = point
    try:
        est = qfi_eps(ModelParams(eps, m, k))
        entropy = state_entropy(est.state)
    except CosmoQfiError:
        return
    assert math.isfinite(est.qfi) and est.qfi >= 0.0
    assert math.isfinite(entropy)
    assert est.state.dX > 0.0 or est.state.dX == 0.0 == est.qfi
    assert (est.bound == math.inf) == (est.qfi == 0.0)
    _assert_below_supremum(eps, est.qfi)


# A swept or optimized coordinate over [lo, hi], with the other two fixed.
boxes = st.tuples(
    st.sampled_from(("eps", "m_tilde", "k_tilde")),
    log_uniform, log_uniform,
    st.tuples(log_uniform, log_uniform, log_uniform).map(lambda t: ModelParams(*t)),
)


def _assert_evaluated(eps, qfi, bound):
    assert math.isfinite(qfi) and qfi >= 0.0
    assert bound == (1.0 / (DEFAULT_TRIALS * qfi) if qfi > 0.0 else math.inf)
    _assert_below_supremum(eps, qfi)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(boxes)
def test_sweep_rows_are_finite_or_the_nan_row(box):
    variable, a, b, fixed = box
    assume(a != b)
    rows = sweep(SweepSpec(variable, min(a, b), max(a, b), 5, fixed))
    assert len(rows) == 5
    for row in rows:
        if math.isnan(row.qfi):
            assert row.bound == math.inf
            assert math.isnan(row.entropy) and math.isnan(row.p1)
            continue
        eps = row.value if variable == "eps" else fixed.eps
        _assert_evaluated(eps, row.qfi, row.bound)
        assert math.isfinite(row.entropy) and row.entropy >= 0.0
        assert 0.0 <= row.p1 <= 1.0


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(boxes)
def test_optimize_returns_a_finite_point_or_raises_typed(box):
    variable, a, b, fixed = box
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    try:
        opt = optimize(variable, lo, hi, fixed)
    except CosmoQfiError:
        return
    assert lo <= opt.coordinate <= hi
    est = opt.estimation
    eps = opt.coordinate if variable == "eps" else fixed.eps
    _assert_evaluated(eps, est.qfi, est.bound)
    assert est.qfi > 0.0


# 16 values per axis from the least subnormal to near the largest double, with
# m_tilde = 0 besides: 4 352 points per derivative route.
EXTREME = (5e-324, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-8, 1e-3, 1.0, 1e3, 1e8, 1e20,
           1e50, 1e100, 1e200, 1.7e308)


@pytest.mark.parametrize("deriv_method", (ANALYTIC, FINITE_DIFFERENCE))
def test_extreme_grid_evaluates_or_raises_typed(deriv_method):
    # At tiny m and k the product of two tails in d ln X/d eps underflows
    # to 0 on the analytic route; that must be a typed error.
    for eps, m, k in itertools.product(EXTREME, (0.0,) + EXTREME, EXTREME):
        try:
            qfi_eps(ModelParams(eps, m, k), deriv_method=deriv_method)
        except CosmoQfiError:
            pass
