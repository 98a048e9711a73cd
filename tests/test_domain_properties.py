"""Properties of the `point` path over the whole admitted domain.

`eps`, `m_tilde` and `k_tilde` are drawn log-uniform over [1e-8, 1e6], with
`m_tilde = 0` as its own case and a third of the draws near the ray
k = (1 + 2 eps) m, where the QFI approaches its supremum 1/(1 + 2 eps)^2 in
the sudden limit (acceptance criterion 11).  Every point either raises a
typed `CosmoQfiError` or yields finite, non-negative figures that respect
that supremum; a derivative only 0.1 % too large breaks the last property
near the ray.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cosmo_qfi import CosmoQfiError, ModelParams, qfi_eps, state_entropy

LOG_RANGE = (math.log(1e-8), math.log(1e6))
SUPREMUM_SLACK = 1e-12

log_uniform = st.floats(*LOG_RANGE).map(math.exp)

points = st.one_of(
    st.tuples(log_uniform, log_uniform, log_uniform),
    st.tuples(log_uniform, st.just(0.0), log_uniform),
    # k = (1 + 2 eps) m within 1 %: the QFI is stationary across the ray
    st.tuples(log_uniform, log_uniform, st.floats(-0.01, 0.01)).map(
        lambda t: (t[0], t[1], (1.0 + 2.0 * t[0]) * t[1] * math.exp(t[2]))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(points)
def test_point_path_is_finite_or_typed_and_below_the_supremum(point):
    eps, m, k = point
    try:
        est = qfi_eps(ModelParams(eps, m, k))
        entropy = state_entropy(est.state)
    except CosmoQfiError:
        return
    assert math.isfinite(est.qfi) and est.qfi >= 0.0
    assert math.isfinite(entropy)
    assert (est.bound == math.inf) == (est.qfi == 0.0)
    assert (1.0 + 2.0 * eps) ** 2 * est.qfi <= 1.0 + SUPREMUM_SLACK
