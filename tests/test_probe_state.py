"""Probe state, QFI closed form, Cramer-Rao bound, entropy."""

import importlib
import math
import sys

import numpy as np
import pytest

from cosmo_qfi import (
    DEFAULT_TRIALS,
    CosmoQfiError,
    ModelParams,
    ProbeState,
    classical_fisher,
    dX_deps_analytic,
    dX_deps_fd,
    probe,
    qfi_eps,
    state_entropy,
)

FROZEN_X_UNIT = 1.6698406311094825e-4
FROZEN_QFI_UNIT = 5.8075378672444121e-5  # mpmath, analytic derivative route


def test_probe_massless_is_vacuum():
    st = probe(ModelParams(1.0, 0.0, 1.0))
    assert (st.p0, st.p1) == (1.0, 0.0)
    assert st.X == 0.0 and st.dX == 0.0


def test_probe_unit_point():
    st = probe(ModelParams(1.0, 1.0, 1.0))
    assert math.isclose(st.X, FROZEN_X_UNIT, rel_tol=1e-12)
    assert math.isclose(st.p1, FROZEN_X_UNIT / (1.0 + FROZEN_X_UNIT), rel_tol=1e-12)
    assert abs(st.p0 + st.p1 - 1.0) <= 1e-14
    assert math.isclose(st.p1, st.X * st.p0, rel_tol=1e-14)


def test_probe_weight_map_monotone():
    # X -> X/(1+X) is monotone with the right limits
    xs = np.geomspace(1e-6, 1e6, 30)
    p1s = [x / (1.0 + x) for x in xs]
    assert all(b > a for a, b in zip(p1s, p1s[1:]))
    assert p1s[0] < 1e-5 and p1s[-1] > 0.999


def test_qfi_unit_point_and_bound():
    est = qfi_eps(ModelParams(1.0, 1.0, 1.0))
    assert math.isclose(est.qfi, FROZEN_QFI_UNIT, rel_tol=1e-11)
    assert est.bound == 1.0 / (DEFAULT_TRIALS * est.qfi)


def test_qfi_massless_is_zero_with_infinite_bound():
    est = qfi_eps(ModelParams(1.0, 0.0, 1.0))
    assert est.qfi == 0.0
    assert math.isinf(est.bound)
    assert classical_fisher(est.state) == 0.0


def test_qfi_matches_simplified_form_on_grid():
    axis = np.linspace(0.1, 5.0, 5)
    for eps in axis:
        for m in axis:
            for k in axis:
                p = ModelParams(float(eps), float(m), float(k))
                est = qfi_eps(p)
                st = probe(p)
                simplified = st.dX**2 / (st.X * (1.0 + st.X) ** 2)
                assert abs(est.qfi - simplified) <= 1e-10 * max(est.qfi, simplified)


def test_eigenprojector_measurement_saturates_qfi():
    # (1, 1e-3, 67.69): QFI 3.1e-189, where dp*dp underflows to zero
    for point in [(1.0, 1.0, 1.0), (0.5, 0.3, 2.0), (3.0, 1.5, 0.4), (1.0, 1e-3, 67.69)]:
        est = qfi_eps(ModelParams(*point))
        assert abs(classical_fisher(est.state) - est.qfi) <= 1e-10 * est.qfi


def test_qfi_returns_the_probe_state_it_evaluated():
    for method in ("analytic", "finite_difference"):
        p = ModelParams(0.7, 1.3, 2.0)
        assert qfi_eps(p, deriv_method=method).state == probe(p, deriv_method=method)


def test_qfi_interior_maximum_over_mass():
    # at eps = k = 1 the information peaks at a finite mass
    masses = np.linspace(0.05, 10.0, 120)
    vals = [qfi_eps(ModelParams(1.0, float(m), 1.0)).qfi for m in masses]
    i = int(np.argmax(vals))
    assert 0 < i < len(vals) - 1


def test_qfi_collapses_at_large_eps():
    q1 = qfi_eps(ModelParams(1.0, 1.0, 1.0)).qfi
    q100 = qfi_eps(ModelParams(100.0, 1.0, 1.0)).qfi
    assert q100 < 1e-3 * q1


def test_qfi_identity_mismatch_raises_typed_error():
    # X = 2.5e-311 is subnormal: the literal form overflows to inf, although
    # the simplified form would be 3.5e-307
    with pytest.raises(CosmoQfiError, match=r"QFI is inf at X=2\.48\d*e-311") as info:
        qfi_eps(ModelParams(0.1, 82.0, 82.0))
    assert isinstance(info.value, ValueError)


def test_qfi_literal_form_covers_the_upper_subnormal_band():
    # X = 1.12e-308 is subnormal, but (1+X)/X = 8.9e307 is still finite: the
    # literal form returns the QFI the simplified form gives.  Deeper in the
    # band, at X = 2.5e-311, it overflows (the test above).
    est = qfi_eps(ModelParams(0.1, 81.299, 81.3))
    X, dX = est.state.X, est.state.dX
    assert 0.0 < X < sys.float_info.min
    assert est.qfi == dX / X * dX / (1.0 + X) ** 2
    assert math.isclose(est.qfi, 1.5666e-304, rel_tol=1e-4)
    assert est.bound == 1.0 / (DEFAULT_TRIALS * est.qfi)


@pytest.mark.parametrize("point", [(1.0, 1e-3, 67.69), (2.64e-6, 0.482, 69.6)])
def test_qfi_evaluates_where_dX_squared_underflows(point):
    # dX^2 underflows to 0 although the QFI, about 3e-189 and 4e-189, is a
    # normal double: the cross-check must not compare against that zero
    est = qfi_eps(ModelParams(*point))
    X, dX = est.state.X, est.state.dX
    assert dX * dX == 0.0
    dp = dX / ((1.0 + X) * (1.0 + X))
    literal = (1.0 + X) * dp * dp + (1.0 + X) / X * dp * dp
    assert est.qfi == literal > 1e-190
    assert math.isfinite(est.bound)


def test_qfi_nan_literal_form_raises_typed_error():
    # X = 1.5e-323 is subnormal: (1+X)/X overflows and meets a zero derivative
    with pytest.raises(CosmoQfiError, match="QFI is nan at X=1.5e-323"):
        qfi_eps(ModelParams(24091.0, 7.2e-5, 120.0))


def test_qfi_overflowed_literal_form_raises_typed_error(monkeypatch):
    # (1+X)/X = inf times dp1^2 = 1e-310 gives an infinite literal form,
    # although the simplified form would be 1
    probe_module = importlib.import_module("cosmo_qfi.probe")
    state = ProbeState(p0=1.0, p1=1e-310, X=1e-310, dX=1e-155)
    monkeypatch.setattr(probe_module, "probe", lambda *args: state)
    with pytest.raises(CosmoQfiError, match="QFI is inf at X=1e-310"):
        qfi_eps(ModelParams(1.0, 1.0, 1.0))


def test_bound_arithmetic():
    est = qfi_eps(ModelParams(1.0, 1.0, 1.0), trials=1.0)
    scaled = qfi_eps(ModelParams(1.0, 1.0, 1.0), trials=1e11)
    assert math.isclose(scaled.bound, est.bound / 1e11, rel_tol=1e-15)
    for trials in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            qfi_eps(ModelParams(1.0, 1.0, 1.0), trials=trials)


def test_positive_qfi_with_an_overflowing_bound_raises_typed_error():
    # At trials = 1 the QFI 1.1e-311 is positive, but 1/qfi overflows: an
    # infinite bound would claim the state carries no information
    p = ModelParams(292.9116735123882, 108.61768105386915, 0.075634133134634)
    assert 0.0 < qfi_eps(p, trials=1e11).qfi < 1e-308
    with pytest.raises(CosmoQfiError, match=r"qfi=.*trials=1\.0"):
        qfi_eps(p, trials=1.0)


def test_bound_infinite_sentinel_for_massless():
    est = qfi_eps(ModelParams(1.0, 0.0, 1.0), trials=1e11)
    assert math.isinf(est.bound)


def test_entropy_values():
    assert state_entropy(probe(ModelParams(1.0, 0.0, 1.0))) == 0.0
    assert math.isclose(
        state_entropy(ProbeState(0.5, 0.5, 1.0, 0.0)), math.log(2.0), rel_tol=1e-15
    )
    st = probe(ModelParams(1.0, 1.0, 1.0))
    s = state_entropy(st)
    expected = -st.p0 * math.log(st.p0) - st.p1 * math.log(st.p1)
    assert math.isclose(s, expected, rel_tol=1e-14)


def test_entropy_unimodal_over_mass():
    masses = np.linspace(0.1, 10.0, 120)
    vals = [state_entropy(probe(ModelParams(1.0, float(m), 1.0))) for m in masses]
    i = int(np.argmax(vals))
    assert 0 < i < len(vals) - 1
    assert all(b > a for a, b in zip(vals[: i + 1], vals[1 : i + 1]))
    assert all(b < a for a, b in zip(vals[i:], vals[i + 1 :]))


def test_fd_route_agrees_with_analytic_route():
    p = ModelParams(1.0, 1.0, 1.0)
    ana = qfi_eps(p, deriv_method="analytic")
    fdm = qfi_eps(p, deriv_method="finite_difference")
    assert (ana.state.dX, fdm.state.dX) == (dX_deps_analytic(p), dX_deps_fd(p))
    assert math.isclose(ana.qfi, fdm.qfi, rel_tol=1e-6)
