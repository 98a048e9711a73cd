"""Backend parity: compiled kernel against the pure-Python twin and scipy."""

import inspect
import math
import re
import threading

import pytest
from scipy.integrate import solve_ivp

from cosmo_qfi import _kernel
from cosmo_qfi._kernel import pure

COMPILED = "cosmo_qfi._kernel._mode_rk"  # the module the `compiled` fixture loads

POINT = (1.0, 1.0, 1.0)  # eps, m, k
POINTS = (POINT, (0.5, 5.0, 2.0))
SPAN = 15.0
RTOL, ATOL = 1e-12, 1e-14


def _ic(omega, eta0):
    return (
        math.cos(omega * eta0),
        -math.sin(omega * eta0),
        omega * math.sin(omega * eta0),
        -omega * math.cos(omega * eta0),
    )


def _omega_in(m, k):
    return math.hypot(m, k)


@pytest.fixture(params=[pure.__name__, COMPILED])
def kernel(request):
    """Each backend in turn: the pure twin, then the compiled kernel."""
    if request.param == COMPILED:
        return request.getfixturevalue("compiled")
    return pure


def test_backends_agree_on_endpoint(compiled):
    # The twins sum every stage in the same order, so they take the same steps.
    for eps, m, k in POINTS:
        y0 = _ic(_omega_in(m, k), -SPAN)
        yp, sp = pure.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        yc, sc = compiled.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        assert sp == sc
        scale = max(abs(v) for v in yp)
        for a, b in zip(yp, yc):
            assert abs(a - b) <= 1e-10 * scale


def test_backends_agree_on_drift(compiled):
    for eps, m, k in POINTS:
        y0 = _ic(_omega_in(m, k), -SPAN)
        _, dp, sp = pure.integrate_pair_drift(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        _, dc, sc = compiled.integrate_pair_drift(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        assert sp == sc
        assert abs(dp - dc) <= 1e-10


def test_kernel_against_scipy(kernel):
    eps, m, k = POINT
    w_in = _omega_in(m, k)
    y0 = _ic(w_in, -SPAN)

    def rhs(eta, y):
        th = math.tanh(eta)
        a = 1.0 + eps * (1.0 + th)
        wc = k * k + m * m * a * a
        v = -m * eps * (1.0 - th * th)
        return [
            y[2],
            y[3],
            -(wc * y[0] - v * y[1]),
            -(wc * y[1] + v * y[0]),
        ]

    ref = solve_ivp(rhs, (-SPAN, SPAN), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    got, _ = kernel.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
    for a, b in zip(got, ref.y[:, -1]):
        assert abs(a - b) < 1e-8


def test_kernel_rejects_bad_state_length(kernel):
    # Both twins raise CPython's own message for the C twin's "(dddd)" unit.
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        for n in (2, 8):
            with pytest.raises(
                    TypeError, match=rf"^{name}\(\) argument 6 must be sequence of length 4, not {n}$"):
                getattr(kernel, name)(*args, (1.0,) * n, RTOL, ATOL)


def test_kernel_takes_any_sequence_state(kernel):
    y0 = _ic(_omega_in(*POINT[1:]), -SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        run = getattr(kernel, name)
        assert run(*POINT, -SPAN, SPAN, list(y0), RTOL, ATOL) == run(
            *POINT, -SPAN, SPAN, y0, RTOL, ATOL)


def test_kernel_takes_no_keyword_arguments(kernel):
    y0 = _ic(_omega_in(*POINT[1:]), -SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(TypeError):
            getattr(kernel, name)(*POINT, -SPAN, SPAN, y0, RTOL, abs_tol=ATOL)


def test_kernel_rejects_non_sequence_state(kernel):
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    with pytest.raises(TypeError):
        kernel.integrate_endpoint(*args, 1.0, RTOL, ATOL)
    with pytest.raises(TypeError):
        kernel.integrate_pair_drift(*args, None, RTOL, ATOL)


def test_kernel_rejects_zero_norm_state(kernel):
    # The drift is relative to the initial norm, which vanishes only with psi
    # and psi' both zero.
    with pytest.raises(ValueError, match="^initial Dirac norm vanishes$"):
        kernel.integrate_pair_drift(1.0, 1.0, 1.0, -SPAN, SPAN, (0.0,) * 4, RTOL, ATOL)
    # At k = 0 the norm is |psi' - i M psi|^2, zero for psi' = i M psi.  Both
    # twins check it before the first step, so a run that would underflow
    # raises the same ValueError.
    mu = 1.0 + (1.0 + math.tanh(-SPAN))
    with pytest.raises(ValueError, match="^initial Dirac norm vanishes$"):
        kernel.integrate_pair_drift(1.0, 1.0, 0.0, -SPAN, SPAN, (1.0, 0.0, 0.0, mu),
                                    1e-30, 1e-300)


def test_kernel_reports_step_underflow(kernel):
    # No step meets a relative tolerance of 1e-30, so h shrinks to the floor.
    y0 = _ic(_omega_in(1.0, 1.0), -SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(RuntimeError, match="^step size underflow$"):
            getattr(kernel, name)(1.0, 1.0, 1.0, -SPAN, SPAN, y0, 1e-30, 1e-300)


def test_kernel_stops_on_nan_error_estimate(kernel):
    # m^2 overflows to inf, so every error estimate is NaN.  Before the NaN
    # stop, both twins spun until their 5 000 000-attempt budget ran out and
    # would raise "step budget exhausted".
    y0 = _ic(1.0, -SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(RuntimeError, match="^non-finite error estimate$"):
            getattr(kernel, name)(1.0, 1e160, 1.0, -SPAN, SPAN, y0, RTOL, ATOL)
    # A NaN state has a NaN initial norm, which is not zero: the drift run
    # starts, and stops on its first NaN estimate.
    with pytest.raises(RuntimeError, match="^non-finite error estimate$"):
        kernel.integrate_pair_drift(1.0, 1.0, 1.0, -SPAN, SPAN, (math.nan, 0.0, 0.0, 1.0),
                                    RTOL, ATOL)


def test_kernel_rejects_steps_on_infinite_error_estimate(kernel):
    # The scaled error overflows, so every estimate is inf: the step is
    # rejected and h shrinks to the floor.  Hairer's formula taken literally
    # would read inf / inf as NaN and stop the run as non-finite instead.
    y0 = tuple(1e150 * v for v in _ic(_omega_in(1.0, 1.0), -SPAN))
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(RuntimeError, match="^step size underflow$"):
            getattr(kernel, name)(1.0, 1.0, 1.0, -SPAN, SPAN, y0, 1e-300, 1e-300)


def test_pure_kernel_reports_an_exhausted_step_budget(monkeypatch):
    # At (1, 1, 1) the pure twin's first 10 attempts are all accepted.
    monkeypatch.setattr(pure, "_MAX_STEPS", 10)
    y0 = _ic(_omega_in(1.0, 1.0), -SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(RuntimeError, match="^step budget exhausted$"):
            getattr(pure, name)(1.0, 1.0, 1.0, -SPAN, SPAN, y0, RTOL, ATOL)


def test_compiled_kernel_reports_an_exhausted_step_budget(compiled):
    # The C twin's budget of 5 000 000 attempts is fixed at compile time.  The
    # zero state's steps are all accepted and grow to the largest step of 1,
    # so a window of 6e6 runs the budget out (in about 1.5 s).
    with pytest.raises(RuntimeError, match="^step budget exhausted$"):
        compiled.integrate_endpoint(1.0, 1.0, 1.0, 0.0, 6e6, (0.0,) * 4, RTOL, ATOL)


def test_kernel_accepts_zero_error_estimate(kernel):
    # The zero solution has a zero error estimate, which 0 / 0 would make NaN.
    y, steps = kernel.integrate_endpoint(1.0, 1.0, 1.0, -SPAN, SPAN, (0.0,) * 4, RTOL, ATOL)
    assert y == (0.0,) * 4
    assert steps > 0


def test_pure_tableau_is_scipys_dop853():
    # Every tableau constant of the pure twin equals SciPy's copy of Hairer's
    # dop853.f values; the C twin is held to the same steps by the parity tests.
    from scipy.integrate._ivp import dop853_coefficients as ref

    n, b = ref.N_STAGES, ref.A[ref.N_STAGES]
    want = {f"_C{s}": ref.C[s] for s in range(1, n - 1)}
    want.update({f"_A{s}_{j}": ref.A[s, j] for s in range(1, n) for j in range(s) if ref.A[s, j]})
    want.update({f"_B{j}": b[j] for j in range(n) if b[j]})
    want.update({f"_E{j}": ref.E5[j] for j in range(n) if ref.E5[j]})
    # SciPy folds the 3rd-order weights into E3 = B - BHH.
    want.update({f"_E3_{j}": ref.E3[j] for j in range(n) if ref.E3[j] != b[j]})
    have = {k: v for k, v in vars(pure).items() if re.fullmatch(r"_[ABCE]\d+(_\d+)?", k)}
    have.update({f"_E3_{k[4:]}": have[f"_B{k[4:]}"] - v
                 for k, v in vars(pure).items() if re.fullmatch(r"_BHH\d+", k)})
    assert have == want


LOOSE = [(1.0, 1.0, 1.0, 1e-9, 1e-11), (0.5, 5.0, 2.0, 1e-8, 1e-10),
         (2.0, 0.3, 0.7, 1e-6, 1e-8)]  # eps, m, k, rtol, atol


def test_backends_agree_where_steps_are_rejected(compiled, monkeypatch):
    # At loose tolerances the controller rejects steps, so the twins must
    # agree on that path too, not only on runs of accepted steps.
    for eps, m, k, rtol, atol in LOOSE:
        args = (eps, m, k, -SPAN, SPAN, _ic(_omega_in(m, k), -SPAN), rtol, atol)
        yp, dp, sp = pure.integrate_pair_drift(*args)
        yc, dc, sc = compiled.integrate_pair_drift(*args)
        assert sp == sc
        assert dp > 0.0  # the norm was tracked
        assert abs(dp - dc) <= 1e-10
        scale = max(abs(v) for v in yp)
        for a, b in zip(yp, yc):
            assert abs(a - b) <= 1e-10 * scale
        # With as many attempts as accepted steps, a rejected one runs the
        # budget out.
        with monkeypatch.context() as patch:
            patch.setattr(pure, "_MAX_STEPS", sp)
            with pytest.raises(RuntimeError, match="^step budget exhausted$"):
                pure.integrate_pair_drift(*args)


@pytest.mark.parametrize("rtol, atol", [(RTOL, ATOL), (1e-6, 1e-8)])
def test_endpoint_matches_the_drift_run(kernel, rtol, atol):
    for eps, m, k in POINTS:
        args = (eps, m, k, -SPAN, SPAN, _ic(_omega_in(m, k), -SPAN), rtol, atol)
        y, _, steps = kernel.integrate_pair_drift(*args)
        assert kernel.integrate_endpoint(*args) == (y, steps)


def test_compiled_kernel_exposes_the_pure_contract(compiled):
    assert compiled.BACKEND == "compiled"
    # The C twin declares its signature in its docstring; an argument added to
    # or dropped from one twin alone shows here.
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        assert inspect.signature(getattr(compiled, name)) == inspect.signature(getattr(pure, name))


def test_selected_backend_exposes_contract():
    for name in ("integrate_endpoint", "integrate_pair_drift", "BACKEND"):
        assert hasattr(_kernel.impl, name)
    assert _kernel.BACKEND in ("pure", "compiled")


def test_compiled_kernel_integrates_from_threads_at_once(compiled):
    # The C twin steps with the GIL released.  Two threads integrate POINTS
    # at once and get the serial results; one of them first makes a call
    # that underflows, which raises in that thread alone.
    jobs = [(getattr(compiled, name), (eps, m, k, -SPAN, SPAN, _ic(_omega_in(m, k), -SPAN),
                                       RTOL, ATOL))
            for eps, m, k in POINTS for name in ("integrate_endpoint", "integrate_pair_drift")]
    serial = [run(*args) for run, args in jobs]
    start = threading.Barrier(2)
    results = [None, None]

    def work(i):
        out = []
        start.wait(timeout=10)
        if i:
            try:
                compiled.integrate_pair_drift(*jobs[1][1][:6], 1e-30, 1e-300)
            except RuntimeError as exc:
                out.append(exc)
        results[i] = out + [run(*args) for run, args in jobs]

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    failure, *rest = results[1]
    assert type(failure) is RuntimeError and str(failure) == "step size underflow"
    assert results[0] == rest == serial
