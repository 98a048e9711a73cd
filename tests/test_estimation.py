"""Sweep engine and bounded optimization."""

import math
import os
import signal
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from cosmo_qfi import (
    CosmoQfiError,
    ModelParams,
    SweepSpec,
    _kernel,
    optimize,
    qfi_eps,
    state_entropy,
    sweep,
    sweeps,
    verify,
)
from cosmo_qfi._kernel import pure
from cosmo_qfi.cli import main

FIXED = ModelParams(1.0, 1.0, 1.0)


def test_sweep_rows_ordered_and_consistent():
    spec = SweepSpec("m_tilde", 0.1, 10.0, 50, FIXED, trials=1e11)
    rows = sweep(spec)
    assert len(rows) == 50
    assert rows[0].value == 0.1 and rows[-1].value == 10.0
    assert all(b.value > a.value for a, b in zip(rows, rows[1:]))
    for r in rows:
        if r.qfi > 0.0:
            assert r.bound == 1.0 / (1e11 * r.qfi)
        # a row is exactly the single-point evaluation at its coordinate
        est = qfi_eps(ModelParams(eps=1.0, m_tilde=r.value, k_tilde=1.0), trials=1e11)
        assert (r.qfi, r.bound) == (est.qfi, est.bound)
        assert (r.entropy, r.p1) == (state_entropy(est.state), est.state.p1)


def test_sweep_determinism():
    spec = SweepSpec("k_tilde", 0.2, 5.0, 40, FIXED)
    a = sweep(spec)
    b = sweep(spec)
    assert a == b


def test_sweep_threads_do_not_change_rows(monkeypatch):
    spec = SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED)
    monkeypatch.setenv("COSMO_QFI_THREADS", "1")
    sequential = sweep(spec)
    monkeypatch.setenv("COSMO_QFI_THREADS", "4")
    threaded = sweep(spec)
    assert sequential == threaded


def test_sweep_massless_sentinel_row():
    spec = SweepSpec("m_tilde", 0.0, 1.0, 3, FIXED)
    rows = sweep(spec)
    assert rows[0].qfi == 0.0
    assert math.isinf(rows[0].bound)
    assert rows[0].entropy == 0.0 and rows[0].p1 == 0.0
    assert rows[1].qfi > 0.0 and rows[2].qfi > 0.0


def test_sweep_log_spacing(monkeypatch):
    # optimize's pre-scan: its first 1 000 coordinates form a geometric grid
    seen, real = [], sweeps.qfi_eps

    def recording(p, *args, **kwargs):
        seen.append(p.k_tilde)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(sweeps, "qfi_eps", recording)
    optimize("k_tilde", 0.1, 10.0, FIXED)
    vals = seen[:1000]
    assert vals[0] == 0.1 and vals[-1] == 10.0
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert all(math.isclose(r, ratios[0], rel_tol=1e-12) for r in ratios)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("m_tilde", 0.1, 10.0, 1, FIXED)
    with pytest.raises(ValueError):
        SweepSpec("m_tilde", 0.1, 10.0, 2.5, FIXED)  # sweep would hit a bare TypeError
    with pytest.raises(ValueError):
        SweepSpec("m_tilde", 5.0, 1.0, 10, FIXED)
    for hi in (math.inf, math.nan):
        message = rf"^hi must be finite and exceed lo, got \[0\.1, {hi}\]$"
        with pytest.raises(ValueError, match=message):
            SweepSpec("m_tilde", 0.1, hi, 3, FIXED)
    with pytest.raises(ValueError):
        SweepSpec("k_tilde", 0.0, 1.0, 10, FIXED)  # zero lo only valid for mass
    with pytest.raises(ValueError):
        SweepSpec("volume", 0.1, 1.0, 10, FIXED)
    for trials in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SweepSpec("m_tilde", 0.1, 10.0, 10, FIXED, trials=trials)


def test_fig1_bound_has_interior_minimum():
    rows = sweep(SweepSpec("m_tilde", 0.1, 10.0, 120, FIXED, trials=1e11))
    bounds = [r.bound for r in rows]
    i = bounds.index(min(bounds))
    assert 0 < i < len(bounds) - 1
    assert bounds[1] < bounds[0]  # light side still descending


def test_fig2_bound_decreases_then_increases():
    rows = sweep(SweepSpec("k_tilde", 0.1, 10.0, 120, FIXED, trials=1e11))
    bounds = [r.bound for r in rows]
    i = bounds.index(min(bounds))
    assert 0 < i < len(bounds) - 1
    assert all(b < a for a, b in zip(bounds[: i + 1], bounds[1 : i + 1]))
    assert all(b > a for a, b in zip(bounds[i:], bounds[i + 1 :]))


def test_optimize_matches_grid_argmin_over_k():
    res = optimize("k_tilde", 0.1, 10.0, FIXED, trials=1e11)
    rows = sweep(SweepSpec("k_tilde", 0.1, 10.0, 1000, FIXED, trials=1e11))
    grid_best = min(rows, key=lambda r: r.bound)
    cell = (10.0 - 0.1) / 999
    assert abs(res.coordinate - grid_best.value) <= cell
    assert res.estimation.bound <= grid_best.bound
    assert not res.boundary_warning


def test_optimize_interior_over_mass():
    res = optimize("m_tilde", 0.05, 20.0, FIXED, trials=1e11)
    assert 0.05 < res.coordinate < 20.0
    assert not res.boundary_warning
    assert res.estimation.qfi > 0.0


def test_optimize_boundary_warning():
    # beyond the optimum the bound grows monotonically in k, so the minimum
    # pins to the lower end of this interval
    res = optimize("k_tilde", 4.0, 10.0, FIXED, trials=1e11)
    assert res.boundary_warning
    assert abs(res.coordinate - 4.0) < 0.02


def test_optimize_terminates_at_large_coordinates():
    # near 1e10 the spacing between doubles exceeds the 1e-6 refinement target
    res = optimize("eps", 1e10, 1e12, ModelParams(1.0, 1e-9, 1e-3))
    assert 1e10 <= res.coordinate <= 1e12


def test_optimize_validation():
    with pytest.raises(ValueError):
        optimize("k_tilde", 1.0, 1.0, FIXED)
    with pytest.raises(ValueError):
        optimize("anything", 0.1, 1.0, FIXED)
    with pytest.raises(ValueError, match=r"^need 0 < lo < hi and a finite hi, got \[0\.1, inf\]$"):
        optimize("m_tilde", 0.1, math.inf, FIXED)


def test_verify_checks_thread_independent(monkeypatch):
    # the oracle runs on the calling thread and never reads the sweep's
    # thread setting, not even to reject a malformed one
    from cosmo_qfi.verify import check_ode_oracle, check_wronskian, oracle_matches

    monkeypatch.setenv("COSMO_QFI_THREADS", "abc")
    matches = oracle_matches(3)
    assert check_ode_oracle(matches).passed
    assert check_wronskian(matches).passed


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls per kernel entry point, counted on the pure backend."""
    calls = Counter()

    def counted(name):
        fn = getattr(pure, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    stub = SimpleNamespace(
        BACKEND=pure.BACKEND,
        integrate_endpoint=counted("integrate_endpoint"),
        integrate_pair_drift=counted("integrate_pair_drift"),
    )
    monkeypatch.setattr(_kernel, "impl", stub)
    return calls


def test_verify_integrates_each_oracle_point_once(kernel_calls, monkeypatch):
    # one in-mode integration, split at the checkpoint, serves both the
    # oracle check and the drift check; on one CPU it runs in this process,
    # where the calls are counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    results = verify.run_all(2, 3)
    assert all(r.passed for r in results)
    assert kernel_calls["integrate_pair_drift"] == 6  # two legs times three points
    assert kernel_calls["integrate_endpoint"] == 0


def test_verify_evaluates_each_grid_point_once(probe_calls):
    # one probe evaluation per grid point serves all four closed-form checks
    results = verify.run_all(3, 1)
    assert all(r.passed for r in results)
    assert [r.points for r in results[:4]] == [27] * 4
    assert len(probe_calls) == 27


@pytest.mark.parametrize("points", [1, 0])
def test_verify_rejects_a_grid_below_two_points(kernel_calls, points):
    # the grid is checked before any oracle integration starts
    with pytest.raises(ValueError, match="grid points"):
        verify.run_all(points, 1)
    assert kernel_calls["integrate_pair_drift"] == 0


def test_verify_tolerances_are_read_at_call_time(monkeypatch):
    grid = verify.grid_estimates(2)
    assert verify.check_qfi_identity(grid).passed
    monkeypatch.setattr(verify, "IDENTITY_TOL", 1e-30)
    monkeypatch.setattr(verify, "DERIVATIVE_TOL", 1e-30)
    worse = [verify.check_qfi_identity(grid), verify.check_derivative(grid)]
    assert [r.tolerance for r in worse] == [1e-30, 1e-30]
    assert not any(r.passed for r in worse)


@pytest.mark.parametrize("point", [(1.0, 0.0, 1.0), (1.0, 1e-3, 67.69)])
def test_verify_identity_checks_hold_off_the_grid(point):
    # X = 0 (massless), and a QFI of 3.1e-189 where dX*dX underflows to zero
    p = ModelParams(*point)
    grid = [(p, qfi_eps(p))]
    assert verify.check_qfi_identity(grid).passed
    assert verify.check_measurement_optimality(grid).passed


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was constructed")


class _CountingPool(ThreadPoolExecutor):
    constructed = 0

    def __init__(self, *args, **kwargs):
        type(self).constructed += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def counting_pool():
    _CountingPool.constructed = 0
    return _CountingPool


def test_sweep_auto_runs_on_the_calling_thread(monkeypatch):
    # the closed-form loop holds the GIL, so auto must not pay for a pool
    monkeypatch.delenv("COSMO_QFI_THREADS", raising=False)
    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", _NoPool)
    rows = sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))
    assert len(rows) == 64


def test_sweep_explicit_threads_use_a_pool(monkeypatch, counting_pool):
    monkeypatch.setenv("COSMO_QFI_THREADS", "2")
    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", counting_pool)
    rows = sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))
    assert len(rows) == 64
    assert counting_pool.constructed == 1


def test_sweep_explicit_threads_use_a_pool_for_three_rows(monkeypatch, counting_pool):
    spec = SweepSpec("m_tilde", 0.1, 8.0, 3, FIXED)
    monkeypatch.delenv("COSMO_QFI_THREADS", raising=False)
    serial = sweep(spec)
    monkeypatch.setenv("COSMO_QFI_THREADS", "2")
    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", counting_pool)
    assert sweep(spec) == serial
    assert counting_pool.constructed == 1


def test_explicit_thread_count_is_honoured(monkeypatch):
    monkeypatch.setenv("COSMO_QFI_THREADS", "12")
    assert sweeps._thread_count() == 12
    for unset in ("0", ""):
        monkeypatch.setenv("COSMO_QFI_THREADS", unset)
        assert sweeps._thread_count() == 1


@pytest.fixture
def forks(monkeypatch, fork_pids):
    """Sweeps of 12 rows or more spread over 3 processes; the list of the
    children forked (by pid) grows as the sweep forks them."""
    monkeypatch.delenv("COSMO_QFI_THREADS", raising=False)
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return fork_pids


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class _Boom(Exception):
    pass


def test_forked_sweep_gives_the_serial_rows(forks, monkeypatch):
    specs = [
        SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED),
        # X is subnormal from eps ~ 19690 up: the last 22 rows are NaN rows
        SweepSpec("eps", 0.01, 30000.0, 64, ModelParams(1.0, 7.2e-5, 120.0)),
    ]
    forked = [sweep(spec) for spec in specs]
    assert len(forks) == 4 and _no_children_left()
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 10**9)
    serial = [sweep(spec) for spec in specs]
    assert len(forks) == 4
    assert repr(forked) == repr(serial)
    assert sum(math.isnan(row.qfi) for row in forked[1]) == 22


def test_forked_sweep_survives_an_ignored_sigchld(forks, monkeypatch):
    # With SIGCHLD ignored the system reaps the children itself, so a wait
    # for one finds none; their rows are still taken, not recomputed.
    spec = SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED)
    real, computed = sweeps._eval_row, []

    def eval_row(*args):
        computed.append(args)  # the children append to their own copies
        return real(*args)

    monkeypatch.setattr(sweeps, "_eval_row", eval_row)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        rows = sweep(spec)
        assert len(forks) == 2 and _no_children_left()
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(computed) == 64 // 3
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 10**9)
    assert repr(rows) == repr(sweep(spec))


def test_a_slice_that_cannot_be_forked_is_computed_by_the_caller(forks, monkeypatch):
    # the first fork succeeds and the second fails, as when no process is left
    spec = SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED)
    fork = os.fork

    def fork_once():
        if forks:
            raise BlockingIOError("no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    rows = sweep(spec)
    assert len(forks) == 1 and _no_children_left()
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 10**9)
    assert repr(rows) == repr(sweep(spec))


def test_a_slice_whose_pipe_fails_is_computed_by_the_caller(forks, monkeypatch):
    # the first pipe opens and the second fails, as when no descriptor is left
    spec = SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED)
    pipe, calls = os.pipe, []

    def pipe_once():
        calls.append(None)
        if len(calls) > 1:
            raise OSError(24, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", pipe_once)
    rows = sweep(spec)
    assert len(calls) == 2 and len(forks) == 1 and _no_children_left()
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 10**9)
    assert repr(rows) == repr(sweep(spec))


def test_sweep_stays_serial_on_one_cpu(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert len(sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))) == 64
    assert forks == []


def test_sweep_stays_serial_at_its_default_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert sweeps._process_count(200) == 1


def test_process_count_falls_back_to_the_cpu_count(forks, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert sweeps._process_count(64) == 2


def test_sweep_stays_serial_beside_another_thread(forks):
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        rows = sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(rows) == 64 and forks == []


# 5000 rows, of which the 1 701 from eps ~ 19690 up are NaN rows
CSV_SWEEP = ["sweep", "--var", "eps", "--lo", "0.01", "--hi", "30000", "--points", "5000",
             "--m", "7.2e-5", "--k", "120"]
SHORT_CSV_SWEEP = ["sweep", "--var", "m", "--lo", "0.1", "--hi", "8", "--points", "64"]


def _csv_rows(tmp_path, argv) -> bytes:
    """The CLI's CSV for `argv`, less its manifest line (which records --out)."""
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes().split(b"\n", 1)[1]


def test_cli_csv_is_the_same_forked_on_one_cpu_and_threaded(forks, monkeypatch, tmp_path):
    forked = _csv_rows(tmp_path, CSV_SWEEP)
    assert len(forks) == 2 and _no_children_left()
    assert forked.count(b",nan,inf,nan,nan\n") == 1701
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _csv_rows(tmp_path, CSV_SWEEP) == forked
    monkeypatch.setenv("COSMO_QFI_THREADS", "2")
    assert _csv_rows(tmp_path, CSV_SWEEP) == forked
    assert len(forks) == 2


@pytest.mark.parametrize("fault", ["worker", "fork", "pipe"])
def test_cli_sweep_computes_a_lost_slice_itself(forks, monkeypatch, tmp_path, fault):
    # each fault loses the slices of the children: their rows fail in the
    # children only, the second fork fails, or the second pipe fails
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 10**9)
    serial = _csv_rows(tmp_path, SHORT_CSV_SWEEP)
    monkeypatch.setattr(sweeps, "_MIN_ROWS_PER_WORKER", 4)
    caller, real = os.getpid(), {"fork": os.fork, "pipe": os.pipe}
    if fault == "worker":
        _failing_at(monkeypatch, lambda m: os.getpid() != caller)
    else:
        def once(*args):
            if len(forks) == 1:
                raise OSError(24, f"no {fault} to spare")
            return real[fault](*args)

        monkeypatch.setattr(os, fault, once)
    assert _csv_rows(tmp_path, SHORT_CSV_SWEEP) == serial
    assert len(forks) == (2 if fault == "worker" else 1) and _no_children_left()


def _failing_at(monkeypatch, failing):
    real = sweeps._eval_row

    def eval_row(p, trials, deriv_method):
        if failing(p.m_tilde):
            raise _Boom(p.m_tilde)
        return real(p, trials, deriv_method)

    monkeypatch.setattr(sweeps, "_eval_row", eval_row)


def test_a_workers_error_reaches_the_caller_with_its_type(forks, monkeypatch):
    # only the last of the three slices fails, so only a child raises
    _failing_at(monkeypatch, lambda m: m > 7.0)
    with pytest.raises(_Boom):
        sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))
    assert len(forks) == 2 and _no_children_left()


def test_the_callers_error_leaves_no_child_behind(forks, monkeypatch):
    # the calling process fails on its own slice while both children run
    _failing_at(monkeypatch, lambda m: m < 0.2)
    with pytest.raises(_Boom):
        sweep(SweepSpec("m_tilde", 0.1, 8.0, 64, FIXED))
    assert len(forks) == 2 and _no_children_left()


@pytest.fixture
def verify_forks(monkeypatch, fork_pids):
    """`verify.run_all` forks its oracle worker at any grid size, as on two
    CPUs; the list of the children forked (by pid) grows as it forks them."""
    monkeypatch.setattr(verify, "_MIN_FORK_GRID", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return fork_pids


def _on_one_cpu(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return fn(*args)


@pytest.mark.parametrize("size", [(2, 3), (3, 2)])
def test_forked_verify_gives_the_serial_results(verify_forks, monkeypatch, size):
    forked = verify.run_all(*size)
    assert len(verify_forks) == 1 and _no_children_left()
    assert repr(forked) == repr(_on_one_cpu(monkeypatch, verify.run_all, *size))
    assert len(verify_forks) == 1 and all(r.passed for r in forked)


@pytest.mark.parametrize("fault", ["worker", "fork", "pipe"])
def test_verify_integrates_a_lost_oracle_payload_itself(verify_forks, monkeypatch, fault):
    # once the worker's integrations are taken, each fault loses them: the
    # oracle fails in the child only, the fork fails, or the pipe fails
    serial = _on_one_cpu(monkeypatch, verify.run_all, 2, 3)
    caller, real, calls, lost = os.getpid(), verify.integrate_mode, [], []

    def integrate_mode(p):
        if os.getpid() == caller:
            calls.append(p)
        elif lost:
            raise _Boom(p)
        return real(p)

    monkeypatch.setattr(verify, "integrate_mode", integrate_mode)
    assert repr(verify.run_all(2, 3)) == repr(serial) and calls == []
    lost.append(fault)
    if fault != "worker":
        def unavailable(*args):
            raise OSError(24, f"no {fault} to spare")

        monkeypatch.setattr(os, fault, unavailable)
    assert repr(verify.run_all(2, 3)) == repr(serial)
    assert len(calls) == 3 and _no_children_left()
    assert len(verify_forks) == (2 if fault == "worker" else 1)


def test_an_oracle_error_reaches_the_caller_of_a_forked_verify(verify_forks, monkeypatch):
    # the point fails in the child and again in the caller, which raises it
    def integrate_mode(p):
        raise CosmoQfiError("out of the oracle's reach")

    monkeypatch.setattr(verify, "integrate_mode", integrate_mode)
    with pytest.raises(CosmoQfiError, match="oracle's reach"):
        verify.run_all(2, 1)
    assert len(verify_forks) == 1 and _no_children_left()


@pytest.mark.parametrize("size, message", [((1, 1), "grid points"), ((2, 0), "oracle point")])
def test_verify_rejects_its_counts_before_forking(verify_forks, probe_calls, size, message):
    with pytest.raises(ValueError, match=message):
        verify.run_all(*size)
    assert verify_forks == [] and probe_calls == []


def test_sweep_nan_qfi_point_becomes_nan_row():
    # X is subnormal at eps = 24091 (m = 7.2e-5, k = 120): the literal QFI is
    # NaN, which `qfi_eps` raises as CosmoQfiError and the sweep turns into a
    # NaN row
    fixed = ModelParams(1.0, 7.2e-5, 120.0)
    rows = sweep(SweepSpec("eps", 24091.0, 24092.0, 2, fixed))
    assert math.isnan(rows[0].qfi) and math.isinf(rows[0].bound)
    assert math.isnan(rows[0].entropy) and math.isnan(rows[0].p1)


def test_trials_scaling_exact():
    spec1 = SweepSpec("m_tilde", 0.2, 4.0, 30, FIXED, trials=1e11)
    spec2 = SweepSpec("m_tilde", 0.2, 4.0, 30, FIXED, trials=2e11)
    for a, b in zip(sweep(spec1), sweep(spec2)):
        assert b.qfi == a.qfi
        if math.isfinite(a.bound):
            assert b.bound == a.bound / 2.0
