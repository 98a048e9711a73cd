"""Tests for the benchmark's own tracing and workload generation.

Run with the program on the path, e.g.
`PYTHONPATH=src python -m pytest perfbench/test_perfbench_tracing.py`.
"""

import concurrent.futures
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

import cosmo_qfi  # noqa: E402,F401  (loads every submodule into sys.modules)
from cosmo_qfi import ModelParams, SweepSpec  # noqa: E402

N = 40  # enough points for sweep() to use its thread pool


@pytest.fixture
def two_threads(monkeypatch):
    monkeypatch.setenv("COSMO_QFI_THREADS", "2")


def _sweep_spans(tracer):
    sweeps = sys.modules["cosmo_qfi.sweeps"]
    spec = SweepSpec("m_tilde", 0.1, 10.0, N, ModelParams(1.0, 1.0, 1.0))
    with tracing.install(tracer):
        rows = sweeps.sweep(spec)
    assert len(rows) == N
    return tracer.spans


def test_analytic_sweep_span_counts(two_threads):
    spans = _sweep_spans(tracing.Tracer())
    names = [s.name for s in spans]
    assert names.count("sweeps.sweep") == 1
    assert names.count("probe.qfi_eps") == N
    assert names.count("probe.probe") == 2 * N
    assert names.count("cosmology.frequencies") == 6 * N
    (sweep,) = [s for s in spans if s.name == "sweeps.sweep"]
    assert sweep.note == (N, 0)


def test_pool_tasks_link_to_the_submitting_span(two_threads):
    spans = _sweep_spans(tracing.Tracer())
    (sweep,) = [s for s in spans if s.name == "sweeps.sweep"]
    qfi = [s for s in spans if s.name == "probe.qfi_eps"]
    assert {s.parent for s in qfi} == {sweep.id}
    assert len({s.thread for s in qfi}) == 2
    assert all(s.thread != sweep.thread for s in qfi)
    by_id = {s.id: s for s in spans}
    for s in spans:  # every child lies inside its parent
        if s.parent is not None:
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end


def test_wrappers_sit_on_the_callers_names_and_are_removed():
    probe_mod = sys.modules["cosmo_qfi.probe"]
    sweeps = sys.modules["cosmo_qfi.sweeps"]
    bogoliubov = sys.modules["cosmo_qfi.bogoliubov"]
    cosmology = sys.modules["cosmo_qfi.cosmology"]
    assert cosmo_qfi.probe is probe_mod.probe  # the attribute is the function
    originals = (probe_mod.probe, sweeps.qfi_eps, bogoliubov.frequencies, cosmology.frequencies)
    with tracing.install(tracing.Tracer()):
        for obj in (probe_mod.probe, sweeps.qfi_eps, sweeps.probe,
                    bogoliubov.frequencies, cosmology.frequencies, bogoliubov.dX_deps_analytic):
            assert hasattr(obj, "__wrapped__")
        assert bogoliubov.frequencies is cosmology.frequencies
    assert (probe_mod.probe, sweeps.qfi_eps, bogoliubov.frequencies,
            cosmology.frequencies) == originals
    assert sweeps.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def test_parent_links_are_thread_local():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def inner():
        barrier.wait()  # both threads hold an open outer span here

    def outer():
        barrier.wait()
        tracer.wrap("inner", inner)()

    threads = [threading.Thread(target=tracer.wrap("outer", outer)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        assert by_id[s.parent].name == "outer"
        assert by_id[s.parent].thread == s.thread
    assert all(s.parent is None for s in tracer.spans if s.name == "outer")


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [S(1, None, "a", 0.0, 10.0, 1), S(2, 1, "b", 1.0, 4.0, 2),
             S(3, 1, "b", 3.0, 6.0, 3), S(4, 2, "c", 1.0, 2.0, 2)]
    summary = tracing.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(5.0)
    assert summary["b"] == {"calls": 2, "total_s": 6.0, "self_s": pytest.approx(5.0)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_generated_flags(workload):
    first = workloads.generate(workload, 7, "out")
    assert first == workloads.generate(workload, 7, "out")
    if workloads.SEED_VARIES_INPUTS[workload]:
        assert first != workloads.generate(workload, 8, "out")
    assert workloads.domain_edge(7) == workloads.domain_edge(7) != workloads.domain_edge(8)
