"""The traced run: per-layer metrics for one workload.

The workload's pass runs in this process through `cli.main`, once untraced
and once with spans recorded around the public functions of every module
(tracing.py), which gives counts and self times per layer and the tracing
overhead.  Then:

* `us_per_call` figures time the public functions directly on the
  workload's own parameter points;
* the kernel pass runs `integrate_mode` and `wronskian_drift` over the
  workload's oracle points plus the three points of
  `benchmarks/bench_kernel.py`, on the pure backend and, where a C compiler
  and Python headers exist, on the shipped `_mode_rk.c` built into
  `.bench_work/kernel`; compiled metrics are absent, not zero, without one;
* `cli.interp_s`, `cli.import_s` and `cli.import_modules` come from fresh
  interpreters.

Counts repeat exactly for the same seed.  The span dump is written to
`.bench_work/spans.jsonl` after the run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import harness
import tracing
import workloads

REPEATS = 5  # timings below are medians over this many repeats
MIN_CALLS = 1000  # calls per us_per_call repeat
BENCH_KERNEL_POINTS = ((1.0, 1.0, 1.0), (2.0, 0.1, 0.3), (0.5, 5.0, 2.0))
SPEEDUP_REPEATS = 3
COMPILED = "cosmo_qfi._kernel._mode_rk"


def _call_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except Exception:  # an uncaught error: the CLI process would exit 1
            rc = 1
    return rc, out.getvalue()


def _run_pass(main, argvs: list[list[str]]) -> tuple[float, list[tuple[int, str]]]:
    t0 = time.perf_counter()
    results = [_call_cli(main, a) for a in argvs]
    return time.perf_counter() - t0, results


def _check(checker: workloads.Checker, argvs, results) -> tuple[int, int]:
    attempted = failed = 0
    for argv, (rc, stdout) in zip(argvs, results):
        files = {}
        if argv[0] == "sweep":
            out = argv[argv.index("--out") + 1]
            files[out] = Path(out).read_bytes()
        fails, rows, bad_rows = ([f"exit {rc}"], 0, 0) if rc else checker.check(argv, stdout, files)
        attempted += 1 + rows
        failed += bool(fails) + bad_rows
    return attempted, failed


def _fresh_interpreter(env: dict, tree: Path, work: Path) -> dict:
    bare = [harness.run_child([sys.executable, "-c", "pass"], env, work, work).wall_s
            for _ in range(REPEATS)]
    probes = [harness.run_child([sys.executable, "-c", harness.IMPORT_PROBE],
                                harness.tree_env(env, tree), work, work).stdout.split()
              for _ in range(REPEATS)]
    modules = {int(p[1]) for p in probes}
    if len(modules) != 1:
        raise harness.BenchError(f"import cosmo_qfi.cli loaded varying module counts {modules}")
    return {
        "cli.interp_s": (statistics.median(bare), "s"),
        "cli.import_s": (statistics.median(float(p[0]) for p in probes), "s"),
        "cli.import_modules": (modules.pop(), "count"),
    }


def _workload_points(workload: str, argvs, pkg) -> list:
    """Parameter points of the workload, for the us_per_call timings."""
    P = pkg.ModelParams
    if workload == "oracle-verify":  # verify's identity grid
        lo, hi = sys.modules["cosmo_qfi.verify"].GRID_RANGE
        n = workloads.VERIFY_GRID
        axis = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
        return [P(e, m, k) for e in axis for m in axis for k in axis]
    points = []
    for argv in argvs:
        f = workloads.flags(argv)
        eps, m, k = (float(f.get(x, "1")) for x in ("--eps", "--m", "--k"))
        if argv[0] == "point":
            points.append(P(eps, m, k))
        elif argv[0] == "sweep":
            lo, hi, n = float(f["--lo"]), float(f["--hi"]), int(f["--points"])
            for i in range(0, n, 10):
                v = lo + i * (hi - lo) / (n - 1)
                points.append(P(eps, v, k) if f["--var"] == "m" else P(eps, m, v))
    return points


def _us_per_call(fn, args: list) -> float:
    reps = max(1, math.ceil(MIN_CALLS / len(args)))
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args:
                fn(a)
        per_call.append((time.perf_counter() - t0) / (reps * len(args)))
    return statistics.median(per_call) * 1e6


def _layer_timings(pkg, points: list) -> dict:
    from cosmo_qfi.cosmology import frequencies
    from cosmo_qfi.specfun import log_gamma

    gamma_args = [1.0 - 1j * frequencies(p).omega_in for p in points]
    fns = {
        "probe.qfi_eps": pkg.qfi_eps,
        "bogoliubov.excitation_weight": pkg.excitation_weight,
        "bogoliubov.dX_deps_analytic": pkg.dX_deps_analytic,
        "bogoliubov.dX_deps_fd": pkg.dX_deps_fd,
        "bogoliubov.coefficients": pkg.coefficients,
        "bogoliubov.mixing_sq_sinh": pkg.mixing_sq_sinh,
        "cosmology.frequencies": frequencies,
    }
    out = {f"{name}.us_per_call": (_us_per_call(fn, points), "us") for name, fn in fns.items()}
    out["specfun.log_gamma.us_per_call"] = (_us_per_call(log_gamma, gamma_args), "us")
    return out


def build_compiled(tree: Path, work: Path):
    """The compiled kernel: the package's own build when it has one, else the
    shipped `_mode_rk.c` built with the system C compiler and loaded as
    `cosmo_qfi._kernel._mode_rk`.  Returns (module, build seconds or None)
    or (None, reason)."""
    own = sys.modules.get(COMPILED)
    if own is not None:
        return own, None
    source = tree / "src" / "cosmo_qfi" / "_kernel" / "_mode_rk.c"
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = Path(sysconfig.get_paths()["include"])
    if not source.is_file():
        return None, "no _mode_rk.c in the checkout"
    if cc is None or not (include / "Python.h").is_file():
        return None, "no C compiler or no Python headers"
    out_dir = work / "kernel"
    out_dir.mkdir()
    target = out_dir / ("_mode_rk" + sysconfig.get_config_var("EXT_SUFFIX"))
    t0 = time.perf_counter()
    res = subprocess.run([cc, "-O3", "-shared", "-fPIC", f"-I{include}", str(source),
                          "-o", str(target)], capture_output=True, text=True, timeout=300)
    seconds = time.perf_counter() - t0
    if res.returncode != 0:
        return None, f"compile failed: {res.stderr[-500:]}"
    spec = importlib.util.spec_from_file_location(COMPILED, target)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, f"load failed: {exc}"
    return module, seconds


def _kernel_pass(impl, points: list, bench_points: list) -> dict:
    """Oracle work on one backend; kernel figures from the kernel's returns."""
    oracle = sys.modules["cosmo_qfi.oracle"]
    kernel = sys.modules["cosmo_qfi._kernel"]
    b = impl.BACKEND
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracing.install(tracer, kernel_backend=impl, functions=()):
        for p in points:
            oracle.integrate_mode(p)
            oracle.wronskian_drift(p)
    oracle_s = time.perf_counter() - t0
    ks = [s for s in tracer.spans if s.name.startswith(f"kernel.{b}.")]
    steps = sum(s.note[0] for s in ks)
    kernel_s = sum(s.end - s.start for s in ks)
    saved = kernel.impl
    kernel.impl = impl
    try:
        bench = []
        for _ in range(SPEEDUP_REPEATS):
            t = time.perf_counter()
            for p in bench_points:
                oracle.integrate_mode(p)
            bench.append(time.perf_counter() - t)
    finally:
        kernel.impl = saved
    pre = f"kernel.{b}"
    return {
        f"{pre}.integrate_endpoint.calls": (sum(s.name.endswith("endpoint") for s in ks), "count"),
        f"{pre}.integrate_pair_drift.calls": (sum(s.name.endswith("drift") for s in ks), "count"),
        f"{pre}.accepted_steps": (steps, "count"),
        f"{pre}.ns_per_step": (kernel_s / steps * 1e9, "ns"),
        f"{pre}.s_per_oracle_point": (oracle_s / len(points), "s"),
        f"{pre}.drift_max": (max(s.note[1] for s in ks), "ratio"),
        f"{pre}.bench_s": (statistics.median(bench), "s"),
    }


def _span_metrics(spans: list, summary: dict, rows: int) -> dict:
    def agg(name, key):
        return summary.get(name, {}).get(key, 0)

    optimize_ids = {s.id for s in spans if s.name == "sweeps.optimize"}
    in_optimize = sum(s.name == "probe.qfi_eps" and s.parent in optimize_ids for s in spans)
    sweeps_ = [s.note for s in spans if s.name == "sweeps.sweep"]
    residuals = [s.note for s in spans if s.name == "oracle.integrate_mode" and s.ok]
    grid = [s.note for s in spans if s.name == "verify.check_gamma_vs_sinh"]
    m = {
        "cli.main.self_s": (agg("cli.main", "self_s"), "s"),
        "cli.result_points": (rows, "count"),
        "sweeps.sweep.self_s": (agg("sweeps.sweep", "self_s"), "s"),
        "sweeps.sweep.rows": (sum(n for n, _ in sweeps_), "count"),
        "sweeps.sweep.nan_rows": (sum(n for _, n in sweeps_), "count"),
        "sweeps.optimize.self_s": (agg("sweeps.optimize", "self_s"), "s"),
        # qfi_eps calls inside optimize, less the final evaluation at the optimum
        "sweeps.optimize.objective_calls": (in_optimize - len(optimize_ids), "count"),
        "probe.qfi_eps.calls": (agg("probe.qfi_eps", "calls"), "count"),
        "probe.qfi_eps.self_s": (agg("probe.qfi_eps", "self_s"), "s"),
        "probe.probe.calls_per_row": (agg("probe.probe", "calls") / rows, "calls/row"),
        "qfi.classical_fisher.calls": (agg("qfi.classical_fisher", "calls"), "count"),
        "qfi.classical_fisher.self_s": (agg("qfi.classical_fisher", "self_s"), "s"),
        "cosmology.frequencies.calls_per_row": (
            agg("cosmology.frequencies", "calls") / rows, "calls/row"),
        "specfun.log_gamma.calls": (agg("specfun.log_gamma", "calls"), "count"),
        "oracle.integrate_mode.calls": (agg("oracle.integrate_mode", "calls"), "count"),
        "oracle.integrate_mode.self_s": (agg("oracle.integrate_mode", "self_s"), "s"),
        "oracle.wronskian_drift.calls": (agg("oracle.wronskian_drift", "calls"), "count"),
        "oracle.wronskian_drift.self_s": (agg("oracle.wronskian_drift", "self_s"), "s"),
        "oracle.fit_residual_max": (max(residuals, default=0.0), "ratio"),
        "verify.grid_points": (grid[0] if grid else 0, "count"),
    }
    for fn in ("excitation_weight", "dX_deps_analytic", "dX_deps_fd", "coefficients"):
        m[f"bogoliubov.{fn}.calls"] = (agg(f"bogoliubov.{fn}", "calls"), "count")
        m[f"bogoliubov.{fn}.self_s"] = (agg(f"bogoliubov.{fn}", "self_s"), "s")
    for check in ("gamma_vs_sinh", "qfi_identity", "measurement_optimality", "derivative",
                  "ode_oracle", "wronskian"):
        m[f"verify.{check}.s"] = (agg(f"verify.check_{check}", "total_s"), "s")
    return m


def traced_run(root: Path, work: Path, env: dict, cleared: list[str], workload: str,
               seed: int) -> tuple[dict, dict]:
    setup = harness.set_up(root, work, env, "tree")
    metrics = _fresh_interpreter(env, setup.tree, work)
    pkg = harness.import_program(setup.tree)
    from cosmo_qfi import cli

    out_dir = work / "out"
    out_dir.mkdir()
    argvs = workloads.generate(workload, seed, str(out_dir))
    rows = sum(workloads.result_points(a) for a in argvs)

    untraced_s, _ = _run_pass(cli.main, argvs)
    tracer = tracing.Tracer()
    kernel = sys.modules["cosmo_qfi._kernel"]
    with tracing.install(tracer, kernel_backend=kernel.impl):
        traced_s, results = _run_pass(tracer.wrap("cli.main", cli.main), argvs)
    checker = workloads.Checker(harness.checker_lib(pkg), seed)
    attempted, failed = _check(checker, argvs, results)

    edge = workloads.domain_edge(seed) if workload == "cli-short" else []
    _, edge_results = _run_pass(cli.main, edge)
    _, edge_failed = _check(checker, edge, edge_results)

    summary = tracing.summarize(tracer.spans)
    metrics.update(_span_metrics(tracer.spans, summary, rows))
    metrics.update(_layer_timings(pkg, _workload_points(workload, argvs, pkg)))
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["cli.domain_edge_points"] = (len(edge), "count")
    metrics["cli.domain_edge_failed_share"] = (edge_failed / len(edge) if edge else 0.0, "ratio")

    verify = sys.modules["cosmo_qfi.verify"]
    oracle_points = (verify.oracle_points(workloads.VERIFY_ODE_POINTS)
                     if workload == "oracle-verify" else [])
    bench_points = [pkg.ModelParams(*t) for t in BENCH_KERNEL_POINTS]
    kernel_points = oracle_points + bench_points
    metrics.update(_kernel_pass(sys.modules["cosmo_qfi._kernel.pure"], kernel_points,
                                bench_points))
    compiled, how = build_compiled(setup.tree, work)
    if compiled is not None:
        metrics.update(_kernel_pass(compiled, kernel_points, bench_points))
        metrics["kernel.compiled_speedup"] = (
            metrics["kernel.pure.bench_s"][0] / metrics["kernel.compiled.bench_s"][0], "ratio")

    tracing.dump(tracer.spans, str(work / "spans.jsonl"))
    details = {
        "env": harness.environment_record(
            root, seed, workload, cleared, setup.backend,
            True if compiled is not None else f"no: {how}"),
        "seed_varies_inputs": workloads.SEED_VARIES_INPUTS[workload],
        "compile_s": how if compiled is not None else None,
        "spans": len(tracer.spans),
        "kernel_points": len(kernel_points),
        "trace_overhead": {"traced_s": traced_s, "untraced_s": untraced_s},
        "compiled_speedup_base": {
            "points": len(bench_points),
            "pure_s": metrics["kernel.pure.bench_s"][0],
            "compiled_s": metrics["kernel.compiled.bench_s"][0] if compiled is not None else None,
        },
    }
    return harness.result(failed == 0, attempted, failed, metrics), details
