#!/usr/bin/env python3
"""cosmo-qfi benchmark: the CLI as a user runs it, one workload per call.

    python3 perfbench/run.py --workload sweep-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run copies the checkout into
`.bench_work/`, makes the copy runnable (`setup.py build_ext --inplace` and a
first cold import) and times that as `setup_s`.

`--trace 0` is the timed run: a single client in a closed loop starts a
fresh `python -m cosmo_qfi.cli ...` process per invocation, each after the
previous one exits, with COSMO_QFI_* cleared from the environment.  The
workload's pass (see workloads.py) repeats until `--seconds` have passed,
and at least twice, so every output is also checked to be byte-identical on
rerun.  `--trace 1` is the traced run: the same pass in this process with
spans recorded around the program's public functions (see layers.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; earlier lines starting with `#` describe the run.
The exit code is nonzero, with no result printed, when the checkout holds no
program or a check cannot be evaluated.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import workloads

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 2  # the second pass is the byte-identity rerun
WARMUP = ["point"]  # untimed, fills the OS caches


def _tail(walls: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, but not
    below the median: with fewer than 20 samples the tail is not resolved and
    the median is reported.  Returns (value, percentile, samples)."""
    n = len(walls)
    if n < 20:
        return statistics.median(walls), 50.0, n
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n, n


class Ledger:
    """Operations attempted and failed; an operation is one invocation or
    one sweep row."""

    def __init__(self, checker: workloads.Checker, cwd: Path):
        self.checker = checker
        self.cwd = cwd
        self.reference: dict[tuple, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, argv: list[str], o: harness.Outcome) -> None:
        files = {}
        if argv[0] == "sweep":
            out = argv[argv.index("--out") + 1]
            if (self.cwd / out).is_file():
                files[out] = (self.cwd / out).read_bytes()
        key = tuple(argv)
        output = (o.stdout, files)
        if o.rc != 0:
            fails, rows, bad_rows = [f"exit {o.rc}: {o.stderr.strip()[-300:]}"], 0, 0
        elif key not in self.reference:
            fails, rows, bad_rows = self.checker.check(argv, o.stdout, files)
            self.reference[key] = (output, rows, bad_rows)
        else:
            ref, rows, bad_rows = self.reference[key]
            fails = [] if output == ref else ["output differs from the first run of these flags"]
        self.attempted += 1 + rows
        self.failed += bool(fails) + bad_rows
        self.failures += [f"{' '.join(argv)}: {f}" for f in fails]
        if bad_rows:
            self.failures.append(f"{' '.join(argv)}: {bad_rows} bad rows")


def timed_run(root: Path, work: Path, env: dict, cleared: list[str], workload: str,
              seed: int, seconds: int) -> tuple[dict, dict]:
    setups = [harness.set_up(root, work, env, f"tree{i}") for i in range(SETUPS)]
    tree = setups[-1].tree
    pkg = harness.import_program(tree)
    lib = harness.checker_lib(pkg)
    child_env = harness.tree_env(env, tree)
    (work / "out").mkdir()
    argvs = workloads.generate(workload, seed, "out")
    ledger = Ledger(workloads.Checker(lib, seed), work)

    harness.run_child(harness.cli_cmd(WARMUP), child_env, work, work)
    outcomes, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        batch = [harness.run_child(harness.cli_cmd(a), child_env, work, work) for a in argvs]
        passes.append(time.perf_counter() - t0)
        for a, o in zip(argvs, batch):  # checks run outside the timed pass
            ledger.record(a, o)
            outcomes.append((a, o))
    if ledger.checker.gamma_checked == 0 and workload != "oracle-verify":
        raise harness.BenchError(f"no output reached the Gamma-route check: {ledger.failures[:3]}")

    walls = [o.wall_s for _, o in outcomes]
    tail, pct, n = _tail(walls)
    points = sum(workloads.result_points(a) for a, _ in outcomes)
    metrics = {
        "setup_s": (statistics.median(s.seconds for s in setups), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "call_p50_s": (statistics.median(walls), "s"),
        "call_tail_s": (tail, "s"),
        "points_per_s": (points / sum(walls), "1/s"),
        "peak_rss_mb": (max(o.rss_mb for _, o in outcomes), "MB"),
    }
    details = {
        "env": harness.environment_record(root, seed, workload, cleared, setups[-1].backend,
                                          "not attempted in the timed run"),
        "seed_varies_inputs": workloads.SEED_VARIES_INPUTS[workload],
        "setup_s_samples": [s.seconds for s in setups],
        "passes": len(passes),
        "pass_s": passes,
        "invocations": len(outcomes),
        "call_tail": {"percentile": pct, "samples": n},
        "result_points": points,
        "failed_share": {"value": ledger.failed / ledger.attempted, "failed": ledger.failed,
                         "attempted": ledger.attempted},
        "gamma_route_checks": ledger.checker.gamma_checked,
        "failures": ledger.failures[:20],
    }
    return harness.result(ledger.failed == 0, ledger.attempted, ledger.failed, metrics), details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        root = harness.checkout_root()
        work = root / ".bench_work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        env, cleared = harness.clean_env()
        if args.trace:
            import layers

            result, details = layers.traced_run(root, work, env, cleared, args.workload, args.seed)
        else:
            result, details = timed_run(root, work, env, cleared, args.workload, args.seed,
                                        args.seconds)
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("# " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
