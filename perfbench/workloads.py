"""Seeded workload generation and output checks for the cosmo-qfi benchmark.

A workload is a *pass*: a fixed list of CLI invocations (argument lists for
``python -m cosmo_qfi.cli``) generated from the benchmark seed.  The timed
run repeats the pass in a closed loop with one client, so every pass after
the first reruns identical flags and doubles as the byte-identity check.

Why these workloads:

* ``sweep-batch`` -- two large sweeps, over ``m`` and over ``k``, across the
  0.1..10 paper range with the analytic derivative (the CLI has no
  log-spacing flag, so the grids are linear).  The closed-form layers, the
  sweep thread pool and CSV writing do almost all of the work and startup is
  a small share; the kernel does none.
* ``cli-short`` -- separate ``point`` and ``optimize`` invocations, some with
  ``--deriv-method fd``, drawn from the paper range.  Interpreter start and
  imports dominate; the closed form is reached through scalar calls only.
  The traced run adds points drawn log-uniform over the 1e-2..1e2 cube, where
  known domain-edge failures land in the traced ``failed_share``.
* ``oracle-verify`` -- ``verify`` at its default identity grid with
  ``--ode-points`` well past the 8 curated oracle points, the only workload
  that reaches the mode-equation oracle and its kernel.  ``verify`` fixes its
  own oracle points, so the seed does not vary this workload's inputs.
"""

from __future__ import annotations

import json
import math
import random

SWEEP_HEADER = "value,qfi,bound,entropy,p1"
SWEEP_POINTS = 20000
VERIFY_GRID = 10  # verify's default --points
VERIFY_ODE_POINTS = 12
VERIFY_CHECKS = 6
DOMAIN_EDGE_POINTS = 100
GAMMA_RTOL = 1e-10
GAMMA_SAMPLE_ROWS = 100

WORKLOADS = ("sweep-batch", "cli-short", "oracle-verify")

# Parameters the seed does not vary, per workload.
SEED_VARIES_INPUTS = {"sweep-batch": True, "cli-short": True, "oracle-verify": False}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def sweep_batch(seed: int, out_dir: str) -> list[list[str]]:
    """Two 20000-point sweeps, m at eps=k=1 and k at eps=m=1, over the
    0.1..10 paper range with seed-jittered ends."""
    rng = random.Random(f"sweep-batch/{seed}")
    argvs = []
    for i, (var, fixed) in enumerate((("m", "--k"), ("k", "--m"))):
        lo = 0.1 * (1.0 + 0.2 * rng.random())
        hi = 10.0 * (1.0 - 0.1 * rng.random())
        argvs.append([
            "sweep", "--var", var, "--lo", _fmt(lo), "--hi", _fmt(hi),
            "--points", str(SWEEP_POINTS), "--eps", "1", fixed, "1",
            "--out", f"{out_dir}/sweep-{i}.csv",
        ])
    return argvs


def _point_argv(rng: random.Random, lo: float, hi: float, deriv: str) -> list[str]:
    eps, m, k = (_log_uniform(rng, lo, hi) for _ in range(3))
    return ["point", "--eps", _fmt(eps), "--m", _fmt(m), "--k", _fmt(k),
            "--deriv-method", deriv]


def cli_short(seed: int) -> list[list[str]]:
    """Eight invocations in seeded order: four analytic and two fd `point`
    calls, one analytic and one fd `optimize`, all in the paper range."""
    rng = random.Random(f"cli-short/{seed}")
    argvs = [_point_argv(rng, 0.1, 10.0, "analytic") for _ in range(4)]
    argvs += [_point_argv(rng, 0.1, 10.0, "fd") for _ in range(2)]
    for deriv in ("analytic", "fd"):
        var, other = rng.choice((("k", "--m"), ("m", "--k")))
        argvs.append([
            "optimize", "--var", var,
            "--lo", _fmt(0.1 * (1.0 + 0.2 * rng.random())),
            "--hi", _fmt(10.0 * (1.0 - 0.1 * rng.random())),
            "--eps", _fmt(_log_uniform(rng, 0.1, 10.0)),
            other, _fmt(_log_uniform(rng, 0.1, 10.0)),
            "--deriv-method", deriv,
        ])
    rng.shuffle(argvs)
    return argvs


def domain_edge(seed: int) -> list[list[str]]:
    """`point` invocations log-uniform over the 1e-2..1e2 cube (traced run)."""
    rng = random.Random(f"domain-edge/{seed}")
    return [_point_argv(rng, 1e-2, 1e2, "analytic") for _ in range(DOMAIN_EDGE_POINTS)]


def oracle_verify() -> list[list[str]]:
    return [["verify", "--points", str(VERIFY_GRID), "--ode-points", str(VERIFY_ODE_POINTS)]]


def generate(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """The pass of one workload: a list of CLI argument lists."""
    if workload == "sweep-batch":
        return sweep_batch(seed, out_dir)
    if workload == "cli-short":
        return cli_short(seed)
    if workload == "oracle-verify":
        return oracle_verify()
    raise ValueError(f"unknown workload {workload!r}")


def result_points(argv: list[str]) -> int:
    """Result points one invocation emits: CSV rows for `sweep`, one for
    `point` and `optimize`, and the parameter points `verify` checks."""
    if argv[0] == "sweep":
        return int(argv[argv.index("--points") + 1])
    if argv[0] == "verify":
        n = int(argv[argv.index("--points") + 1])
        return 4 * n ** 3 + 2 * int(argv[argv.index("--ode-points") + 1])
    return 1


# ---------------------------------------------------------------- checks


class Checker:
    """Checks CLI outputs against independent routes of the library.

    `lib` is a namespace holding `ModelParams`, `coefficients`, `ratio_sq`,
    `frequencies` and `CosmoQfiError` from the program under test; the Gamma
    route they form is independent of the sinh route the CLI prints.  Each
    check returns a list of failure strings, empty when the output is correct.
    A zero-information result (qfi 0, infinite bound) is a documented output,
    not a failure.
    """

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"checks/{seed}")
        self.gamma_checked = 0

    def gamma_mismatch(self, eps: float, m: float, k: float, X: float) -> str | None:
        lib = self.lib
        p = lib.ModelParams(eps=eps, m_tilde=m, k_tilde=k)
        self.gamma_checked += 1
        try:
            ref = lib.ratio_sq(lib.coefficients(p)) * lib.frequencies(p).chi_abs ** 2
        except (ArithmeticError, lib.CosmoQfiError) as exc:
            return f"Gamma route raised {exc!r} at {(eps, m, k)}"
        scale = max(abs(X), abs(ref))
        if not (math.isfinite(X) and (scale == 0.0 or abs(X - ref) <= GAMMA_RTOL * scale)):
            return f"X={X!r} disagrees with Gamma route {ref!r} at {(eps, m, k)}"
        return None

    def check(self, argv: list[str], stdout: str,
              files: dict[str, bytes]) -> tuple[list[str], int, int]:
        """Check one successful invocation.

        Returns (failures, rows, failed_rows); rows count only for `sweep`.
        """
        cmd = argv[0]
        if cmd == "sweep":
            return self._check_sweep(argv, stdout, files)
        if cmd == "verify":
            return self._check_verify(stdout), 0, 0
        return self._check_json(argv, stdout), 0, 0

    def _check_json(self, argv: list[str], stdout: str) -> list[str]:
        try:
            doc = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        if not isinstance(doc, dict):
            return ["stdout is not a JSON object"]
        f = flags(argv)
        trials = float(f.get("--trials", "1e11"))
        fails = []
        qfi, bound = doc.get("qfi"), doc.get("bound")
        if not (isinstance(qfi, (int, float)) and math.isfinite(qfi) and qfi >= 0.0):
            return [f"qfi {qfi!r} is not finite and non-negative"]
        if not (bound == "inf" if qfi == 0.0 else isinstance(bound, float)
                and math.isclose(bound, 1.0 / (trials * qfi), rel_tol=1e-12)):
            fails.append(f"bound {bound!r} is not 1/(trials*qfi)")
        if argv[0] == "point":
            X, p0, p1 = doc.get("X"), doc.get("p0"), doc.get("p1")
            if not all(isinstance(v, float) for v in (X, p0, p1)):
                return fails + ["X, p0, p1 missing"]
            msg = self.gamma_mismatch(doc["eps"], doc["m_tilde"], doc["k_tilde"], p1 / p0)
            if msg:
                fails.append(msg)
        else:
            lo, hi = float(f["--lo"]), float(f["--hi"])
            opt = doc.get("optimum")
            if not (isinstance(opt, float) and lo <= opt <= hi):
                fails.append(f"optimum {opt!r} outside [{lo}, {hi}]")
        return fails

    def _check_sweep(self, argv, stdout, files):
        f = flags(argv)
        out = f["--out"]
        data = files.get(out)
        if data is None:
            return [f"sweep wrote no {out}"], 0, 0
        lines = data.decode("utf-8").split("\n")
        points = int(f["--points"])
        if stdout.strip() != out:
            return [f"sweep stdout {stdout!r} is not the output path"], 0, 0
        if not (lines[0].startswith("# manifest: {") and lines[1] == SWEEP_HEADER
                and lines[-1] == "" and len(lines) == points + 3):
            return [f"{out}: bad manifest, header or row count"], 0, 0
        rows = lines[2:-1]
        fixed = {"m": float(f.get("--m", "1")), "k": float(f.get("--k", "1"))}
        eps = float(f.get("--eps", "1"))
        var = f["--var"]
        failed_rows = 0
        sample = set(self.rng.sample(range(points), min(GAMMA_SAMPLE_ROWS, points)))
        for i, row in enumerate(rows):
            try:
                value, qfi, bound, entropy, p1 = (float(x) for x in row.split(","))
            except ValueError:
                failed_rows += 1
                continue
            zero_info = qfi == 0.0 and bound == math.inf
            if not (all(math.isfinite(x) for x in (value, qfi, entropy, p1))
                    and (zero_info or math.isfinite(bound))):
                failed_rows += 1
                continue
            if i in sample:
                params = dict(fixed, **{var: value})
                if self.gamma_mismatch(eps, params["m"], params["k"], p1 / (1.0 - p1)):
                    failed_rows += 1
        return [], points, failed_rows

    @staticmethod
    def _check_verify(stdout: str) -> list[str]:
        lines = stdout.rstrip("\n").split("\n")
        rows = lines[1:-1]
        if len(rows) != VERIFY_CHECKS or lines[-1] != "all checks passed":
            return [f"verify printed {len(rows)} checks, last line {lines[-1]!r}"]
        bad = [r for r in rows if not r.endswith("  PASS")]
        return [f"verify check not PASS: {r}" for r in bad]


def _reject_constant(name: str):
    raise ValueError(f"bare {name} literal")


def flags(argv: list[str]) -> dict[str, str]:
    """The `--name value` pairs of a CLI argument list."""
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
