"""Process and set-up helpers shared by the timed and the traced runs."""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ENV_PREFIX = "COSMO_QFI_"
CHILD_TIMEOUT_S = 150.0

# Not copied into a fresh tree: benchmark work files, build outputs, caches.
_COPY_IGNORE = shutil.ignore_patterns(
    ".bench_work", ".bench_build", ".git", "__pycache__", ".pytest_cache", "build", "*.so",
)

# Run in a fresh interpreter: time `import cosmo_qfi.cli`, count the modules
# it loads and report the kernel backend the package selected.
IMPORT_PROBE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import cosmo_qfi.cli, cosmo_qfi\n"
    "print(time.perf_counter() - t, len(sys.modules) - n, cosmo_qfi.kernel_backend)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot evaluate a check."""


def checkout_root() -> Path:
    root = Path(__file__).resolve().parent.parent
    if not ((root / "setup.py").is_file() and (root / "src" / "cosmo_qfi" / "cli.py").is_file()):
        raise BenchError(f"{root} holds no cosmo_qfi source tree (setup.py, src/cosmo_qfi)")
    return root


def clean_env() -> tuple[dict, list[str]]:
    """The inherited environment without COSMO_QFI_* variables, so the
    defaults a user gets are measured; also returns the names removed."""
    cleared = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    return {k: v for k, v in os.environ.items() if k not in cleared}, cleared


def tree_env(env: dict, tree: Path) -> dict:
    out = dict(env)
    src = str(tree / "src")
    out["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return out


@dataclass
class Outcome:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(cmd: list, env: dict, cwd: Path, workdir: Path) -> Outcome:
    """Run one process to completion; wall time and its own peak RSS.

    Output goes to files so the parent can block in wait4, which reports the
    child's resource usage.  A child still running after CHILD_TIMEOUT_S is
    killed and reported with its signal as a negative return code.
    """
    with open(workdir / "child.out", "w+b") as out, open(workdir / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"))


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "cosmo_qfi.cli", *argv]


@dataclass
class Setup:
    tree: Path
    seconds: float
    backend: str


def set_up(root: Path, work: Path, env: dict, label: str) -> Setup:
    """Make a fresh copy of the checkout runnable and time it.

    The timed part is `setup.py build_ext --inplace` followed by the first
    `import cosmo_qfi.cli` in a fresh interpreter with an empty bytecode
    cache, so work moved into the build or into import shows here.
    """
    tree = work / label
    shutil.copytree(root, tree, ignore=_COPY_IGNORE)
    child_env = tree_env(env, tree)
    t0 = time.perf_counter()
    build = run_child([sys.executable, "setup.py", "build_ext", "--inplace"], child_env, tree, work)
    probe = run_child([sys.executable, "-c", IMPORT_PROBE], child_env, tree, work)
    seconds = time.perf_counter() - t0
    if build.rc != 0:
        raise BenchError(f"build_ext failed ({build.rc}): {build.stderr[-2000:]}")
    fields = probe.stdout.split()
    if probe.rc != 0 or len(fields) != 3:
        raise BenchError(f"import cosmo_qfi.cli failed: {probe.stdout[-500:]}"
                         f" {probe.stderr[-2000:]}")
    return Setup(tree, seconds, fields[2])


def import_program(tree: Path):
    """Import cosmo_qfi from `tree` into this process with the cleaned
    environment; returns the package."""
    for name in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        del os.environ[name]
    sys.path.insert(0, str(tree / "src"))
    pkg = importlib.import_module("cosmo_qfi")
    if not Path(pkg.__file__).resolve().is_relative_to(tree.resolve()):
        raise BenchError(f"cosmo_qfi imported from {pkg.__file__}, not from {tree}")
    return pkg


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, for checkouts without git data."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    for name in ("setup.py", "pyproject.toml"):
        h.update((root / name).read_bytes())
    return h.hexdigest()


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def environment_record(root: Path, seed: int, workload: str, cleared: list[str],
                       backend: str, compiled_built) -> dict:
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = importlib.import_module(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": backend,
        "compiled_kernel_built": compiled_built,
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "workload": workload,
        "cosmo_qfi_env_cleared": True,
        "cosmo_qfi_env_removed": cleared,
    }


def checker_lib(pkg) -> SimpleNamespace:
    """The library routes workloads.Checker compares CLI outputs against."""
    from cosmo_qfi.cosmology import frequencies

    return SimpleNamespace(ModelParams=pkg.ModelParams, coefficients=pkg.coefficients,
                           ratio_sq=pkg.ratio_sq, frequencies=frequencies,
                           CosmoQfiError=pkg.CosmoQfiError)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The result object; `metrics` maps name -> (value, unit)."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
