"""Span recording around calls into the cosmo_qfi modules.

The program is not changed: `install` replaces each traced public function by
a recording wrapper on every module that refers to it by name, because
`sweeps`, `probe`, `bogoliubov` and `cli` import functions by name and call
them through their own globals.  Modules are looked up through `sys.modules`,
since package attributes can shadow submodules (`cosmo_qfi.probe` is the
`probe` function).  The kernel is traced by swapping
`sys.modules['cosmo_qfi._kernel'].impl`, which `oracle` resolves at call time.

Each span records its name, start, end, parent and thread.  Parent links are
kept per thread; work submitted to a thread pool of the program takes the
submitting thread's innermost span as its parent.  Spans stay in memory; the
caller writes them out once the traced run ends.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import itertools
import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

PACKAGE = "cosmo_qfi"

# (module, function) pairs traced in the closed-form, oracle and verify layers.
TRACED = (
    ("sweeps", "sweep"),
    ("sweeps", "optimize"),
    ("probe", "qfi_eps"),
    ("probe", "probe"),
    ("qfi", "classical_fisher"),
    ("bogoliubov", "excitation_weight"),
    ("bogoliubov", "dX_deps_analytic"),
    ("bogoliubov", "dX_deps_fd"),
    ("bogoliubov", "coefficients"),
    ("bogoliubov", "mixing_sq_sinh"),
    ("cosmology", "frequencies"),
    ("specfun", "log_gamma"),
    ("oracle", "integrate_mode"),
    ("oracle", "wronskian_drift"),
    ("verify", "check_gamma_vs_sinh"),
    ("verify", "check_qfi_identity"),
    ("verify", "check_measurement_optimality"),
    ("verify", "check_derivative"),
    ("verify", "check_ode_oracle"),
    ("verify", "check_wronskian"),
)


# Values kept from a traced call's result, by span name.
NOTES = {
    "sweeps.sweep": lambda rows: (len(rows), sum(math.isnan(r.qfi) for r in rows)),
    "oracle.integrate_mode": lambda r: r.fit_residual,
    "oracle.wronskian_drift": float,
    "verify.check_gamma_vs_sinh": lambda r: r.points,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    ok: bool = True
    note: object = None


class Tracer:
    """Collects spans; parent links are thread-local."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def current(self) -> int | None:
        return self._stack()[-1]

    @contextmanager
    def adopt(self, parent: int | None):
        """Run the body with `parent` as this thread's innermost span."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(result)` is kept on the span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)  # one C call: atomic under the interpreter lock
            span = Span(sid, stack[-1], name, 0.0, 0.0, threading.get_ident())
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            else:
                if note is not None:
                    span.note = note(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        return traced


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _pool_class(tracer: Tracer):
    base = concurrent.futures.ThreadPoolExecutor

    class TracingPool(base):
        """Thread pool whose tasks inherit the submitter's innermost span."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task():
                with tracer.adopt(parent):
                    return fn(*args, **kwargs)

            return super().submit(task)

    return TracingPool


@contextmanager
def install(tracer: Tracer, kernel_backend=None, functions=TRACED):
    """Trace `functions` ((module, name) pairs), the program's thread pools
    and, when `kernel_backend` (a kernel implementation module) is given, the
    kernel.

    Everything replaced is restored on exit.
    """
    saved = []  # (module, attribute, original)

    def replace(mod, attr, value):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    try:
        homes = [importlib.import_module(f"{PACKAGE}.{m}") for m, _ in functions]
        modules = _package_modules()
        for home, (mod_name, fn_name) in zip(homes, functions):
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = tracer.wrap(name, original, NOTES.get(name))
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    replace(mod, attr, wrapper)
        pool = _pool_class(tracer)
        for mod in modules:
            if vars(mod).get("ThreadPoolExecutor") is concurrent.futures.ThreadPoolExecutor:
                replace(mod, "ThreadPoolExecutor", pool)
        if kernel_backend is not None:
            replace(sys.modules[f"{PACKAGE}._kernel"], "impl",
                    traced_kernel(tracer, kernel_backend))
        yield tracer
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def traced_kernel(tracer: Tracer, impl) -> SimpleNamespace:
    """A stand-in for a kernel implementation module that records spans.

    The entry points return (state, steps, status) and (state, drift, steps,
    status); spans keep (accepted steps, drift).
    """
    name = impl.BACKEND
    return SimpleNamespace(
        BACKEND=name,
        integrate_endpoint=tracer.wrap(f"kernel.{name}.integrate_endpoint",
                                       impl.integrate_endpoint, lambda r: (r[1], 0.0)),
        integrate_pair_drift=tracer.wrap(f"kernel.{name}.integrate_pair_drift",
                                         impl.integrate_pair_drift, lambda r: (r[2], r[1])),
    )


# ------------------------------------------------------------- aggregation


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total duration and self time.

    Self time is a span's duration minus the part of it that its child
    spans cover (children of pool tasks may overlap; their union counts).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered([k for k in kids if k[1] > k[0]])
    return out


def dump(spans: list[Span], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                "end": s.end, "thread": s.thread, "ok": s.ok,
            }) + "\n")
