"""Sweep and optimization engine for the bound and QFI curves.

Sweeps evaluate the estimation figures of merit over a one-dimensional grid
in any of the three channel parameters; rows carry the entropy column so the
entanglement comparison falls out of the same pass.  Optimization locates the
coordinate minimizing the error bound with a dense log-spaced pre-scan, then
zooms in by re-scanning a finer linear grid over the two cells around the best
point until the spacing is at most 1e-6.  The best point seen is kept, so the
result can never be worse than the pre-scan and unimodality is not assumed.

Sweep grid points are independent.  By default `sweep` runs on the calling
thread, and a sweep large enough to give every CPU this process may run on
at least `_MIN_ROWS_PER_WORKER` rows is split into contiguous slices, one
per CPU: forked workers compute all but the first and send their rows back
through pipes, in the form the caller keeps (the CLI's are CSV lines), and
the caller computes every slice it does not receive whole.  That fan-out
lives in `_fanout`, which `verify` shares.  A COSMO_QFI_THREADS
value above 1 runs the sweep on that many threads instead (a negative or
non-integer value is a usage error).  Row order and values depend on neither.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor

from . import _fanout
from .bogoliubov import ANALYTIC
from .cosmology import ModelParams
from .errors import CosmoQfiError
from .probe import DEFAULT_TRIALS, qfi_eps, state_entropy, probe

SWEEP_VARIABLES = ("m_tilde", "k_tilde", "eps")

_PRESCAN_POINTS = 1000
_ZOOM_POINTS = 21  # odd, so each later zoom grid is centred on the best point so far
_REFINE_XATOL = 1e-6
# Fewest rows a forked sweep worker is given.  On a 2-CPU x86-64 box with
# the CLI loaded, forking, piping and reaping one worker took 2.1-2.6 ms and
# marshal 1.3-1.6 us per row out and back, against 25-30 us per row
# computed: a worker pays for itself from about 100 rows where a CPU is
# idle, and at 2048 rows costs about 5 % of the serial time where none is.
_MIN_ROWS_PER_WORKER = 2048


class SweepSpec(namedtuple("SweepSpec", ("variable", "lo", "hi", "points", "fixed", "trials"))):
    """One-dimensional sweep description.

    `fixed` supplies the two parameters that are not swept (its value for the
    swept coordinate is ignored).  lo = 0 is admitted only when sweeping
    m_tilde, where zero mass is a valid degenerate input.
    """

    __slots__ = ()

    def __new__(cls, variable: str, lo: float, hi: float, points: int, fixed: ModelParams,
                trials: float = DEFAULT_TRIALS):
        if variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
        lo_min_ok = lo > 0.0 or (lo == 0.0 and variable == "m_tilde")
        if not lo_min_ok:
            raise ValueError(f"lo must be > 0 (>= 0 for m_tilde), got {lo}")
        if not lo < hi < math.inf:
            raise ValueError(f"hi must be finite and exceed lo, got [{lo}, {hi}]")
        try:
            points = operator.index(points)
        except TypeError:
            raise ValueError(f"points must be an integer, got {points!r}") from None
        if points < 2:
            raise ValueError(f"points must be >= 2, got {points}")
        if not (math.isfinite(trials) and trials >= 1):
            raise ValueError(f"trials must be finite and >= 1, got {trials}")
        return tuple.__new__(cls, (variable, lo, hi, points, fixed, trials))

    @classmethod
    def _make(cls, iterable):
        # Through the constructor, so `_replace` validates too.
        return cls(*iterable)


class SweepRow(namedtuple("SweepRow", ("value", "qfi", "bound", "entropy", "p1"))):
    """One grid point: swept value, QFI, error bound, entropy, excitation."""

    __slots__ = ()


def _grid(lo: float, hi: float, points: int) -> list[float]:
    """`points` evenly spaced values from exactly `lo` to exactly `hi`: where
    i * (hi - lo) overflows, i / n is taken first, and every other point is
    lo + i * (hi - lo) / n to the bit."""
    span, n = hi - lo, points - 1
    vals = []
    for i in range(points):
        t = i * span
        vals.append(lo + (t / n if t != math.inf else i / n * span))
    vals[0], vals[-1] = lo, hi
    return vals


def _params_at(fixed: ModelParams, variable: str, value: float) -> ModelParams:
    # Positional: `fixed._replace` or a keyword dict costs more per point,
    # and the constructor validates the point either way.
    eps, m_tilde, k_tilde = fixed
    if variable == "eps":
        return ModelParams(value, m_tilde, k_tilde)
    if variable == "m_tilde":
        return ModelParams(eps, value, k_tilde)
    return ModelParams(eps, m_tilde, value)


def _thread_count() -> int:
    """Sweep worker threads: a positive COSMO_QFI_THREADS as given, else 1.

    Any value other than an integer >= 0 raises ValueError.
    """
    raw = os.environ.get("COSMO_QFI_THREADS") or "0"
    try:
        n = int(raw)
        if n < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"COSMO_QFI_THREADS must be an integer >= 0, got {raw!r}") from None
    return n if n > 0 else 1


def _process_count(points: int) -> int:
    """Processes to spread a sweep of `points` rows over: one per CPU the
    fan-out may use, but no more than give each at least
    _MIN_ROWS_PER_WORKER rows."""
    return max(1, min(_fanout.cpus(), points // _MIN_ROWS_PER_WORKER))


def _eval_row(p: ModelParams, trials: float, deriv_method: str) -> tuple:
    est = qfi_eps(p, trials=trials, deriv_method=deriv_method)
    st = probe(p, deriv_method=deriv_method)
    return est.qfi, est.bound, state_entropy(st), st.p1


def _sweep_slices(spec: SweepSpec, deriv_method: str, fmt) -> list[list]:
    """`sweep`'s rows in grid order, one list per slice, each row given as
    `fmt((value, qfi, bound, entropy, p1))` by the process that computed it."""
    values = _grid(spec.lo, spec.hi, spec.points)

    def one(value: float):
        try:
            q, b, s, p1 = _eval_row(
                _params_at(spec.fixed, spec.variable, value), spec.trials, deriv_method
            )
        except CosmoQfiError:
            return fmt((value, math.nan, math.inf, math.nan, math.nan))
        return fmt((value, q, b, s, p1))

    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [list(pool.map(one, values))]
    return _fanout.forked_rows(lambda part: [one(v) for v in part], values,
                               _process_count(spec.points))


def sweep(spec: SweepSpec, deriv_method: str = ANALYTIC) -> list[SweepRow]:
    """Evaluate the estimation curve over the grid, in ascending order.

    Degenerate points do not abort the sweep: a zero-information point (for
    example m_tilde = 0) gets qfi 0 and an infinite bound, and a point whose
    evaluation fails outright gets NaN figures with an infinite bound.
    """
    return [tuple.__new__(SweepRow, t)
            for part in _sweep_slices(spec, deriv_method, tuple) for t in part]


class OptimumResult(namedtuple(
        "OptimumResult", ("coordinate", "estimation", "boundary_warning"))):
    """Located optimum of the error bound over one coordinate."""

    __slots__ = ()


def optimize(
    variable: str,
    lo: float,
    hi: float,
    fixed: ModelParams,
    trials: float = DEFAULT_TRIALS,
    deriv_method: str = ANALYTIC,
) -> OptimumResult:
    """Coordinate in [lo, hi] minimizing the error bound.

    A dense log-spaced pre-scan, `exp` of the evenly spaced grid over
    [ln lo, ln hi] with its ends set to exactly lo and hi, guards against
    local traps and reaches every decade of a wide range.  The two cells
    around the best point seen are then re-scanned on a finer linear grid,
    shrinking the spacing tenfold each time, until it is at most 1e-6
    absolute in the coordinate (or the cells collapse below the spacing of
    doubles).  The best point seen over all scans is returned.
    boundary_warning is set when the optimum lies in the first or last
    pre-scan cell, or when a pre-scan neighbour of the best pre-scan point
    has an infinite bound (it raised or carries no information), so the
    optimum may be pinned against a region the objective cannot evaluate.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lo < hi and a finite hi, got [{lo}, {hi}]")

    def objective(value: float) -> float:
        try:
            est = qfi_eps(_params_at(fixed, variable, value), trials=trials,
                          deriv_method=deriv_method)
        except CosmoQfiError:
            return math.inf
        return est.bound

    prescan = [math.exp(v) for v in _grid(math.log(lo), math.log(hi), _PRESCAN_POINTS)]
    prescan[0], prescan[-1] = lo, hi
    bounds = [objective(v) for v in prescan]
    best_f = min(bounds)
    if math.isinf(best_f):
        raise CosmoQfiError("bound is infinite over the whole scan range")
    i = bounds.index(best_f)
    best_x = prescan[i]
    pinned = math.inf in bounds[max(i - 1, 0):i + 2]
    a, b = prescan[max(i - 1, 0)], prescan[min(i + 1, _PRESCAN_POINTS - 1)]

    def scan(grid: list[float]) -> None:
        nonlocal best_x, best_f
        for v in grid:
            f = objective(v)
            if f < best_f:
                best_x, best_f = v, f

    while True:
        step = (b - a) / (_ZOOM_POINTS - 1)
        scan(_grid(a, b, _ZOOM_POINTS))
        if step <= _REFINE_XATOL:
            break
        a, b = max(best_x - step, lo), min(best_x + step, hi)

    warn = best_x <= prescan[1] or best_x >= prescan[-2] or pinned
    est = qfi_eps(_params_at(fixed, variable, best_x), trials=trials,
                  deriv_method=deriv_method)
    return OptimumResult(coordinate=best_x, estimation=est, boundary_warning=warn)
