"""Backend selection for the mode-equation integrator.

The compiled kernel (`_mode_rk`, built from the hand-written `_mode_rk.c`)
runs when it was built; the pure-Python twin runs otherwise.  Tests pick a
twin by setting `impl`, and tier-1 holds both to the same oracle results.
Both expose the same two entry points, each advancing one solution of the
mode equation, a 4-component state: `integrate_endpoint`, and
`integrate_pair_drift`, which also tracks the solution's conserved Dirac norm
as an integrator gauge.  Both take their eight arguments positionally only,
the state as any 4-item sequence of numbers; the C twin leaves the state to
CPython's argument parser, and both raise its `TypeError` for a state of any
other length.  The oracle calls only `integrate_pair_drift`;
`integrate_endpoint` stays only for the backend parity tests and for the
benchmark's kernel tracing in `perfbench/`, and `integrate_pair_drift` keeps
the name of the stacked pair and Wronskian it once tracked because
`perfbench/` traces it by that name.

Each twin runs one DOP853 loop (Hairer's 8th-order pair with its combined
5th/3rd-order error estimate) behind both entry points, summing every stage
in the same order, so the twins take the same steps.  The pure twin's loop is
unrolled over psi and psi' as two complex locals (see `pure`); the tests hold
it to the C twin step for step and to SciPy's DOP853.

Importing this package does not import the pure twin: `BACKEND` is set from
the attempt to import `_mode_rk`, and `impl` resolves to `pure` on first
access through the module `__getattr__` (PEP 562), so only the commands that
integrate the mode equation compile it.  Both twins return only on success:
a failed run raises RuntimeError whose whole message is the cause, "step
budget exhausted", "step size underflow" or "non-finite error estimate".
"""

from __future__ import annotations

try:
    from . import _mode_rk as impl
except ImportError:
    BACKEND = "pure"
else:
    BACKEND = impl.BACKEND


def __getattr__(name: str):
    if name != "impl":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pure

    globals()["impl"] = pure  # later reads find it without this hook
    return pure
