"""Backend selection for the mode-equation integrator.

The compiled kernel (`_mode_rk`, built from the hand-written `_mode_rk.c`)
runs when it was built; the pure-Python twin runs otherwise.  Tests pick a
twin by setting `impl`, and tier-1 holds both to the same oracle results.
Both expose the same two entry points, each advancing one spinor of the
Dirac system behind the mode equation in a given number of equal Magnus
steps: `integrate_endpoint`, and `integrate_pair_drift`, which also tracks
the spinor's conserved Dirac norm as a gauge of the arithmetic.  Both take
their seven arguments positionally only, the state as any 4-item sequence of
numbers; the C twin leaves the state to CPython's argument parser, and both
raise its `TypeError` for a state of any other length.  The oracle calls only
`integrate_pair_drift` and picks the step count itself;
`integrate_endpoint` stays only for the backend parity tests and for the
benchmark's kernel tracing in `perfbench/`, and `integrate_pair_drift` keeps
the name of the stacked pair and Wronskian it once tracked because
`perfbench/` traces it by that name.

Each twin runs one fixed-step 4th-order Magnus loop behind both entry points
with the same floating-point operations in the same order, so the twins
return the same bits (see `pure`); the tests hold them to each other and to
SciPy.  Neither twin raises on a non-finite result: the oracle checks what
it reads.

Importing this package does not import the pure twin: `BACKEND` is set from
the attempt to import `_mode_rk`, and `impl` resolves to `pure` on first
access through the module `__getattr__` (PEP 562), so only the commands that
integrate the mode equation compile it.  A `_mode_rk` built from an older
source takes tolerance arguments in place of the step count, so the oracle
fails on it with a `TypeError` until it is rebuilt.
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
