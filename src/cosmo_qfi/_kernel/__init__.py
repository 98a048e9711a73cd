"""The mode-equation integrator the oracle runs: the pure-Python `pure`.

`pure` has two entry points, each advancing one spinor of the Dirac system
behind the mode equation in a given number of equal Magnus steps:
`integrate_endpoint`, and `integrate_pair_drift`, which also tracks the
spinor's conserved Dirac norm.  The oracle calls only `integrate_pair_drift`;
`integrate_endpoint` stays for the parity tests and for the benchmark's
kernel tracing in `perfbench/`, which traces both by these names.

`_mode_rk.c` is a C twin of `pure` with the same floating-point operations in
the same order.  The package never loads it, even where it was built into
this directory: it is the reference that the parity tests and the benchmark
compile and hold to `pure`'s bits.  They, and the benchmark's tracing, swap
`impl` to run the oracle on another twin.

Importing this package does not import `pure`: `impl` resolves to it on
first access through the module `__getattr__` (PEP 562), so only the
commands that integrate the mode equation compile it.
"""

from __future__ import annotations

BACKEND = "pure"


def __getattr__(name: str):
    if name != "impl":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pure

    globals()["impl"] = pure  # later reads find it without this hook
    return pure
