"""Backend selection for the mode-equation integrator.

The compiled kernel (`_mode_rk`, built from the hand-written `_mode_rk.c`)
is preferred when it was built; the pure-Python twin is the fallback and can
be forced with the COSMO_QFI_PURE environment variable (any nonempty value).
Both expose the same two entry points: `integrate_endpoint` and
`integrate_pair_drift`.  The oracle calls only `integrate_pair_drift`;
`integrate_endpoint` remains for the backend parity tests and for the
benchmark's kernel tracing.

Both step with DOP853 (Hairer's 8th-order pair with its combined 5th/3rd-order
error estimate) and sum every stage in the same order, so they take the same
steps.  The pure twin's pair stepper holds psi1, psi1', psi2 and psi2' as four
complex locals: that halves its Python operations per stage against float
locals and gives the same floats as the generic reference stepper (see
`pure`).

Importing this package does not import the pure twin: `BACKEND` is set from
the environment and the attempt to import `_mode_rk`, and `impl` resolves to
`pure` on first access through the module `__getattr__` (PEP 562), so only
the commands that integrate the mode equation compile it.  The status codes
live here; both twins return them.
"""

from __future__ import annotations

import os

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2
STATUS_NONFINITE = 3

BACKEND = "pure"
if not os.environ.get("COSMO_QFI_PURE"):
    try:
        from . import _mode_rk as impl
    except ImportError:
        pass
    else:
        BACKEND = impl.BACKEND


def __getattr__(name: str):
    if name != "impl":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pure

    globals()["impl"] = pure  # later reads find it without this hook
    return pure
