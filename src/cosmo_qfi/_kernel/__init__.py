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
locals, gives the same floats as the generic reference stepper, and compiles
small enough that importing it costs every process little (see `pure`).
"""

from __future__ import annotations

import os

from . import pure

if os.environ.get("COSMO_QFI_PURE"):
    impl = pure
else:
    try:
        from . import _mode_rk as impl  # type: ignore[no-redef]
    except ImportError:
        impl = pure

BACKEND = impl.BACKEND

STATUS_OK = pure.STATUS_OK
STATUS_MAX_STEPS = pure.STATUS_MAX_STEPS
STATUS_UNDERFLOW = pure.STATUS_UNDERFLOW
STATUS_NONFINITE = pure.STATUS_NONFINITE
