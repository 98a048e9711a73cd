"""Quantum Fisher information for the volume ratio of an expanding universe.

The expansion of a two-dimensional conformally flat universe with scale
factor 1 + eps (1 + tanh(rho eta)) creates Dirac particles out of the vacuum;
the reduced one-mode particle state carries information about the volume
ratio eps.  This package computes the closed-form Bogoliubov mixing behind
that state, the quantum Fisher information and Cramer-Rao bound for
estimating eps, sweep curves and optimal probe parameters, and validates the
closed forms against direct integration of the mode equation.

`import cosmo_qfi` loads the closed-form core that every CLI command runs
(`errors`, `cosmology`, `specfun`, `bogoliubov`, `probe`) and the kernel
package (`_kernel`), nothing else.  `_kernel` stays eager because
`perfbench/` reads it from `sys.modules`; `kernel_backend` is always "pure",
and the pure-Python integrator itself loads when the oracle first integrates.
`probe` stays eager so that `cosmo_qfi.probe` is the function (importing the
submodule later would rebind that attribute to the module).  The exports of
`sweeps`, `oracle` and `qfi` resolve on first access through the module
`__getattr__` (PEP 562), which imports their home module then: a `point`
evaluation never pays for the sweep engine, the thread pool, the
mode-equation oracle or the eigenprojector Fisher information.  Lazy names
are not cached on the package, so each access reads the home module's
current binding.
"""

from importlib import import_module as _import_module

from ._kernel import BACKEND as kernel_backend
from .bogoliubov import (
    ANALYTIC,
    FINITE_DIFFERENCE,
    ProbeState,
    coefficients,
    dX_deps_analytic,
    dX_deps_fd,
    excitation_weight,
    mixing_sq_sinh,
    ratio_sq,
)
from .cosmology import FrequencySet, ModelParams, frequencies, scale_factor
from .errors import CosmoQfiError
from .probe import (
    DEFAULT_TRIALS,
    EstimationResult,
    probe,
    qfi_eps,
    state_entropy,
)

# Export name -> submodule, for the layers loaded on first access.
_LAZY = {
    **dict.fromkeys(
        ("MatchResult", "integrate_mode", "wronskian_drift"), "oracle"),
    "classical_fisher": "qfi",
    **dict.fromkeys(
        ("OptimumResult", "SweepRow", "SweepSpec", "optimize", "sweep"), "sweeps"),
}

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC",
    "CosmoQfiError",
    "DEFAULT_TRIALS",
    "EstimationResult",
    "FINITE_DIFFERENCE",
    "FrequencySet",
    "MatchResult",
    "ModelParams",
    "OptimumResult",
    "ProbeState",
    "SweepRow",
    "SweepSpec",
    "classical_fisher",
    "coefficients",
    "dX_deps_analytic",
    "dX_deps_fd",
    "excitation_weight",
    "frequencies",
    "integrate_mode",
    "kernel_backend",
    "mixing_sq_sinh",
    "optimize",
    "probe",
    "qfi_eps",
    "ratio_sq",
    "scale_factor",
    "state_entropy",
    "sweep",
    "wronskian_drift",
    "__version__",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
