"""Quantum Fisher information for the volume ratio of an expanding universe.

The expansion of a two-dimensional conformally flat universe with scale
factor 1 + eps (1 + tanh(rho eta)) creates Dirac particles out of the vacuum;
the reduced one-mode particle state carries information about the volume
ratio eps.  This package computes the closed-form Bogoliubov mixing behind
that state, the quantum Fisher information and Cramer-Rao bound for
estimating eps, sweep curves and optimal probe parameters, and validates the
closed forms against direct integration of the mode equation.
"""

from ._kernel import BACKEND as kernel_backend
from .bogoliubov import (
    ANALYTIC,
    FINITE_DIFFERENCE,
    BogoliubovPair,
    CreationFactor,
    coefficients,
    dX_deps_analytic,
    dX_deps_fd,
    excitation_weight,
    mixing_sq_sinh,
    ratio_sq,
)
from .cosmology import FrequencySet, ModelParams, frequencies, scale_factor
from .errors import (
    CosmoQfiError,
    DegenerateParameterError,
    DerivativeStepError,
    IdentityCheckError,
    IntegrationError,
    PoleError,
    SingularOutcomeError,
    WindowTooSmallError,
)
from .oracle import IntegrationConfig, MatchResult, integrate_mode, wronskian_drift
from .probe import (
    DEFAULT_TRIALS,
    EstimationResult,
    ProbeState,
    entanglement_entropy,
    probe,
    qfi_eps,
    state_entropy,
)
from .qfi import (
    OutcomeDistribution,
    SpectralFamily,
    classical_fisher,
    qfi_spectral,
)
from .sweeps import OptimumResult, SweepRow, SweepSpec, optimize, sweep

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC",
    "BogoliubovPair",
    "CosmoQfiError",
    "CreationFactor",
    "DEFAULT_TRIALS",
    "DegenerateParameterError",
    "DerivativeStepError",
    "EstimationResult",
    "FINITE_DIFFERENCE",
    "FrequencySet",
    "IdentityCheckError",
    "IntegrationConfig",
    "IntegrationError",
    "MatchResult",
    "ModelParams",
    "OptimumResult",
    "OutcomeDistribution",
    "PoleError",
    "ProbeState",
    "SingularOutcomeError",
    "SpectralFamily",
    "SweepRow",
    "SweepSpec",
    "WindowTooSmallError",
    "classical_fisher",
    "coefficients",
    "dX_deps_analytic",
    "dX_deps_fd",
    "entanglement_entropy",
    "excitation_weight",
    "frequencies",
    "integrate_mode",
    "kernel_backend",
    "mixing_sq_sinh",
    "optimize",
    "probe",
    "qfi_eps",
    "qfi_spectral",
    "ratio_sq",
    "scale_factor",
    "state_entropy",
    "sweep",
    "wronskian_drift",
    "__version__",
]
