"""Exception types shared across the package."""


class CosmoQfiError(Exception):
    """Base class for all package-specific errors."""


class PoleError(CosmoQfiError, ValueError):
    """A special function was evaluated at a pole or excluded axis point."""


class DegenerateParameterError(CosmoQfiError, ValueError):
    """Model parameters hit a configuration the closed forms cannot evaluate."""


class SingularOutcomeError(CosmoQfiError, ValueError):
    """A zero-probability outcome carries a nonzero probability derivative."""


class DerivativeStepError(CosmoQfiError, ValueError):
    """Finite-difference step is unusable at the requested expansion point."""


class IntegrationError(CosmoQfiError, RuntimeError):
    """The adaptive integrator could not meet the requested tolerance."""


class WindowTooSmallError(CosmoQfiError, ValueError):
    """Integration window does not reach the asymptotically flat regions."""
