"""Exception types shared across the package."""


class CosmoQfiError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParameterError(CosmoQfiError, ValueError):
    """A route cannot evaluate the closed forms, a derivative or the oracle
    at these model parameters."""


class IntegrationError(CosmoQfiError, RuntimeError):
    """The adaptive integrator could not meet the requested tolerance."""
