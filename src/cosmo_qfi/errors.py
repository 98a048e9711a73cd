"""Exception types shared across the package."""


class CosmoQfiError(Exception):
    """Base class for all package-specific errors."""


class DegenerateParameterError(CosmoQfiError, ValueError):
    """A route cannot evaluate the closed forms, a derivative or the oracle
    at these model parameters; the oracle's configuration is fixed, so its
    integrator failures are decided by the point and are raised as this."""
