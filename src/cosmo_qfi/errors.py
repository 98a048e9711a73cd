"""The package's one exception type."""


class CosmoQfiError(ValueError):
    """A route cannot evaluate the closed forms, a derivative or the oracle
    at these model parameters; the oracle's configuration is fixed, so its
    failures are decided by the point and are raised as this."""
