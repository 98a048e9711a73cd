"""Build script; the package itself is declared in ``pyproject.toml``.

The package is pure Python except for the optional integrator kernel
``cosmo_qfi._kernel._mode_rk``, a hand-written C twin of the fixed-step
Magnus propagator in ``cosmo_qfi._kernel.pure``, which advances the oracle's
in-mode and tracks its conserved Dirac norm.  An install does not compile
it: the README gives the one-line ``cc`` command that builds it in place, and
without it the package selects the pure backend at import time.
"""

from setuptools import setup

setup()
