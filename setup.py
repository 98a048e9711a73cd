"""Build script; the package itself is declared in ``pyproject.toml``.

The package is pure Python except for the optional integrator kernel
``cosmo_qfi._kernel._mode_rk``, a hand-written C twin of the DOP853 stepper
in ``cosmo_qfi._kernel.pure``.  An install does not compile it: the
README gives the one-line ``cc`` command that builds it in place, and without
it the package selects the pure backend at import time.
"""

from setuptools import setup

setup()
