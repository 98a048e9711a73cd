"""Build script; the package itself is declared in ``pyproject.toml``.

The package is pure Python and an install compiles nothing.
"""

from setuptools import setup

setup()
