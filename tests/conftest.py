"""Fixtures shared by the test modules."""

import sys

import pytest

import cosmo_qfi  # noqa: F401  (loads the probe module into sys.modules)


@pytest.fixture
def probe_calls(monkeypatch):
    """A list that grows by one for every probe-state evaluation."""
    real = sys.modules["cosmo_qfi.probe"].probe
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # modules that import probe by name call it through their own globals
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("cosmo_qfi") and getattr(mod, "probe", None) is real:
            monkeypatch.setattr(mod, "probe", counted)
    return calls
