"""Fixtures shared by the test modules."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import cosmo_qfi  # noqa: F401  (loads the probe module into sys.modules)
from cosmo_qfi._kernel import pure

COMPILED = "cosmo_qfi._kernel._mode_rk"


def _build_kernel(directory: Path) -> Path:
    """Compile the shipped _mode_rk.c into `directory` and return the built
    module's path; skips the test where there is no C compiler or no Python
    headers.  The C source is maintained by hand, so any compiler warning
    fails the build."""
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = Path(sysconfig.get_paths()["include"])
    if cc is None or not (include / "Python.h").is_file():
        pytest.skip("no C compiler or no Python headers to build the kernel")
    source = Path(pure.__file__).with_name("_mode_rk.c")
    target = directory / ("_mode_rk" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O3", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}",
                    str(source), "-o", str(target)], check=True, capture_output=True,
                   timeout=300)
    return target


@pytest.fixture(scope="session")
def build_kernel():
    """`_build_kernel`, for tests that build the C twin where they need it."""
    return _build_kernel


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the current _mode_rk.c compiled into a temporary
    directory and loaded from there, without registering it as a package
    module.  A build left in the package tree is ignored, since it may
    predate the source."""
    target = _build_kernel(tmp_path_factory.mktemp("kernel"))
    spec = importlib.util.spec_from_file_location(COMPILED, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.fixture
def fork_pids(monkeypatch):
    """A list that grows by the pid of every child forked through `os.fork`."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
