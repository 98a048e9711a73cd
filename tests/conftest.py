"""Fixtures shared by the test modules."""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import cosmo_qfi  # noqa: F401  (loads the probe module into sys.modules)
from cosmo_qfi._kernel import pure

COMPILED = "cosmo_qfi._kernel._mode_rk"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the package's own build if there is one, else the
    shipped _mode_rk.c compiled into a temporary directory and loaded from
    there, without registering it as a package module.  The C source is
    maintained by hand, so any compiler warning fails the build."""
    try:
        return importlib.import_module(COMPILED)
    except ImportError:
        pass
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = Path(sysconfig.get_paths()["include"])
    if cc is None or not (include / "Python.h").is_file():
        pytest.skip("no C compiler or no Python headers to build the kernel")
    source = Path(pure.__file__).with_name("_mode_rk.c")
    target = tmp_path_factory.mktemp("kernel") / (
        "_mode_rk" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O3", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}",
                    str(source), "-o", str(target)], check=True, capture_output=True,
                   timeout=300)
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
