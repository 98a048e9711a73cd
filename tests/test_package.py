"""Package surface: every export, eager or loaded on first access, is the
object its home module defines."""

import sys

import pytest

import cosmo_qfi

# Exports that are values rather than functions or classes, by home module
# and the name they have there.
VALUE_HOMES = {
    "ANALYTIC": ("cosmo_qfi.bogoliubov", "ANALYTIC"),
    "FINITE_DIFFERENCE": ("cosmo_qfi.bogoliubov", "FINITE_DIFFERENCE"),
    "DEFAULT_TRIALS": ("cosmo_qfi.probe", "DEFAULT_TRIALS"),
    "kernel_backend": ("cosmo_qfi._kernel", "BACKEND"),
    "__version__": ("cosmo_qfi", "__version__"),
}


# Every lazy entry too: one left behind after its export is deleted fails here.
@pytest.mark.parametrize("name", list(dict.fromkeys([*cosmo_qfi.__all__, *cosmo_qfi._LAZY])))
def test_export_is_the_home_modules_object(name):
    value = getattr(cosmo_qfi, name)
    home, home_name = VALUE_HOMES.get(name, (getattr(value, "__module__", None), name))
    assert getattr(sys.modules[home], home_name) is value


def test_star_import_binds_every_export():
    ns = {}
    exec("from cosmo_qfi import *", ns)
    for name in cosmo_qfi.__all__:
        assert ns[name] is getattr(cosmo_qfi, name)
    assert set(cosmo_qfi.__all__) <= set(dir(cosmo_qfi))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        cosmo_qfi.no_such_export
    assert not hasattr(cosmo_qfi, "no_such_export")
