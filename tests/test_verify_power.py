"""`verify`'s power: each fault injected into the closed form, the QFI sum,
the oracle's endpoint projection or its Magnus step fails the rows listed
with it.

A fault is patched on every module of the package that holds the name, so a
module that imported the name sees it too, and restored afterwards.  A
change that rewrites a row updates this table in the same change.  The
worst values in the comments are at `verify`'s defaults (10 grid points per
axis, 5 oracle points).
"""

import os
import sys

import pytest

from cosmo_qfi import bogoliubov, cosmology, oracle, verify
from cosmo_qfi._kernel import pure

GAMMA, FD, ORACLE = "gamma-vs-sinh identity", "analytic-vs-fd derivative", "mode-equation oracle"
LITERAL, OPTIMALITY = "qfi literal-vs-simplified", "measurement optimality"

_frequencies = cosmology.frequencies
_dlnX_deps = bogoliubov._dlnX_deps
_log_mixing_sq = bogoliubov._log_mixing_sq
_dlog_tail = bogoliubov._dlog_tail
_domega_out_deps = cosmology.domega_out_deps
_qfi_eps = verify.qfi_eps
_eigen = oracle._eigen

# fault -> ({name: replacement}, rows the fault must fail)
FAULTS = {
    # fd 5.0e-4, oracle 1.0e-3
    "frequencies read at eps * 1.0005": (
        {"frequencies": lambda p: _frequencies(p._replace(eps=p.eps * 1.0005))}, {FD, ORACLE}),
    # gamma 2.2e-2, fd 1.1e-3, oracle 3.4e-2
    "zeta_pm * (1 + 1e-3)": (
        {"frequencies": lambda p: (lambda f: f._replace(zeta_pm=f.zeta_pm * (1.0 + 1e-3)))(
            _frequencies(p))}, {GAMMA, FD, ORACLE}),
    # fd 1.0e-5
    "d ln X/d eps * (1 + 1e-5)": (
        {"_dlnX_deps": lambda p: _dlnX_deps(p) * (1.0 + 1e-5)}, {FD}),
    # gamma 1.0e-3, oracle 1.0e-3
    "ln |B/A|^2 + 1e-3": (
        {"_log_mixing_sq": lambda f: _log_mixing_sq(f) + 1e-3}, {GAMMA, ORACLE}),
    # A sign error inside S: fd 1.6
    "T'(z) negated": ({"_dlog_tail": lambda z: -_dlog_tail(z)}, {FD}),
    # A sign error in G's coefficient dz_p: fd 1.0
    "d omega_out/d eps negated": (
        {"domega_out_deps": lambda p: -_domega_out_deps(p)}, {FD}),
    # A wrong factor in the literal sum: literal 1.0e-6, optimality 1.0e-6
    "qfi * (1 + 1e-6)": (
        {"qfi_eps": lambda *args, **kwargs: (lambda est: est._replace(
            qfi=est.qfi * (1.0 + 1e-6)))(_qfi_eps(*args, **kwargs))}, {LITERAL, OPTIMALITY}),
    # A wrong endpoint projection: oracle 1.0
    "(w + M) * (1 + 1e-3)": (
        {"_eigen": lambda p, eta: (lambda wm, w: (wm * (1.0 + 1e-3), w))(*_eigen(p, eta))},
        {ORACLE}),
    # The Magnus faults patch the pure twin's constants, which the oracle
    # runs.  oracle 1.2e-3
    "commutator sign flipped": ({"_R3_6": -pure._R3_6}, {ORACLE}),
    # oracle 5.9e-4
    "commutator dropped": ({"_R3_6": 0.0}, {ORACLE}),
    # oracle 2.9e-4
    "both Gauss nodes at the midpoint": ({"_G1": 0.5, "_G2": 0.5}, {ORACLE}),
}


def _patch(monkeypatch, replacements):
    for name, fake in replacements.items():
        holders = [mod for mod in list(sys.modules.values())
                   if getattr(mod, "__name__", "").startswith("cosmo_qfi") and hasattr(mod, name)]
        assert holders, name
        for mod in holders:
            monkeypatch.setattr(mod, name, fake)


def _failed_rows():
    return {r.name for r in verify.run_all() if not r.passed}


def test_unpatched_verify_passes_every_row():
    assert _failed_rows() == set()


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_its_rows(monkeypatch, fault):
    replacements, rows = FAULTS[fault]
    _patch(monkeypatch, replacements)
    assert rows <= _failed_rows()


@pytest.mark.parametrize("fault", ["commutator dropped", "ln |B/A|^2 + 1e-3"])
@pytest.mark.parametrize("cpus", [{0, 1}, {0}])
def test_fault_fails_its_rows_forked_and_on_one_cpu(monkeypatch, fork_pids, fault, cpus):
    # on two CPUs the oracle rows are computed in a forked worker, which
    # inherits the fault; on one, in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    replacements, rows = FAULTS[fault]
    _patch(monkeypatch, replacements)
    assert rows <= _failed_rows()
    assert len(fork_pids) == len(cpus) - 1
