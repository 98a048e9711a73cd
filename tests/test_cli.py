"""CLI contract: JSON/CSV wire formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import cosmo_qfi
from cosmo_qfi import verify
from cosmo_qfi.cli import main

POINT_KEYS = [
    "eps", "m_tilde", "k_tilde", "X", "p0", "p1", "qfi", "bound",
    "entropy", "derivative_method",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_point_json_contract(capsys):
    code, out, _ = run(
        capsys, "point", "--eps", "1", "--m", "1", "--k", "1", "--trials", "1e11"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == POINT_KEYS
    assert doc["qfi"] > 0.0
    assert math.isclose(doc["bound"], 1.0 / (1e11 * doc["qfi"]), rel_tol=1e-15)
    assert doc["derivative_method"] == "analytic"
    assert math.isclose(doc["p0"] + doc["p1"], 1.0, rel_tol=1e-14)


def test_point_massless_emits_inf_sentinel(capsys):
    code, out, _ = run(capsys, "point", "--eps", "1", "--m", "0", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["qfi"] == 0.0
    assert doc["bound"] == "inf"


def test_point_fd_method(capsys):
    code, out, _ = run(capsys, "point", "--deriv-method", "fd")
    assert code == 0
    assert json.loads(out)["derivative_method"] == "finite_difference"


def test_point_deterministic_stdout(capsys):
    _, first, _ = run(capsys, "point", "--eps", "0.7", "--m", "1.3", "--k", "2.0")
    _, second, _ = run(capsys, "point", "--eps", "0.7", "--m", "1.3", "--k", "2.0")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--eps", "-1"],
        ["point", "--trials", "0"],
        ["point", "--trials", "inf"],
        ["point", "--trials", "nan"],
        ["sweep", "--var", "m", "--points", "3", "--trials", "inf", "--out", "x.csv"],
        ["point", "--k", "0"],
        ["sweep", "--var", "m", "--points", "1", "--out", "x.csv"],
        ["sweep", "--var", "m", "--lo", "5", "--hi", "1", "--out", "x.csv"],
        ["sweep", "--var", "q", "--out", "x.csv"],
        ["optimize", "--var", "k", "--lo", "2", "--hi", "2"],
        ["verify", "--tol", "1"],
        ["verify", "--ode-points", "0"],
        ["nonsense"],
        ["point", "--no-such-flag"],
        ["verify", "--points", "1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    capsys.readouterr()
    assert code == 2
    assert list(tmp_path.iterdir()) == []  # no CSV written


def test_degenerate_evaluation_exits_three(capsys):
    # The closed form's overflow and the fd step's guard raise the same typed
    # error, and the CLI maps both to exit 3 with a one-line diagnostic.
    cases = {
        ("point", "--eps", "1e308"):
            "error: frequencies overflow for eps=1e+308, m_tilde=1.0, k_tilde=1.0\n",
        ("point", "--deriv-method", "fd", "--eps", "1e-5"):
            "error: fd step 1e-05 too large at eps = 1e-05\n",
    }
    for argv, expected in cases.items():
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == expected


def test_point_evaluates_where_the_mixing_overflows(capsys):
    # |B/A|^2 overflows past eps = 1.7e155, but X = |B/A|^2 chi^2 does not.
    docs = []
    for eps in ("1e16", "1e300"):
        code, out, err = run(capsys, "point", "--eps", eps)
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert math.isclose(docs[1]["X"], docs[0]["X"], rel_tol=1e-12)
    assert docs[1]["qfi"] == 0.0  # dX underflows


def test_sweep_keeps_the_fd_step_row_as_nan(capsys, tmp_path):
    # eps = 1e-6 is inside the fd step's guard: that row reads NaN with an
    # infinite bound, and the rest of the sweep evaluates.
    out = tmp_path / "fd.csv"
    code, _, _ = run(capsys, "sweep", "--var", "eps", "--lo", "1e-6", "--hi", "1e-4",
                     "--points", "5", "--deriv-method", "fd", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert ",".join(rows[0]) == "1e-06,nan,inf,nan,nan"
    assert len(rows) == 5
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row)


def test_underflowing_derivative_exits_three(capsys):
    # m and k so small that the product of the two tails in d ln X/d eps
    # underflows to 0: one error line and exit 3, not a traceback.
    code, out, err = run(capsys, "point", "--eps", "1e-20", "--m", "1e-200", "--k", "5e-324")
    assert (code, out) == (3, "")
    assert err == "error: d ln X/d eps underflows for eps=1e-20, m_tilde=1e-200, k_tilde=5e-324\n"
    code, out, err = run(capsys, "optimize", "--var", "m", "--lo", "1e-300", "--hi", "1e-200",
                         "--eps", "1e-20", "--k", "5e-324")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_keeps_underflowing_derivative_rows_as_nan(capsys, tmp_path):
    out = tmp_path / "tiny.csv"
    code, _, err = run(capsys, "sweep", "--var", "k", "--lo", "5e-324", "--hi", "1e-300",
                       "--points", "3", "--eps", "1e-20", "--m", "1e-200", "--out", str(out))
    assert (code, err) == (0, "")
    rows = out.read_text().splitlines()[2:]
    assert [row.split(",", 1)[1] for row in rows] == ["nan,inf,nan,nan"] * 3


def test_identity_check_failure_exits_three(capsys):
    # X = 2.5e-311 is subnormal: the literal QFI form overflows to inf; the
    # typed error must not reach stdout
    code, out, err = run(capsys, "point", "--eps", "0.1", "--m", "82", "--k", "82")
    assert code == 3
    assert out == ""
    assert err.startswith("error: QFI is ")


def test_subnormal_excitation_weight_exits_three(capsys):
    # X = 2e-323 makes the literal QFI form NaN; it must not reach stdout
    code, out, err = run(capsys, "point", "--eps", "24091", "--m", "7.2e-5", "--k", "120")
    assert code == 3
    assert out == ""
    assert err.startswith("error: QFI is ")


def test_overflowing_bound_exits_three(capsys):
    # qfi = 1e-322 is positive, so an infinite bound must not reach stdout
    code, out, err = run(capsys, "point", "--eps", "39059.88820123089",
                         "--m", "109.29129654872689", "--k", "0.03304315365917624")
    assert code == 3
    assert out == ""
    assert err.startswith("error: bound 1/(trials*qfi) overflows at qfi=1e-322")


def _stub_integration(state, drift):
    def integrate_pair_drift(*args):
        return state, drift, args[-1]
    return SimpleNamespace(integrate_pair_drift=integrate_pair_drift)


# The ids keep the names of the adaptive controller's three failures; each
# case is the failure of the fixed-step oracle that takes its place: the
# grid over the step cap, a non-finite norm drift (the Magnus step's gauge of
# its arithmetic), a state that vanished, and a non-finite state.
@pytest.mark.parametrize("attr, value, cause", [
    pytest.param("_MAX_STEPS", 2999,
                 r"oracle grid exceeds 2999 steps \(omega_out 3\.16\d*\) at {p}",
                 id="step budget exhausted"),
    pytest.param("impl", _stub_integration((1.0, 0.0, 0.5, 0.0), math.inf),
                 r"oracle X=[\d.e-]+, norm drift=inf at {p}",
                 id="non-finite error estimate"),
    pytest.param("impl", _stub_integration((0.0, 0.0, 0.0, 0.0), 0.0),
                 r"matched transmission coefficient vanished",
                 id="step size underflow"),
    pytest.param("impl", _stub_integration((math.nan, 0.0, 1.0, 0.0), 0.0),
                 r"oracle X=nan, norm drift=0\.0 at {p}",
                 id="non-finite state"),
])
def test_integrator_failure_in_verify_exits_three(capsys, monkeypatch, attr, value, cause):
    # Each oracle failure reaches the CLI as one error line, naming the
    # first oracle point where the message carries one, before any table
    # row is printed.
    monkeypatch.setattr(cosmo_qfi._kernel if attr == "impl" else cosmo_qfi.oracle, attr, value)
    code, out, err = run(capsys, "verify", "--points", "2", "--ode-points", "1")
    assert (code, out) == (3, "")
    point = re.escape("ModelParams(eps=1.0, m_tilde=1.0, k_tilde=1.0)")
    assert re.fullmatch(f"error: {cause.format(p=point)}\n", err), err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--eps", "1", "--m", "1", "--k", "1"],
        ["point", "--eps", "1", "--m", "0", "--k", "1"],
        ["point", "--eps", "3", "--m", "0.5", "--k", "2", "--deriv-method", "fd"],
        ["optimize", "--var", "k", "--lo", "0.1", "--hi", "10"],
        ["optimize", "--var", "m", "--lo", "0.1", "--hi", "5", "--deriv-method", "fd"],
    ],
)
def test_json_stdout_is_strict(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


def test_non_integer_threads_env_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COSMO_QFI_THREADS", "abc")
    out = tmp_path / "curve.csv"
    code, _, err = run(capsys, "sweep", "--var", "m", "--out", str(out))
    assert code == 2
    assert "COSMO_QFI_THREADS" in err
    assert not out.exists()


def test_negative_threads_env_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COSMO_QFI_THREADS", "-1")
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "sweep", "--var", "m", "--points", "3", "--out", str(out))
    assert code == 2
    assert "COSMO_QFI_THREADS" in err
    assert not out.exists()


def test_point_evaluates_the_probe_once(capsys, probe_calls):
    code, _, _ = run(capsys, "point", "--eps", "0.7", "--m", "1.3", "--k", "2.0")
    assert code == 0
    assert len(probe_calls) == 1


def _loaded_after(tmp_path, body):
    # Modules of interest loaded by `body` in a fresh interpreter without site
    # hooks (which may import anything); `body` appends lists to `out`.
    script = (
        "import json, sys\n"
        "from cosmo_qfi.cli import main\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in "
        "('numpy', 'scipy', 'typing', 'dataclasses', 'inspect', 'multiprocessing', 'concurrent', "
        "'cosmo_qfi'))\n"
        f"out = []\n{body}print(json.dumps(out))\n"
    )
    src = str(Path(cosmo_qfi.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_neither_numpy_nor_scipy(tmp_path):
    # Each command loads only the layers it runs: record the loaded modules
    # after `point`, then after an `optimize`, a `sweep` and a sweep large
    # enough to fork workers where there is a second CPU, and separately
    # after a `verify`.
    point, optimized, swept, forked, backend_read, probe_is_function, everything = _loaded_after(
        tmp_path, (
            "main(['point']); out.append(loaded())\n"
            "main(['optimize', '--var', 'k', '--lo', '0.5', '--hi', '2']); out.append(loaded())\n"
            "main(['sweep', '--var', 'm', '--points', '3', '--out', 'x.csv']); "
            "out.append(loaded())\n"
            "from cosmo_qfi.sweeps import _MIN_ROWS_PER_WORKER as rows\n"
            "main(['sweep', '--var', 'm', '--points', str(2 * rows), '--out', 'y.csv']); "
            "out.append(loaded())\n"
            "import cosmo_qfi, cosmo_qfi.oracle\n"
            "out.append([cosmo_qfi.kernel_backend, *loaded()])\n"
            "out.append(cosmo_qfi.probe is sys.modules['cosmo_qfi.probe'].probe)\n"
            "import cosmo_qfi.qfi, cosmo_qfi.verify; out.append(loaded())\n"
        ))
    (verified,) = _loaded_after(
        tmp_path, "main(['verify', '--points', '2', '--ode-points', '1']); out.append(loaded())\n")
    # no module of the package, once all are loaded, pulls in NumPy or SciPy,
    # nor `typing`, `dataclasses`, `inspect` or `multiprocessing`, whose
    # imports alone cost milliseconds per command
    heavy = ("numpy", "scipy", "typing", "dataclasses", "inspect", "multiprocessing")
    for loaded in (point, optimized, swept, forked, verified, everything):
        assert not [m for m in loaded if m.split(".")[0] in heavy]
    for loaded in (point, optimized, swept):
        assert not {"cosmo_qfi.oracle", "cosmo_qfi.qfi", "cosmo_qfi.verify"} & set(loaded)
    assert {"cosmo_qfi.oracle", "cosmo_qfi.qfi", "cosmo_qfi.verify"} <= set(everything)
    assert "cosmo_qfi.probe" in point
    assert not {"cosmo_qfi.sweeps", "concurrent.futures"} & set(point)
    assert "cosmo_qfi.sweeps" in optimized
    # the pure integrator, the one backend, loads only where the mode
    # equation is integrated: not for the closed-form commands, nor to read
    # the backend or import every module, but for `verify`
    assert backend_read[0] == "pure"
    for loaded in (point, optimized, swept, forked, backend_read, everything):
        assert "cosmo_qfi._kernel.pure" not in loaded
    assert "cosmo_qfi._kernel.pure" in verified
    # the oracle runs on the calling thread: verify needs no sweep engine or pool
    assert "cosmo_qfi.verify" in verified
    assert not {"cosmo_qfi.sweeps", "concurrent.futures"} & set(verified)
    # loading sweeps and oracle later leaves the package's `probe` the function
    assert probe_is_function


def test_unwritable_output_exits_four(capsys, tmp_path):
    out = tmp_path / "no_such_dir" / "curve.csv"
    code, _, err = run(
        capsys, "sweep", "--var", "m", "--points", "5", "--out", str(out)
    )
    assert code == 4
    assert err.strip()


def test_unwritable_output_fails_before_sweeping(capsys, tmp_path, monkeypatch):
    # The output is opened before any row is computed.
    def sweep(*args, **kwargs):
        raise AssertionError("swept before opening the output")

    monkeypatch.setattr("cosmo_qfi.sweeps._sweep_slices", sweep)
    out = tmp_path / "no_such_dir" / "curve.csv"
    code, _, err = run(capsys, "sweep", "--var", "m", "--points", "100000", "--out", str(out))
    assert code == 4
    assert err.startswith("i/o error: ")


def test_sweep_csv_contract(capsys, tmp_path):
    out = tmp_path / "fig1.csv"
    code, stdout, _ = run(
        capsys,
        "sweep", "--var", "m", "--lo", "0.1", "--hi", "10", "--points", "40",
        "--eps", "1", "--k", "1", "--trials", "1e11", "--out", str(out),
    )
    assert code == 0
    assert stdout.strip() == str(out)
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["command"] == "sweep"
    assert manifest["tool_version"]
    assert manifest["params"]["points"] == 40
    assert manifest["output_path"] == str(out)
    assert lines[1] == "value,qfi,bound,entropy,p1"
    assert len(lines) == 2 + 40
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 5
        for tok in fields:
            x = float(tok)  # every number parses
            if math.isfinite(x):
                assert repr(x) == tok  # and round-trips exactly


def test_sweep_manifest_line_is_frozen(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "sweep", "--var", "k", "--lo", "0.2", "--hi", "6", "--points", "3",
        "--m", "0.5", "--deriv-method", "fd", "--out", "k.csv",
    )
    assert code == 0
    first = (tmp_path / "k.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first == (
        '# manifest: {"command": "sweep", "params": {"var": "k", "lo": 0.2, "hi": 6.0, '
        '"points": 3, "eps": 1.0, "m": 0.5, "k": 1.0, "trials": 100000000000.0, '
        '"deriv_method": "fd"}, "tolerances": {}, "tool_version": "0.1.0", '
        '"output_path": "k.csv"}'
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("flags, key, text", [
    (["--var", "m", "--m", "nan"], "m", "nan"),
    (["--var", "k", "--k", "inf"], "k", "inf"),
    (["--var", "eps", "--eps=-inf"], "eps", "-inf"),
])
def test_sweep_manifest_is_strict_json_for_a_non_finite_swept_flag(capsys, tmp_path, flags,
                                                                    key, text):
    # the swept coordinate's own flag is ignored, so it may be anything
    out = tmp_path / "t.csv"
    code, _, err = run(capsys, "sweep", *flags, "--lo", "1", "--hi", "2", "--points", "3",
                       "--out", str(out))
    assert code == 0, err
    first = out.read_text(encoding="utf-8").splitlines()[0]
    manifest = json.loads(first[len("# manifest: "):], parse_constant=_refuse_constant)
    assert manifest["params"][key] == text
    assert repr(float(text)) == text


def test_sweep_byte_identical_reruns(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--var", "k", "--lo", "0.2", "--hi", "6", "--points", "30"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    # manifests differ only in the recorded output path
    a_lines = a.read_text().splitlines()
    b_lines = b.read_text().splitlines()
    assert a_lines[1:] == b_lines[1:]
    first_bytes = a.read_bytes()
    assert main(args + ["--out", str(a)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == first_bytes


def test_sweep_massless_row_sentinel(capsys, tmp_path):
    out = tmp_path / "m0.csv"
    code, _, _ = run(
        capsys, "sweep", "--var", "m", "--lo", "0", "--hi", "1", "--points", "3",
        "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()[2:]
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0
    assert math.isinf(float(first[2]))


@pytest.mark.parametrize(
    "flags",
    [
        ["--var", "eps", "--lo", "0.5", "--hi", "1e308", "--points", "1000"],
        ["--var", "k", "--lo", "1e-300", "--hi", "1.7e308", "--points", "4"],
    ],
)
def test_sweep_over_a_wide_finite_range(capsys, tmp_path, flags):
    # i * (hi - lo) overflows here; the grid must stay finite and ascending
    out = tmp_path / "wide.csv"
    code, _, err = run(capsys, "sweep", *flags, "--out", str(out))
    assert code == 0, err
    values = [float(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert len(values) == int(flags[-1])
    assert values[0] == float(flags[3]) and values[-1] == float(flags[5])
    assert all(math.isfinite(v) for v in values)
    assert values == sorted(values)


def test_sweep_grid_is_unchanged_where_no_overflow(capsys, tmp_path):
    out = tmp_path / "k.csv"
    code, _, _ = run(capsys, "sweep", "--var", "k", "--lo", "0.2", "--hi", "6",
                     "--points", "30", "--out", str(out))
    assert code == 0
    values = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
    expected = [0.2 + i * (6 - 0.2) / 29 for i in range(30)]
    expected[-1] = 6.0
    assert values == [repr(v) for v in expected]


def test_optimize_over_a_wide_finite_range(capsys):
    # the log-spaced pre-scan reaches the decade of the optimum, m ~ 0.2054
    # at eps = k = 1, however many decades the range spans
    for lo in ("0.001", "1e-300"):
        code, out, err = run(capsys, "optimize", "--var", "m", "--lo", lo, "--hi", "1e308")
        assert code == 0, err
        doc = json.loads(out)
        assert abs(doc["optimum"] - 0.205417) < 1e-5
        assert math.isclose(doc["bound"], 2.5898e-9, rel_tol=1e-4)
        assert doc["boundary_warning"] is False


@pytest.mark.parametrize(
    "argv",
    [
        # the bound keeps falling as eps shrinks; the pre-scan point left of
        # the optimum 4.9e-17 has subnormal X and cannot be evaluated
        ["--lo", "1e-300", "--hi", "1e308", "--m", "100", "--k", "0.01"],
        # the fd step raises at eps <= 2e-5, next to the optimum 2.0e-5
        ["--lo", "1e-7", "--hi", "1e-4", "--deriv-method", "fd"],
    ],
)
def test_optimize_warns_next_to_an_unevaluable_point(capsys, argv):
    code, out, err = run(capsys, "optimize", "--var", "eps", *argv)
    assert code == 0, err
    assert json.loads(out)["boundary_warning"] is True


def test_optimize_json_contract(capsys):
    code, out, _ = run(
        capsys, "optimize", "--var", "k", "--lo", "0.1", "--hi", "10",
        "--eps", "1", "--m", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["variable", "optimum", "qfi", "bound", "boundary_warning"]
    assert doc["variable"] == "k"
    assert 0.1 < doc["optimum"] < 10.0
    assert doc["boundary_warning"] is False


def test_verify_quick_pass(capsys):
    code, out, _ = run(capsys, "verify", "--points", "3", "--ode-points", "1")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") >= 6


def test_verify_failure_exits_one(capsys, monkeypatch):
    # identity residuals are ~1e-13; an impossible tolerance must fail cleanly
    monkeypatch.setattr(verify, "IDENTITY_TOL", 1e-30)
    code, out, _ = run(capsys, "verify", "--points", "2", "--ode-points", "1")
    assert code == 1
    assert "FAIL" in out
