"""Golden outputs: what the command line prints for a fixed set of
invocations, regenerated in-process through `cli.main` and compared with the
files under `tests/golden/`.

The set is `verify` at its defaults and at `--points 10 --ode-points 12`,
two `point` runs, eight short `point`/`optimize` runs drawn from the paper
range, and two 20 000-point sweeps.  A sweep is stored as the SHA-256 of its
CSV data rows, with its header, row count and first and last rows; its
manifest line records `--out`, so it is left out.

Bytes are compared only where the platform tag recorded in
`tests/golden/platform.txt` (machine, C library and Python minor version)
matches the running one.  Elsewhere libm may round differently, so the test
compares what rounding cannot move:

* `point` figures and the sweeps' first and last rows as parsed values
  within 1e-13 relative, and the sweeps' row counts, except the `qfi` and
  `bound` of a `point` run with `--deriv-method fd`: the finite differences
  of a tiny `X` are rounding noise, and one ulp added to ln |B/A|^2 moves
  that QFI by 3.9e-9 at (4.69478, 9.09073, 5.99918);
* `verify` by its row names, tolerances and PASS statuses, because its
  worst column holds rounding-level errors (the drift row reads 2.6e-14 and
  the literal row 5.9e-16 at the defaults);
* `optimize` by its keys and `boundary_warning` only, because its argmin
  chooses among rounding-level differences of the objective (2.1e-4 apart
  in the coordinate for the fd objective).

A change that means to change outputs rewrites the files by running this
module as a script, `python tests/test_golden.py` with `src` importable,
and says which outputs changed and by how much.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import pytest

from cosmo_qfi import cli

GOLDEN = Path(__file__).with_name("golden")
REL_TOL = 1e-13

# name -> (kind, argument lists whose stdout is concatenated)
CASES = {
    "verify": ("verify", [["verify"]]),
    "verify-10-12": ("verify", [["verify", "--points", "10", "--ode-points", "12"]]),
    "point": ("json", [["point"], ["point", "--eps", "0.7", "--m", "1.3", "--k", "2.0"]]),
    # The benchmark's cli-short pass at seed 1.
    "cli-short": ("json", [
        ["optimize", "--var", "k", "--lo", "0.102059", "--hi", "9.99473",
         "--eps", "0.74127", "--m", "0.340601", "--deriv-method", "fd"],
        ["optimize", "--var", "k", "--lo", "0.109721", "--hi", "9.90405",
         "--eps", "0.265225", "--m", "2.81153", "--deriv-method", "analytic"],
        ["point", "--eps", "0.944431", "--m", "0.152899", "--k", "0.116063",
         "--deriv-method", "analytic"],
        ["point", "--eps", "0.190151", "--m", "8.19869", "--k", "0.107804",
         "--deriv-method", "analytic"],
        ["point", "--eps", "1.19051", "--m", "1.01447", "--k", "0.789537",
         "--deriv-method", "analytic"],
        ["point", "--eps", "2.40384", "--m", "0.590018", "--k", "7.00179",
         "--deriv-method", "fd"],
        ["point", "--eps", "4.69478", "--m", "9.09073", "--k", "5.99918",
         "--deriv-method", "fd"],
        ["point", "--eps", "1.75423", "--m", "0.241168", "--k", "0.986079",
         "--deriv-method", "analytic"],
    ]),
    # The benchmark's sweep-batch pass at seed 1, less `--out`.
    "sweep-0": ("sweep", [["sweep", "--var", "m", "--lo", "0.116424", "--hi", "9.33845",
                           "--points", "20000", "--eps", "1", "--k", "1"]]),
    "sweep-1": ("sweep", [["sweep", "--var", "k", "--lo", "0.118076", "--hi", "9.61022",
                           "--points", "20000", "--eps", "1", "--m", "1"]]),
}


def platform_tag() -> str:
    libc, libc_version = platform.libc_ver()
    return (f"{platform.machine()} {libc or 'no-libc'} {libc_version or '-'} "
            f"python{sys.version_info.major}.{sys.version_info.minor}\n")


def golden_path(name: str) -> Path:
    return GOLDEN / (name + (".json" if CASES[name][0] == "sweep" else ".txt"))


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, (argv, code)
    return out.getvalue()


def render(name: str, directory: Path) -> str:
    """The golden text of one case, with scratch files written to `directory`."""
    kind, argvs = CASES[name]
    if kind != "sweep":
        return "".join(_stdout(argv) for argv in argvs)
    (argv,) = argvs
    csv = directory / f"{name}.csv"
    _stdout([*argv, "--out", str(csv)])
    _manifest, header, *rows = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    record = {
        "header": header,
        "rows": len(rows),
        "sha256": hashlib.sha256("".join(rows).encode()).hexdigest(),
        "first": rows[0],
        "last": rows[-1],
    }
    return json.dumps(record, indent=1) + "\n"


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL) if isinstance(b, float) else a == b


def _assert_json_lines_close(got: str, want: str) -> None:
    got_docs = [json.loads(line) for line in got.splitlines()]
    want_docs = [json.loads(line) for line in want.splitlines()]
    assert len(got_docs) == len(want_docs)
    for g, w in zip(got_docs, want_docs):
        assert list(g) == list(w)
        if "boundary_warning" in w:
            assert g["boundary_warning"] == w["boundary_warning"]
        else:
            fd = w["derivative_method"] == "finite_difference"
            assert all(_close(g[key], w[key]) for key in w
                       if not (fd and key in ("qfi", "bound"))), (g, w)


def _without_worst(text: str) -> list[list[str]]:
    # A row is "name  worst  tolerance  status"; other lines stay whole.
    rows = [line.rsplit(None, 3) for line in text.splitlines()]
    return [[r[0], *r[2:]] if len(r) == 4 else r for r in rows]


def _assert_verify_close(got: str, want: str) -> None:
    assert _without_worst(got) == _without_worst(want)


def _assert_sweep_close(got: str, want: str) -> None:
    g, w = json.loads(got), json.loads(want)
    assert (g["header"], g["rows"]) == (w["header"], w["rows"])
    for key in ("first", "last"):
        g_row, w_row = g[key].split(","), w[key].split(",")
        assert len(g_row) == len(w_row)
        assert all(_close(float(a), float(b)) for a, b in zip(g_row, w_row)), key


_ASSERT_CLOSE = {
    "json": _assert_json_lines_close,
    "verify": _assert_verify_close,
    "sweep": _assert_sweep_close,
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_its_golden_file(name, tmp_path):
    got = render(name, tmp_path)
    want = golden_path(name).read_text(encoding="utf-8")
    if (GOLDEN / "platform.txt").read_text(encoding="utf-8") == platform_tag():
        assert got == want
    else:
        _ASSERT_CLOSE[CASES[name][0]](got, want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in CASES:
            golden_path(case).write_text(render(case, Path(scratch)), encoding="utf-8")
    (GOLDEN / "platform.txt").write_text(platform_tag(), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files under {GOLDEN}")
