"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one `ACCEPTANCE nn PASS|FAIL` line before asserting, so
the whole gate reads off the captured test log.  Tolerances are pinned here
and are not configurable.
"""

import json
import math
import time

import numpy as np

from cosmo_qfi import (
    CosmoQfiError,
    ModelParams,
    SweepSpec,
    coefficients,
    excitation_weight,
    integrate_mode,
    mixing_sq_sinh,
    optimize,
    probe,
    qfi_eps,
    ratio_sq,
    sweep,
)
from cosmo_qfi import verify
from cosmo_qfi.cli import main
from cosmo_qfi.qfi import classical_fisher
from cosmo_qfi.verify import oracle_points

GRID_AXIS = np.linspace(0.1, 5.0, 10)
GRID = [
    ModelParams(float(e), float(m), float(k))
    for e in GRID_AXIS for m in GRID_AXIS for k in GRID_AXIS
]


def _report(num, name, ok, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"criterion {num} failed: {name}{tail}"


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def test_criterion_01_gamma_sinh_identity():
    t0 = time.perf_counter()
    worst = max(
        _rel(ratio_sq(coefficients(p)), mixing_sq_sinh(p)) for p in GRID
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "Gamma/sinh identity on 10^3 grid",
            ok, f"worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_qfi_algebraic_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in GRID:
        est = qfi_eps(p)
        st = probe(p)
        simplified = st.dX * st.dX / (st.X * (1.0 + st.X) ** 2)
        worst = max(worst, _rel(est.qfi, simplified))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, "QFI literal vs simplified form",
            ok, f"worst={worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_measurement_optimality():
    worst = 0.0
    for p in GRID:
        est = qfi_eps(p)
        worst = max(worst, _rel(classical_fisher(est.state), est.qfi))
    ok = worst <= 1e-10
    _report(3, "eigenprojector Fisher information equals the QFI",
            ok, f"worst={worst:.2e}")


def test_criterion_04_derivative_cross_check():
    from cosmo_qfi import dX_deps_analytic, dX_deps_fd

    worst = max(_rel(dX_deps_analytic(p), dX_deps_fd(p)) for p in GRID)
    ok = worst <= 1e-6
    _report(4, "analytic vs Richardson-FD derivative", ok, f"worst={worst:.2e}")


def test_criterion_05_ode_oracle():
    pts = oracle_points(8)
    eps_vals = {p.eps for p in pts}
    m_vals = {p.m_tilde for p in pts}
    k_vals = {p.k_tilde for p in pts}
    spanning = (
        min(eps_vals) <= 0.011 and max(eps_vals) >= 4.99
        and min(m_vals) <= 0.101 and max(m_vals) >= 4.99
        and min(k_vals) <= 0.101 and max(k_vals) >= 4.99
    )
    worst_X, worst_drift, slowest = 0.0, 0.0, 0.0
    for p in pts:
        t0 = time.perf_counter()
        match = integrate_mode(p)
        slowest = max(slowest, time.perf_counter() - t0)
        worst_X = max(worst_X, _rel(match.X, excitation_weight(p).X))
        worst_drift = max(worst_drift, match.norm_drift)
    ok = (
        len(pts) >= 5 and spanning
        and worst_X <= 1e-4 and worst_drift < 1e-8 and slowest < 10.0
    )
    _report(5, "mode-equation oracle X vs closed form", ok,
            f"points={len(pts)}, worst={worst_X:.2e}, "
            f"drift={worst_drift:.2e}, slowest={slowest:.2f}s")


def _fig1_rows():
    fixed = ModelParams(1.0, 1.0, 1.0)
    return sweep(SweepSpec("m_tilde", 0.1, 10.0, 200, fixed, trials=1e11))


def test_criterion_06_fig1_shape_and_magnitude():
    rows = _fig1_rows()
    bounds = [r.bound for r in rows]
    qfis = [r.qfi for r in rows]
    i_min = bounds.index(min(bounds))
    i_max = qfis.index(max(qfis))
    interior = 0 < i_min < len(rows) - 1 and 0 < i_max < len(rows) - 1
    light_side_descends = bounds[1] < bounds[0]
    magnitude_ok = 1e-14 <= min(bounds) <= 1e-8
    ok = interior and light_side_descends and magnitude_ok
    _report(6, "bound over mass: interior minimum at the published scale", ok,
            f"min bound={min(bounds):.2e} at m={rows[i_min].value:.3f}")


def test_criterion_07_fig2_shape_and_optimizer():
    fixed = ModelParams(1.0, 1.0, 1.0)
    rows = sweep(SweepSpec("k_tilde", 0.1, 10.0, 200, fixed, trials=1e11))
    bounds = [r.bound for r in rows]
    i = bounds.index(min(bounds))
    shape_ok = (
        0 < i < len(rows) - 1
        and all(b < a for a, b in zip(bounds[: i + 1], bounds[1 : i + 1]))
        and all(b > a for a, b in zip(bounds[i:], bounds[i + 1 :]))
    )
    res = optimize("k_tilde", 0.1, 10.0, fixed, trials=1e11)
    grid_rows = sweep(SweepSpec("k_tilde", 0.1, 10.0, 1000, fixed, trials=1e11))
    grid_best = min(grid_rows, key=lambda r: r.bound)
    cell = (10.0 - 0.1) / 999
    optimizer_ok = (
        abs(res.coordinate - grid_best.value) <= cell
        and res.estimation.bound <= grid_best.bound
    )
    ok = shape_ok and optimizer_ok
    _report(7, "bound over wave number: decrease then increase, optimizer on grid", ok,
            f"k*={res.coordinate:.4f}, grid={grid_best.value:.4f}")


def test_criterion_08_large_eps_degeneration():
    qfis = {e: qfi_eps(ModelParams(e, 1.0, 1.0)).qfi for e in (1.0, 20.0, 50.0, 100.0, 200.0)}
    decreasing_tail = qfis[20.0] > qfis[50.0] > qfis[100.0] > qfis[200.0]
    collapse = qfis[100.0] < 1e-3 * qfis[1.0]
    weights = [probe(ModelParams(e, 1.0, 1.0)).X for e in (50.0, 100.0, 200.0)]
    rel_changes = [
        abs(b - a) / a for a, b in zip(weights, weights[1:])
    ]
    saturates = all(c < 0.05 for c in rel_changes)
    ok = decreasing_tail and collapse and saturates
    _report(8, "information vanishes at large expansion, weight saturates", ok,
            f"F(100)/F(1)={qfis[100.0]/qfis[1.0]:.2e}, "
            f"X changes={[f'{c:.3f}' for c in rel_changes]}")


def test_criterion_09_entropy_qfi_similarity():
    rows = _fig1_rows()
    entropies = [r.entropy for r in rows]
    qfis = [r.qfi for r in rows]

    def unimodal_interior(vals):
        i = vals.index(max(vals))
        if not 0 < i < len(vals) - 1:
            return False, i
        up = all(b > a for a, b in zip(vals[: i + 1], vals[1 : i + 1]))
        down = all(b < a for a, b in zip(vals[i:], vals[i + 1 :]))
        return up and down, i

    s_ok, i_s = unimodal_interior(entropies)
    q_ok, i_q = unimodal_interior(qfis)
    ok = s_ok and q_ok
    _report(9, "entropy and QFI both unimodal over mass", ok,
            f"entropy peak m={rows[i_s].value:.3f}, QFI peak m={rows[i_q].value:.3f}")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys, monkeypatch):
    args = ["sweep", "--var", "m", "--lo", "0.1", "--hi", "10", "--points", "50",
            "--eps", "1", "--k", "1", "--trials", "1e11"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    codes = [main(args + ["--out", str(out1)]), main(args + ["--out", str(out2)])]
    capsys.readouterr()
    identical = out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]
    first_bytes = out1.read_bytes()
    assert main(args + ["--out", str(out1)]) == 0
    capsys.readouterr()
    rerun_identical = out1.read_bytes() == first_bytes

    code_point = main(["point", "--eps", "1", "--m", "1", "--k", "1"])
    stdout_point = capsys.readouterr().out
    doc = json.loads(stdout_point)

    code_usage = main(["point", "--eps", "-1"])
    code_degen = main(["point", "--eps", "1e308"])
    code_io = main(["sweep", "--var", "m", "--points", "5",
                    "--out", str(tmp_path / "missing" / "x.csv")])
    monkeypatch.setattr(verify, "IDENTITY_TOL", 1e-30)
    code_verify_fail = main(["verify", "--points", "2", "--ode-points", "1"])
    verify_out = capsys.readouterr().out

    ok = (
        codes == [0, 0] and identical and rerun_identical
        and code_point == 0 and doc["qfi"] > 0
        and code_usage == 2 and code_degen == 3 and code_io == 4
        and code_verify_fail == 1 and "FAIL" in verify_out
    )
    _report(10, "CLI determinism and exit-code contract", ok,
            f"codes: usage={code_usage}, degenerate={code_degen}, "
            f"io={code_io}, verify-fail={code_verify_fail}")


def test_criterion_11_joint_optimum_is_the_sudden_limit():
    # Over (m, k) jointly the QFI has no interior peak: as m, k -> 0 at a
    # fixed ratio k/m it tends to a sudden-expansion limit whose supremum,
    # 1/(1 + 2 eps)^2, is reached at k = (1 + 2 eps) m.  No grid point may
    # exceed it, and the limit must be reached along that ray.
    n = 60
    lo, hi = math.log(1e-3), math.log(1e2)
    axis = [math.exp(lo + i * (hi - lo) / (n - 1)) for i in range(n)]
    details, ok = [], True
    for eps in (0.1, 1.0, 5.0):
        scale = (1.0 + 2.0 * eps) ** 2
        worst, evaluated = 0.0, 0
        for m in axis:
            for k in axis:
                try:
                    q = qfi_eps(ModelParams(eps, m, k)).qfi
                except CosmoQfiError:
                    continue
                evaluated += 1
                worst = max(worst, scale * q)
        gap = 1.0 - scale * qfi_eps(ModelParams(eps, 1e-7, (1.0 + 2.0 * eps) * 1e-7)).qfi
        ok = ok and worst < 1.0 and gap < 1e-10 and evaluated >= 0.75 * n * n
        details.append(f"eps={eps}: max {worst:.5f} over {evaluated}, gap {gap:.1e}")
    _report(11, "(1+2eps)^2 F_Q below 1 on the (m, k) grid, reaching 1 in the sudden limit",
            ok, "; ".join(details))
