"""Cross-route verification suites.

Each check compares two independent computations of the same quantity:

* Gamma route (the four log-Gamma terms of ln |B/A|^2) versus sinh closed
  form for the mixing ratio;
* literal two-outcome QFI versus its simplified algebraic form;
* classical Fisher information of the eigenprojector measurement on the
  probe state `qfi_eps` returns versus the QFI it reports with that state;
* exact chain-rule derivative of the excitation weight versus Richardson
  finite differences;
* closed-form excitation weight X = |B/A|^2 chi^2 versus direct integration
  of the mode equation, with the drift of the in-mode's conserved Dirac norm
  as the integrator-quality gauge.  `check_wronskian` checks that drift; it
  keeps the name of the pair Wronskian the norm replaced because
  `perfbench/` traces it by that name.

The closed-form checks share one evaluation of each grid point and the oracle
checks one integration of each oracle point.  The tolerances are fixed; the
CLI `verify` command prints one row per check and fails if any check exceeds
its tolerance.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .bogoliubov import (
    coefficients, dX_deps_fd, excitation_weight, mixing_sq_sinh, ratio_sq,
)
from .cosmology import ModelParams
from .oracle import MatchResult, integrate_mode
from .probe import EstimationResult, qfi_eps
from .qfi import classical_fisher

GRID_RANGE = (0.1, 5.0)

IDENTITY_TOL = 1e-10
DERIVATIVE_TOL = 1e-6
ODE_TOL = 1e-4
DRIFT_TOL = 1e-8

# Curated oracle points spanning eps in [0.01, 5], m_tilde and k_tilde in
# [0.1, 5]; extra points beyond these are drawn from a fixed-seed generator.
ORACLE_POINTS = (
    (1.0, 1.0, 1.0),
    (0.01, 2.0, 0.5),
    (5.0, 0.3, 1.0),
    (0.5, 5.0, 2.0),
    (2.0, 0.1, 3.0),
    (1.5, 0.8, 5.0),
    (0.7, 1.2, 0.1),
    (3.0, 0.5, 0.7),
)


class CheckResult(namedtuple("CheckResult", ("name", "worst", "tolerance", "points"))):
    """Outcome of one verification check."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _grid_params(points: int) -> list[ModelParams]:
    if points < 2:
        raise ValueError(f"need at least 2 grid points per axis, got {points}")
    lo, hi = GRID_RANGE
    axis = [lo + i * (hi - lo) / (points - 1) for i in range(points)]
    return [
        ModelParams(eps=e, m_tilde=m, k_tilde=k)
        for e in axis for m in axis for k in axis
    ]


def grid_estimates(grid_points: int = 10) -> list[tuple[ModelParams, EstimationResult]]:
    """Each point of the identity grid with its closed-form evaluation, run once."""
    return [(p, qfi_eps(p)) for p in _grid_params(grid_points)]


def check_gamma_vs_sinh(grid: list[tuple[ModelParams, EstimationResult]]) -> CheckResult:
    """Mixing ratio from its four log-Gamma terms against the sinh closed form."""
    worst = max(
        _rel_diff(ratio_sq(coefficients(p)), mixing_sq_sinh(p)) for p, _ in grid
    )
    return CheckResult("gamma-vs-sinh identity", worst, IDENTITY_TOL, len(grid))


def check_qfi_identity(grid: list[tuple[ModelParams, EstimationResult]]) -> CheckResult:
    """Literal two-outcome QFI against (dX)^2 / (X (1+X)^2), zero at X = 0."""
    worst = 0.0
    for _, est in grid:
        X, dX = est.state.X, est.state.dX
        # dX/X first: dX*dX underflows where the QFI is normal.
        simplified = 0.0 if X == 0.0 else dX / X * dX / (1.0 + X) ** 2
        worst = max(worst, _rel_diff(est.qfi, simplified))
    return CheckResult("qfi literal-vs-simplified", worst, IDENTITY_TOL, len(grid))


def check_measurement_optimality(
    grid: list[tuple[ModelParams, EstimationResult]],
) -> CheckResult:
    """Eigenprojector classical Fisher information against the reported QFI."""
    worst = max(_rel_diff(classical_fisher(est.state), est.qfi) for _, est in grid)
    return CheckResult("measurement optimality", worst, IDENTITY_TOL, len(grid))


def check_derivative(grid: list[tuple[ModelParams, EstimationResult]]) -> CheckResult:
    """Analytic excitation-weight derivative against Richardson differences."""
    worst = max(_rel_diff(est.state.dX, dX_deps_fd(p)) for p, est in grid)
    return CheckResult("analytic-vs-fd derivative", worst, DERIVATIVE_TOL, len(grid))


def oracle_points(count: int = 5) -> list[ModelParams]:
    """Deterministic parameter points for the mode-equation oracle."""
    if count < 1:
        raise ValueError("need at least one oracle point")
    pts = [ModelParams(*t) for t in ORACLE_POINTS[:count]]
    if count > len(ORACLE_POINTS):
        rng = random.Random(20240831)
        for _ in range(count - len(ORACLE_POINTS)):
            pts.append(
                ModelParams(
                    eps=rng.uniform(0.01, 5.0),
                    m_tilde=rng.uniform(0.1, 5.0),
                    k_tilde=rng.uniform(0.1, 5.0),
                )
            )
    return pts


def oracle_matches(count: int = 5) -> list[tuple[ModelParams, MatchResult]]:
    """Each oracle point with its mode-equation integration, run once."""
    return [(p, integrate_mode(p)) for p in oracle_points(count)]


def check_ode_oracle(matches: list[tuple[ModelParams, MatchResult]]) -> CheckResult:
    """Closed-form excitation weight against direct mode-equation integration."""
    worst = max(_rel_diff(m.X, excitation_weight(p).X) for p, m in matches)
    return CheckResult("mode-equation oracle", worst, ODE_TOL, len(matches))


def check_wronskian(matches: list[tuple[ModelParams, MatchResult]]) -> CheckResult:
    """Dirac norm conservation along the oracle integrations."""
    worst = max(m.norm_drift for _, m in matches)
    return CheckResult("dirac norm drift", worst, DRIFT_TOL, len(matches))


def run_all(grid_points: int = 10, ode_points: int = 5) -> list[CheckResult]:
    """Every check at the given grid resolution and oracle point count."""
    grid = grid_estimates(grid_points)
    matches = oracle_matches(ode_points)
    return [
        check_gamma_vs_sinh(grid),
        check_qfi_identity(grid),
        check_measurement_optimality(grid),
        check_derivative(grid),
        check_ode_oracle(matches),
        check_wronskian(matches),
    ]
