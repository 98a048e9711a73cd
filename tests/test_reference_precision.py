"""The closed form against a 40-digit reference over the admitted domain.

The reference evaluates the Gamma product

    |B/A|^2 = |Gamma(1 - i zeta_pp) Gamma(-i zeta_pm)|^2
              / |Gamma(1 + i zeta_mm) Gamma(i zeta_mp)|^2

and chi = (omega_out - mu_out)/k with mpmath, every frequency rebuilt from
the double inputs by the textbook differences, so it shares no code with the
package.  Its eps-derivative is a central difference with a step relative to
eps; `mp.diff`'s default absolute step leaves it off by 5e-4 at eps = 1e16
and 60 digits.  X, dX/deps and the QFI of `qfi_eps` must match it

* in the paper box, at 200 fixed-seed log-uniform points in [0.1, 10]^3, at
  40 digits (worst errors 2.1e-14 in all three);
* over the domain, at the first 1 000 fixed-seed log-uniform draws in
  [1e-8, 1e6]^3 wherever `qfi_eps` gives a normal positive QFI (512
  points), at 40 digits (worst 1.26e-13, at (5.8e-5, 2.7e-6, 77));
* at large eps, eps in {1e8, 1e12, 1e16} with (m, k) in {(1, 1), (0.1, 3),
  (5, 0.5)}, at 60 digits, since the reference's own differences cancel
  about 33 digits at eps = 1e16 (worst 1.35e-14);
* at (eps, m, k) = (1e50, 1e-200, 1e-200), where the product m k underflows,
  and at (1e-20, 1e-100, 1e-200), where zeta_mm = -5e-321 is subnormal, at
  450 digits (worst 8.7e-15 and 1.9e-14).

The Gamma route's |B/A|^2, `ratio_sq(coefficients(p))`, must match the
reference's at the same points up to its zeta_pp limit: all 200 box points
(worst 8.5e-14) and 487 of the 512 domain points (worst 3.4e-11), none at
large eps.
"""

import math
import random
import sys

import mpmath as mp
import pytest

from cosmo_qfi import (
    CosmoQfiError, ModelParams, coefficients, dX_deps_analytic, excitation_weight, frequencies,
    qfi_eps, ratio_sq,
)

NAMES = ("X", "dX", "qfi")
BOX_BOUND = 1e-13
DOMAIN_BOUND = 1e-12
DOMAIN_DRAWS = 1000
# The Gamma route raises past this zeta_pp rather than lose 1e-10.
GAMMA_ZETA_PP_MAX = 5e4
LARGE_EPS = [(eps, m, k) for eps in (1e8, 1e12, 1e16)
             for m, k in ((1.0, 1.0), (0.1, 3.0), (5.0, 0.5))]


def _reference_mixing(eps, m, k):
    """|B/A|^2 and chi^2."""
    mu_out = m * (1 + 2 * eps)
    omega_in, omega_out = mp.hypot(k, m), mp.hypot(k, mu_out)
    omega_plus, omega_minus = (omega_out + omega_in) / 2, (omega_out - omega_in) / 2
    z_pp, z_pm = omega_plus + m * eps, omega_plus - m * eps
    z_mp, z_mm = omega_minus + m * eps, omega_minus - m * eps
    mixing = abs(
        mp.gamma(1 - 1j * z_pp) * mp.gamma(-1j * z_pm)
        / (mp.gamma(1 + 1j * z_mm) * mp.gamma(1j * z_mp))
    ) ** 2
    chi = (omega_out - mu_out) / k
    return mixing, chi ** 2


def _reference_weight(eps, m, k):
    mixing, chi_sq = _reference_mixing(eps, m, k)
    return mixing * chi_sq


def _log_uniform(seed, count, lo, hi):
    rng = random.Random(seed)
    lo, hi = math.log(lo), math.log(hi)
    return [tuple(math.exp(rng.uniform(lo, hi)) for _ in range(3)) for _ in range(count)]


BOX_POINTS = _log_uniform(2024, 200, 0.1, 10.0)


def _worst_errors(points, digits=40):
    """Worst relative error of each figure over the points where `qfi_eps`
    gives a normal positive QFI, and how many points those were; the Gamma
    route's |B/A|^2 is counted apart, over those points it can resolve."""
    worst = dict.fromkeys((*NAMES, "gamma"), 0.0)
    worst["points"] = worst["gamma_points"] = 0
    with mp.workdps(digits):
        for eps, m, k in points:
            p = ModelParams(eps, m, k)
            try:
                res = qfi_eps(p)
            except CosmoQfiError:
                continue
            if not res.qfi >= sys.float_info.min:
                continue
            worst["points"] += 1
            eps, m, k = mp.mpf(eps), mp.mpf(m), mp.mpf(k)
            mixing, chi_sq = _reference_mixing(eps, m, k)
            X = mixing * chi_sq
            if frequencies(p).zeta_pp <= GAMMA_ZETA_PP_MAX:
                worst["gamma_points"] += 1
                gamma = ratio_sq(coefficients(p))
                worst["gamma"] = max(worst["gamma"], float(abs(gamma - mixing) / mixing))
            dX = mp.diff(lambda e: _reference_weight(e, m, k), eps,
                         h=eps * mp.mpf(2) ** (-mp.mp.prec // 2))
            qfi = dX ** 2 / (X * (1 + X) ** 2)
            for name, got, ref in (("X", res.state.X, X), ("dX", res.state.dX, dX),
                                   ("qfi", res.qfi, qfi)):
                worst[name] = max(worst[name], float(abs(got - ref) / abs(ref)))
    return worst


@pytest.fixture(scope="module")
def box_errors():
    return _worst_errors(BOX_POINTS)


@pytest.fixture(scope="module")
def domain_errors():
    return _worst_errors(_log_uniform(1, DOMAIN_DRAWS, 1e-8, 1e6))


@pytest.fixture(scope="module")
def large_eps_errors():
    return _worst_errors(LARGE_EPS, digits=60)


@pytest.mark.parametrize("name", NAMES)
def test_closed_form_matches_the_40_digit_reference(box_errors, name):
    assert box_errors["points"] == 200
    assert box_errors[name] < BOX_BOUND


@pytest.mark.parametrize("name", NAMES)
def test_closed_form_matches_the_reference_over_the_domain(domain_errors, name):
    assert domain_errors["points"] >= 500
    assert domain_errors[name] < DOMAIN_BOUND


@pytest.mark.parametrize("name", NAMES)
def test_closed_form_matches_the_reference_at_large_eps(large_eps_errors, name):
    assert large_eps_errors["points"] == len(LARGE_EPS)
    assert large_eps_errors[name] < DOMAIN_BOUND


@pytest.mark.parametrize("point", [
    # The derivative once formed m k first; there it underflowed and dropped
    # the zeta_pm and zeta_mm terms, so the QFI read 1.82e-201, not 2.50e-201.
    (1e50, 1e-200, 1e-200),
    # ln(sinh(pi a)/a) at a subnormal a = -zeta_mm once took expm1's few
    # bits, so X, dX and the QFI were 6.5e-5 off (4.00026e-200, not 4e-200).
    (1e-20, 1e-100, 1e-200),
])
def test_closed_form_matches_the_reference_where_m_k_underflows(point):
    errors = _worst_errors([point], digits=450)
    assert errors["points"] == 1
    for name in NAMES:
        assert errors[name] < DOMAIN_BOUND, name


def test_gamma_route_matches_the_reference_in_the_box(box_errors):
    assert box_errors["gamma_points"] == 200
    assert box_errors["gamma"] < 1e-12


def test_gamma_route_matches_the_reference_over_the_domain(domain_errors):
    # 25 of the 512 points lie past the route's zeta_pp limit.
    assert domain_errors["gamma_points"] == 487
    assert domain_errors["gamma"] < 1e-10


def test_analytic_derivative_is_the_excitation_weights_to_the_bit():
    # Both are X * d ln X/d eps from the one derivative chain.
    for point in BOX_POINTS:
        p = ModelParams(*point)
        assert dX_deps_analytic(p) == excitation_weight(p).dX, point
