"""The closed form against a 40-digit reference inside the paper box.

The reference evaluates the Gamma product

    |B/A|^2 = |Gamma(1 - i zeta_pp) Gamma(-i zeta_pm)|^2
              / |Gamma(1 + i zeta_mm) Gamma(i zeta_mp)|^2

and chi = (omega_out - mu_out)/k with mpmath at 40 digits, every frequency
rebuilt from the double inputs, so it shares no code with the package; its
eps-derivative is taken by `mp.diff`.  X, dX/deps and the QFI of `qfi_eps`
must match it at fixed-seed log-uniform points in [0.1, 10]^3.  The bounds
sit just above the worst errors the package shows there (8.6e-14, 4.9e-13
and 9.5e-13); outside the box `frequencies` still loses digits to
cancellation.
"""

import math
import random

import mpmath as mp
import pytest

from cosmo_qfi import ModelParams, qfi_eps

POINTS = 200
BOX = (0.1, 10.0)
BOUNDS = {"X": 1e-12, "dX": 1e-11, "qfi": 1e-11}


def _reference_weight(eps, m, k):
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
    return mixing * chi ** 2


def _box_points():
    rng = random.Random(2024)
    lo, hi = (math.log(b) for b in BOX)
    return [tuple(math.exp(rng.uniform(lo, hi)) for _ in range(3)) for _ in range(POINTS)]


@pytest.fixture(scope="module")
def worst_errors():
    worst = dict.fromkeys(BOUNDS, 0.0)
    with mp.workdps(40):
        for eps, m, k in _box_points():
            res = qfi_eps(ModelParams(eps, m, k))
            eps, m, k = mp.mpf(eps), mp.mpf(m), mp.mpf(k)
            X = _reference_weight(eps, m, k)
            dX = mp.diff(lambda e: _reference_weight(e, m, k), eps)
            qfi = dX ** 2 / (X * (1 + X) ** 2)
            for name, got, ref in (("X", res.state.X, X), ("dX", res.state.dX, dX),
                                   ("qfi", res.qfi, qfi)):
                worst[name] = max(worst[name], float(abs(got - ref) / abs(ref)))
    return worst


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_closed_form_matches_the_40_digit_reference(worst_errors, name):
    assert worst_errors[name] < BOUNDS[name]
