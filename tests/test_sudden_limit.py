"""The closed form against its sudden-expansion limit, a route kept in the tests.

As m, k -> 0 at a fixed ratio c = k/m every sinh(pi zeta) tends to pi zeta,
so the excitation weight tends to X_s(c, eps) = (zeta_mp/zeta_pm)^2 chi^2,
with every frequency in units of m.  X_s and its eps-derivative are evaluated
here with mpmath at 40 digits, apart from the package; the QFI they give is
stationary at c = 1 + 2 eps, where it equals 1/(1 + 2 eps)^2, the supremum
of acceptance criterion 11.
"""

import mpmath as mp
import pytest

from cosmo_qfi import ModelParams, qfi_eps

EPS_VALUES = (0.1, 1.0, 5.0)
LIMIT_RTOL = 1e-10


def _limit_weight(c, eps):
    mu_out = 1 + 2 * eps
    omega_in, omega_out = mp.hypot(c, 1), mp.hypot(c, mu_out)
    zeta_pm = (omega_out + omega_in) / 2 - eps
    zeta_mp = (omega_out - omega_in) / 2 + eps
    chi = c / (omega_out + mu_out)
    return (zeta_mp / zeta_pm) ** 2 * chi ** 2


def _limit_qfi(c, eps):
    with mp.workdps(40):
        c, eps = mp.mpf(c), mp.mpf(eps)
        X = _limit_weight(c, eps)
        dX = mp.diff(lambda e: _limit_weight(c, e), eps)
        return dX ** 2 / (X * (1 + X) ** 2)


def _relative_error(c, eps, m):
    ref = _limit_qfi(c, eps)
    return float(abs(qfi_eps(ModelParams(eps, m, c * m)).qfi - ref) / ref)


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("ratio", ["0.3", "1", "ray", "10"])
def test_qfi_tends_to_the_sudden_limit(eps, ratio):
    c = 1.0 + 2.0 * eps if ratio == "ray" else float(ratio)
    near, far = _relative_error(c, eps, 1e-7), _relative_error(c, eps, 1e-5)
    assert near < LIMIT_RTOL
    # the closed form approaches the limit at second order in m
    assert near < 1e-3 * far


@pytest.mark.parametrize("eps", EPS_VALUES)
def test_sudden_limit_qfi_peaks_at_the_supremum_on_the_ray(eps):
    with mp.workdps(40):
        mu_out = 1 + 2 * mp.mpf(eps)
        peak = _limit_qfi(mu_out, eps)
        assert abs(peak * mu_out ** 2 - 1) < mp.mpf(10) ** -30
        for side in (1 - mp.mpf("1e-3"), 1 + mp.mpf("1e-3")):
            assert _limit_qfi(mu_out * side, eps) < peak
