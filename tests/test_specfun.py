"""The log-Gamma of the Gamma route: identities, accuracy, pole handling."""

import math

import mpmath as mp
import numpy as np
import pytest

from cosmo_qfi import CosmoQfiError
from cosmo_qfi.specfun import log_gamma

mp.mp.dps = 30


def test_log_gamma_at_one_and_half():
    assert abs(log_gamma(1.0)) < 1e-13
    assert math.isclose(log_gamma(0.5).real, 0.5 * math.log(math.pi), rel_tol=1e-13)
    assert abs(log_gamma(0.5).imag) < 1e-13


def test_log_gamma_imaginary_unit():
    # |Gamma(i)|^2 = pi / sinh(pi)
    val = math.exp(2.0 * log_gamma(1j).real)
    assert math.isclose(val, math.pi / math.sinh(math.pi), rel_tol=1e-12)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -37.0])
def test_log_gamma_poles(z):
    with pytest.raises(CosmoQfiError, match="except the pole at 0"):
        log_gamma(z)


@pytest.mark.parametrize("z", [-0.5, -1e-300 + 2j, -3.5 - 7j])
def test_log_gamma_rejects_the_left_half_plane(z):
    # The Bogoliubov coefficients take log_gamma at real parts 0 and 1 only.
    with pytest.raises(CosmoQfiError, match="Re z >= 0"):
        log_gamma(z)


def test_log_gamma_against_mpmath_grid():
    # exp(log_gamma) matches Gamma to 1e-12 relative for |z| <= 50 on the
    # supported half-plane Re z >= 0, imaginary-axis arguments included.
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(300):
        x = rng.uniform(0.0, 30.0)
        y = rng.uniform(-40.0, 40.0)
        if math.hypot(x, y) > 50.0 or (y == 0.0 and x <= 0.0):
            continue
        pts.append(complex(x, y))
    pts += [1j * y for y in (0.01, 0.5, 2.0, 10.0, 40.0)]
    pts += [1.0 - 1j * y for y in (0.3, 5.0, 20.0)]
    for z in pts:
        mine = complex(mp.exp(mp.mpc(*[log_gamma(z).real, log_gamma(z).imag])))
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(mine - ref) <= 1e-12 * abs(ref), f"z={z}"


def test_log_gamma_recurrence_property():
    # exp(lg(z+1)) = z exp(lg(z)) to relative 1e-11.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = complex(rng.uniform(0.1, 10.0), rng.uniform(-20.0, 20.0))
        lhs = np.exp(complex(log_gamma(z + 1.0)))
        rhs = z * np.exp(complex(log_gamma(z)))
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_imaginary_axis_identity():
    # 2 Re log_gamma(iy) = ln|Gamma(iy)|^2 = ln(pi / (y sinh(pi y))) to 1e-11
    # on [0.01, 40].
    for y in np.linspace(0.01, 40.0, 400):
        y = float(y)
        direct = 2.0 * log_gamma(1j * y).real
        closed = math.log(math.pi / (y * math.sinh(math.pi * y)))
        assert abs(direct - closed) <= 1e-11 * max(1.0, abs(closed))
