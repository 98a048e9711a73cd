"""Backend parity: compiled kernel against the pure-Python twin, SciPy and
the closed-form rotation.  The package runs only the pure twin; the tests
build the C twin from its current source and hold it to the pure twin's bits."""

import inspect
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import solve_ivp

import cosmo_qfi
from cosmo_qfi import _kernel, verify
from cosmo_qfi._kernel import pure

COMPILED = "cosmo_qfi._kernel._mode_rk"  # the module the `compiled` fixture loads

POINT = (1.0, 1.0, 1.0)  # eps, m, k
# verify's 12 oracle points and the benchmark's kernel points
PARITY_POINTS = [tuple(p) for p in verify.oracle_points(12)] + [
    POINT, (2.0, 0.1, 0.3), (0.5, 5.0, 2.0)]
SPAN = 15.0
STEPS = 3000  # the oracle's grid over [-SPAN, SPAN] wherever omega_out <= 50


def _in_spinor(m, k):
    # The past region's negative-frequency eigenspinor (k, -(omega_in + m)).
    return (k, 0.0, -(math.hypot(k, m) + m), 0.0)


def _scipy_endpoint(eps, m, k, y0):
    """chi' = i H chi as four real equations, by SciPy's DOP853."""

    def rhs(eta, y):
        mass = m * (1.0 + eps * (1.0 + math.tanh(eta)))
        ur, ui, vr, vi = y
        hu_r, hu_i = mass * ur + k * vr, mass * ui + k * vi
        hv_r, hv_i = k * ur - mass * vr, k * ui - mass * vi
        return [-hu_i, hu_r, -hv_i, hv_r]

    ref = solve_ivp(rhs, (-SPAN, SPAN), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    return ref.y[:, -1]


@pytest.fixture(params=[pure.__name__, COMPILED])
def kernel(request):
    """Each backend in turn: the pure twin, then the compiled kernel."""
    if request.param == COMPILED:
        return request.getfixturevalue("compiled")
    return pure


def test_backends_agree_on_endpoint(compiled):
    # The twins run the same operations in the same order: the same bits.
    for eps, m, k in PARITY_POINTS:
        args = (eps, m, k, -SPAN, SPAN, _in_spinor(m, k), STEPS)
        assert pure.integrate_endpoint(*args) == compiled.integrate_endpoint(*args)


def test_backends_agree_on_drift(compiled):
    for eps, m, k in PARITY_POINTS:
        args = (eps, m, k, -SPAN, SPAN, _in_spinor(m, k), STEPS)
        assert pure.integrate_pair_drift(*args) == compiled.integrate_pair_drift(*args)


def test_kernel_against_scipy(kernel):
    eps, m, k = POINT
    y0 = _in_spinor(m, k)
    got, steps = kernel.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, STEPS)
    assert steps == STEPS
    for a, b in zip(got, _scipy_endpoint(eps, m, k, y0)):
        assert abs(a - b) < 1e-9  # 1.3e-10 here


def test_magnus_step_is_fourth_order():
    # Halving the step divides the error by 2^4 = 16 (16.0 here); a Gauss
    # node moved by 1 % leaves a 2nd-order error term, which divides by 4.
    eps, m, k = POINT
    y0 = _in_spinor(m, k)
    ref = _scipy_endpoint(eps, m, k, y0)
    errors = []
    for n in (300, 600):
        got, _ = pure.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, n)
        errors.append(max(abs(a - b) for a, b in zip(got, ref)))
    assert errors[0] >= 12.0 * errors[1]


def test_step_is_exact_for_constant_h(kernel):
    # At m = 0, H = k sx is constant, so chi(eta) = cos(k L) chi0 +
    # i sin(k L) sx chi0 over a length L, whatever the step count.
    k, length = 1.3, 2.5
    u0, v0 = complex(0.6, -0.2), complex(0.1, 0.7)
    c, s = math.cos(k * length), math.sin(k * length)
    want = (c * u0 + 1j * s * v0, c * v0 + 1j * s * u0)
    for n in (1, 7):
        y, _ = kernel.integrate_endpoint(0.8, 0.0, k, 0.0, length,
                                         (u0.real, u0.imag, v0.real, v0.imag), n)
        for got, exact in zip((complex(y[0], y[1]), complex(y[2], y[3])), want):
            assert abs(got - exact) <= 1e-14


def test_kernel_rejects_bad_state_length(kernel):
    # Both twins raise CPython's own message for the C twin's "(dddd)" unit.
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        for n in (2, 8):
            with pytest.raises(
                    TypeError, match=rf"^{name}\(\) argument 6 must be sequence of length 4, not {n}$"):
                getattr(kernel, name)(*args, (1.0,) * n, STEPS)


def test_kernel_takes_any_sequence_state(kernel):
    y0 = _in_spinor(*POINT[1:])
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        run = getattr(kernel, name)
        assert run(*POINT, -SPAN, SPAN, list(y0), 30) == run(*POINT, -SPAN, SPAN, y0, 30)


def test_kernel_takes_no_keyword_arguments(kernel):
    y0 = _in_spinor(*POINT[1:])
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        with pytest.raises(TypeError):
            getattr(kernel, name)(*POINT, -SPAN, SPAN, y0, steps=STEPS)


def test_kernel_rejects_non_sequence_state(kernel):
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    with pytest.raises(TypeError):
        kernel.integrate_endpoint(*args, 1.0, STEPS)
    with pytest.raises(TypeError):
        kernel.integrate_pair_drift(*args, None, STEPS)


def test_kernel_rejects_zero_norm_state(kernel):
    # The drift is relative to the initial norm |u|^2 + |v|^2, which
    # vanishes for the zero state and where its squares underflow.
    for y0 in ((0.0,) * 4, (1e-200, 0.0, -1e-200, 0.0)):
        with pytest.raises(ValueError, match="^initial Dirac norm vanishes$"):
            kernel.integrate_pair_drift(1.0, 1.0, 1.0, -SPAN, SPAN, y0, STEPS)


def test_kernel_rejects_a_step_count_below_one(kernel):
    y0 = _in_spinor(*POINT[1:])
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        for n in (0, -1):
            with pytest.raises(ValueError, match="^step count must be at least 1$"):
                getattr(kernel, name)(*POINT, -SPAN, SPAN, y0, n)


def test_endpoint_accepts_the_zero_state(kernel):
    # Only the drift run needs a norm to divide by.
    y, steps = kernel.integrate_endpoint(1.0, 1.0, 1.0, -SPAN, SPAN, (0.0,) * 4, STEPS)
    assert y == (0.0,) * 4
    assert steps == STEPS


@pytest.mark.parametrize("steps", [30, STEPS])
def test_endpoint_matches_the_drift_run(kernel, steps):
    for eps, m, k in PARITY_POINTS[:5]:
        args = (eps, m, k, -SPAN, SPAN, _in_spinor(m, k), steps)
        y, drift, n = kernel.integrate_pair_drift(*args)
        assert kernel.integrate_endpoint(*args) == (y, n) == (y, steps)
        # Every step is unitary, so even 30 steps over the window keep the
        # norm to rounding.
        assert drift < 1e-13


def test_compiled_kernel_exposes_the_pure_contract(compiled):
    assert compiled.BACKEND == "compiled"
    # The C twin declares its signature in its docstring; an argument added to
    # or dropped from one twin alone shows here.
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        assert inspect.signature(getattr(compiled, name)) == inspect.signature(getattr(pure, name))


def test_selected_backend_exposes_contract():
    assert _kernel.impl is pure
    for name in ("integrate_endpoint", "integrate_pair_drift", "BACKEND"):
        assert hasattr(_kernel.impl, name)
    assert _kernel.BACKEND == cosmo_qfi.kernel_backend == "pure"


def test_package_ignores_a_built_kernel(build_kernel, tmp_path):
    # A _mode_rk built into a copy of the package's _kernel/ is never loaded:
    # the copy reports the pure twin, `verify` leaves the compiled module out
    # of sys.modules, and prints the bytes it printed before the build.
    package = tmp_path / "cosmo_qfi"
    shutil.copytree(Path(cosmo_qfi.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    script = ("import sys, cosmo_qfi\n"
              "from cosmo_qfi.cli import main\n"
              "main(['verify', '--points', '3', '--ode-points', '2'])\n"
              f"print(cosmo_qfi.kernel_backend, {COMPILED!r} in sys.modules)\n")

    def run():
        return subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
                              capture_output=True, text=True, timeout=120).stdout

    before = run()
    assert build_kernel(package / "_kernel").parent == package / "_kernel"
    assert run() == before
    assert before.endswith("all checks passed\npure False\n")
