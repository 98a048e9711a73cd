"""Backend parity: compiled kernel against the pure-Python twin and scipy."""

import importlib.util
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from scipy.integrate import solve_ivp

from cosmo_qfi import _kernel
from cosmo_qfi._kernel import pure

COMPILED = "cosmo_qfi._kernel._mode_rk"

POINT = (1.0, 1.0, 1.0)  # eps, m, k
POINTS = (POINT, (0.5, 5.0, 2.0))
SPAN = 15.0
RTOL, ATOL = 1e-12, 1e-14


def _ic(omega, eta0):
    return (
        math.cos(omega * eta0),
        -math.sin(omega * eta0),
        omega * math.sin(omega * eta0),
        -omega * math.cos(omega * eta0),
    )


def _omega_in(m, k):
    return math.hypot(m, k)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel: the package's own build if there is one, else the
    shipped _mode_rk.c compiled into a temporary directory and loaded from
    there, without registering it as a package module.  The C source is
    maintained by hand, so any compiler warning fails the build."""
    try:
        return importlib.import_module(COMPILED)
    except ImportError:
        pass
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
    include = Path(sysconfig.get_paths()["include"])
    if cc is None or not (include / "Python.h").is_file():
        pytest.skip("no C compiler or no Python headers to build the kernel")
    source = Path(pure.__file__).with_name("_mode_rk.c")
    target = tmp_path_factory.mktemp("kernel") / (
        "_mode_rk" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O3", "-Wall", "-Werror", "-shared", "-fPIC", f"-I{include}",
                    str(source), "-o", str(target)], check=True, capture_output=True,
                   timeout=300)
    spec = importlib.util.spec_from_file_location(COMPILED, target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=[pure.__name__, COMPILED])
def kernel(request):
    """Each backend in turn: the pure twin, then the compiled kernel."""
    if request.param == COMPILED:
        return request.getfixturevalue("compiled")
    return pure


def test_backends_agree_on_endpoint(compiled):
    # The twins sum every stage in the same order, so they take the same steps.
    for eps, m, k in POINTS:
        y0 = _ic(_omega_in(m, k), -SPAN)
        yp, sp, stp = pure.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        yc, sc, stc = compiled.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        assert stp == stc == 0
        assert sp == sc
        scale = max(abs(v) for v in yp)
        for a, b in zip(yp, yc):
            assert abs(a - b) <= 1e-10 * scale


def test_backends_agree_on_drift(compiled):
    for eps, m, k in POINTS:
        y0 = _ic(_omega_in(m, k), -SPAN)
        _, dp, sp, stp = pure.integrate_pair_drift(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        _, dc, sc, stc = compiled.integrate_pair_drift(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
        assert stp == stc == 0
        assert sp == sc
        assert abs(dp - dc) <= 1e-10


def test_kernel_against_scipy(kernel):
    eps, m, k = POINT
    w_in = _omega_in(m, k)
    y0 = _ic(w_in, -SPAN)

    def rhs(eta, y):
        th = math.tanh(eta)
        a = 1.0 + eps * (1.0 + th)
        wc = k * k + m * m * a * a
        v = -m * eps * (1.0 - th * th)
        return [
            y[2],
            y[3],
            -(wc * y[0] - v * y[1]),
            -(wc * y[1] + v * y[0]),
        ]

    ref = solve_ivp(rhs, (-SPAN, SPAN), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    got, _, status = kernel.integrate_endpoint(eps, m, k, -SPAN, SPAN, y0, RTOL, ATOL)
    assert status == 0
    for a, b in zip(got, ref.y[:, -1]):
        assert abs(a - b) < 1e-8


def test_kernel_rejects_bad_state_length(kernel):
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    with pytest.raises(ValueError, match="^integrate_endpoint expects a 4-component state$"):
        kernel.integrate_endpoint(*args, (1.0, 0.0), RTOL, ATOL)
    with pytest.raises(ValueError, match="^integrate_endpoint expects a 4-component state$"):
        kernel.integrate_endpoint(*args, (1.0,) * 8, RTOL, ATOL)
    with pytest.raises(ValueError, match="^integrate_pair_drift expects a 4-component state$"):
        kernel.integrate_pair_drift(*args, (1.0,) * 8, RTOL, ATOL)


def test_kernel_rejects_non_sequence_state(kernel):
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    with pytest.raises(TypeError):
        kernel.integrate_endpoint(*args, 1.0, RTOL, ATOL)
    with pytest.raises(TypeError):
        kernel.integrate_pair_drift(*args, None, RTOL, ATOL)


def test_kernel_rejects_zero_norm_state(kernel):
    # The drift is relative to the initial norm, which vanishes only with psi
    # and psi' both zero.
    with pytest.raises(ValueError, match="^initial Dirac norm vanishes$"):
        kernel.integrate_pair_drift(1.0, 1.0, 1.0, -SPAN, SPAN, (0.0,) * 4, RTOL, ATOL)


def test_kernel_reports_step_underflow(kernel):
    # No step meets a relative tolerance of 1e-30, so h shrinks to the floor.
    y0 = _ic(_omega_in(1.0, 1.0), -SPAN)
    _, _, status = kernel.integrate_endpoint(1.0, 1.0, 1.0, -SPAN, SPAN, y0, 1e-30, 1e-300)
    assert status == kernel.STATUS_UNDERFLOW == pure.STATUS_UNDERFLOW
    _, _, _, status = kernel.integrate_pair_drift(1.0, 1.0, 1.0, -SPAN, SPAN, y0, 1e-30, 1e-300)
    assert status == pure.STATUS_UNDERFLOW


def test_kernel_stops_on_nan_error_estimate(kernel):
    # m^2 overflows to inf, so every error estimate is NaN.  Before the NaN
    # stop, both twins spun until their 5 000 000-attempt budget ran out.
    y0 = _ic(1.0, -SPAN)
    y, drift, steps, status = kernel.integrate_pair_drift(
        1.0, 1e160, 1.0, -SPAN, SPAN, y0, RTOL, ATOL)
    assert (y, drift, steps, status) == (y0, 0.0, 0, pure.STATUS_NONFINITE)
    y, steps, status = kernel.integrate_endpoint(1.0, 1e160, 1.0, -SPAN, SPAN, y0, RTOL, ATOL)
    assert (y, steps, status) == (y0, 0, pure.STATUS_NONFINITE)


def test_kernel_rejects_steps_on_infinite_error_estimate(kernel):
    # The scaled error overflows, so every estimate is inf: the step is
    # rejected and h shrinks to the floor.  Hairer's formula taken literally
    # would read inf / inf as NaN and stop the run as non-finite instead.
    y0 = tuple(1e150 * v for v in _ic(_omega_in(1.0, 1.0), -SPAN))
    args = (1.0, 1.0, 1.0, -SPAN, SPAN)
    _, steps, status = kernel.integrate_endpoint(*args, y0, 1e-300, 1e-300)
    assert (steps, status) == (0, pure.STATUS_UNDERFLOW)
    _, _, steps, status = kernel.integrate_pair_drift(*args, y0, 1e-300, 1e-300)
    assert (steps, status) == (0, pure.STATUS_UNDERFLOW)


def test_kernel_accepts_zero_error_estimate(kernel):
    # The zero solution has a zero error estimate, which 0 / 0 would make NaN.
    y, steps, status = kernel.integrate_endpoint(
        1.0, 1.0, 1.0, -SPAN, SPAN, (0.0,) * 4, RTOL, ATOL)
    assert (y, status) == ((0.0,) * 4, pure.STATUS_OK)
    assert steps > 0


def test_pure_tableau_is_scipys_dop853():
    # Every tableau constant of the pure twin equals SciPy's copy of Hairer's
    # dop853.f values; the C twin is held to the same steps by the parity tests.
    from scipy.integrate._ivp import dop853_coefficients as ref

    n, b = ref.N_STAGES, ref.A[ref.N_STAGES]
    want = {f"_C{s}": ref.C[s] for s in range(1, n - 1)}
    want.update({f"_A{s}_{j}": ref.A[s, j] for s in range(1, n) for j in range(s) if ref.A[s, j]})
    want.update({f"_B{j}": b[j] for j in range(n) if b[j]})
    want.update({f"_E{j}": ref.E5[j] for j in range(n) if ref.E5[j]})
    # SciPy folds the 3rd-order weights into E3 = B - BHH.
    want.update({f"_E3_{j}": ref.E3[j] for j in range(n) if ref.E3[j] != b[j]})
    have = {k: v for k, v in vars(pure).items() if re.fullmatch(r"_[ABCE]\d+(_\d+)?", k)}
    have.update({f"_E3_{k[4:]}": have[f"_B{k[4:]}"] - v
                 for k, v in vars(pure).items() if re.fullmatch(r"_BHH\d+", k)})
    assert have == want
    # The generic stepper's tables hold the same entries in the same places.
    nonzero = lambda row: tuple((j, row[j]) for j in range(n) if row[j])
    assert pure._STAGES == tuple((ref.C[s], nonzero(ref.A[s])) for s in range(1, n))
    assert pure._WEIGHTS == nonzero(b)
    assert pure._ERR5 == nonzero(ref.E5)


def _reference_pair_drift(eps, m, k, eta0, eta1, y0, rtol, atol):
    """integrate_pair_drift on the generic stepper: `_advance` with a monitor
    of k^2 times the Dirac norm |psi|^2 + |psi' - i M psi|^2 / k^2."""

    def norm(eta, y):
        mu = m * (1.0 + eps * (1.0 + math.tanh(eta)))
        x, z = y[2] + mu * y[1], y[3] - mu * y[0]
        return k * k * (y[0] * y[0] + y[1] * y[1]) + (x * x + z * z)

    n0 = norm(eta0, y0)
    worst = 0.0

    def monitor(eta, state):
        nonlocal worst
        worst = max(worst, abs(norm(eta, state) - n0) / n0)

    y, steps, status = pure._advance(eps, m, k, eta0, eta1, list(y0), rtol, atol, monitor)
    return tuple(y), worst, steps, status


def test_pure_pair_stepper_is_bit_identical_to_reference(monkeypatch):
    # The unrolled stepper writes every expression in _advance's order, so
    # its steps and returns must equal the reference's exactly, and its state
    # and steps those of integrate_endpoint, which runs on _advance.
    derivs = []
    real = pure._deriv

    def counted(*args):
        derivs.append(args[0])
        return real(*args)

    monkeypatch.setattr(pure, "_deriv", counted)
    rejected = 0
    for eps, m, k, rtol, atol in [(1.0, 1.0, 1.0, 1e-9, 1e-11), (0.5, 5.0, 2.0, 1e-8, 1e-10),
                                  (2.0, 0.3, 0.7, 1e-6, 1e-8)]:
        y0 = _ic(_omega_in(m, k), -SPAN)
        args = (eps, m, k, -SPAN, SPAN, y0, rtol, atol)
        derivs.clear()
        want = _reference_pair_drift(*args)
        got = pure.integrate_pair_drift(*args)
        assert got == want
        assert want[3] == pure.STATUS_OK
        assert want[1] > 0.0  # the monitor ran
        # _advance makes one _deriv call up front, eleven per attempt and
        # one more (the next step's first stage) per accepted step.
        rejected += (len(derivs) - 1 - want[2]) // 11 - want[2]
        assert pure.integrate_endpoint(*args) == (got[0], got[2], got[3])
    assert rejected > 0


def test_compiled_kernel_exposes_the_pure_contract(compiled):
    assert compiled.BACKEND == "compiled"
    for name in ("STATUS_OK", "STATUS_MAX_STEPS", "STATUS_UNDERFLOW", "STATUS_NONFINITE"):
        assert getattr(compiled, name) == getattr(pure, name)
    # The C twin declares its signature in its docstring; an argument added to
    # or dropped from one twin alone shows here.
    for name in ("integrate_endpoint", "integrate_pair_drift"):
        assert inspect.signature(getattr(compiled, name)) == inspect.signature(getattr(pure, name))


def test_env_var_forces_pure_backend():
    code = "import cosmo_qfi; print(cosmo_qfi.kernel_backend)"
    env = dict(os.environ, COSMO_QFI_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "pure"


def test_selected_backend_exposes_contract():
    for name in ("integrate_endpoint", "integrate_pair_drift", "BACKEND"):
        assert hasattr(_kernel.impl, name)
    assert _kernel.BACKEND in ("pure", "compiled")
