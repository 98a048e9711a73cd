"""Numerically stable special functions for the Bogoliubov and Fisher layers.

Everything downstream that multiplies Gamma and sinh factors works in log
space: sinh(pi*zeta) overflows once zeta passes ~230 and zeta grows linearly
in the expansion parameter, so magnitudes are carried as logarithms and signs
are tracked explicitly by the callers.  The complex log-Gamma uses a Lanczos
approximation with a single recurrence step near the imaginary axis; the
Bogoliubov coefficients take it at real parts 0 and 1 only, so it rejects the
left half-plane.
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateParameterError

# Lanczos coefficients for g = 607/128 (Godfrey's 15-term set).  Relative
# error of exp(log_gamma) stays below ~1e-14 on Re z >= 0.5 at the magnitudes
# used here (|z| up to a few thousand).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO = math.log(2.0)


def _lanczos_log_gamma(z: complex) -> complex:
    # Core approximation, valid for Re z >= 0.5.
    zz = z - 1.0
    series = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(series)


def log_gamma(z: complex) -> complex:
    """Logarithm of the Gamma function, continuous on the right half-plane.

    Uses the Lanczos approximation for Re z >= 0.5 and one recurrence step
    for 0 <= Re z < 0.5 (the imaginary-axis arguments of the Bogoliubov
    coefficients land here).  Conjugate symmetry maps the lower half-plane
    onto the upper one.

    Raises
    ------
    DegenerateParameterError
        If z is the pole at zero or lies in the left half-plane Re z < 0,
        which holds every other pole and which no caller reaches.
    """
    z = complex(z)
    if z.real < 0.0 or z == 0.0:
        raise DegenerateParameterError(
            f"log_gamma supports Re z >= 0 except the pole at 0, got z = {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    # log Gamma(z) = log Gamma(z + 1) - log z
    return _lanczos_log_gamma(z + 1.0) - cmath.log(z)


def log_sinh_abs(x: float) -> float:
    """ln|sinh x|, exact to rounding for |x| from ~1e-300 up to ~1e6.

    Evaluated as |x| + ln(1 - e^{-2|x|}) - ln 2, which never overflows.
    """
    if x == 0.0:
        raise DegenerateParameterError("log_sinh_abs undefined at x = 0")
    ax = abs(x)
    return ax + math.log(-math.expm1(-2.0 * ax)) - _LOG_TWO


def coth(x: float) -> float:
    """cosh x / sinh x; exactly +-1 from |x| = 19.1 on, where tanh rounds to +-1."""
    if x == 0.0:
        raise DegenerateParameterError("coth undefined at x = 0")
    return 1.0 / math.tanh(x)


def sinh_over_x(x: float) -> float:
    """sinh(x)/x with the removable singularity at x = 0 filled by series."""
    ax = abs(x)
    if ax < 1e-3:
        x2 = x * x
        return 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0)
    return math.sinh(x) / x


def coth_minus_inv(x: float) -> float:
    """coth(x) - 1/x with the removable singularity at x = 0 filled by series.

    The direct difference loses ~x^2 relative digits near zero, so the series
    takes over for |x| < 0.1.
    """
    ax = abs(x)
    if ax < 0.1:
        x2 = x * x
        # x/3 - x^3/45 + 2 x^5/945 - x^7/4725
        return x * (1.0 / 3.0 + x2 * (-1.0 / 45.0 + x2 * (2.0 / 945.0 - x2 / 4725.0)))
    return coth(x) - 1.0 / x
