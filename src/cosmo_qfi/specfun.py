"""The complex log-Gamma of the Bogoliubov Gamma route.

Gamma(i zeta) underflows once zeta passes ~230 and zeta grows linearly in the
expansion parameter, so the coefficients are carried as logarithms.  The
Lanczos approximation takes a single recurrence step near the imaginary
axis; the Bogoliubov coefficients take it at real parts 0 and 1 only, so it
rejects the left half-plane.
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
    coefficients land here).  Both hold in either half-plane.

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
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    # log Gamma(z) = log Gamma(z + 1) - log z
    return _lanczos_log_gamma(z + 1.0) - cmath.log(z)
