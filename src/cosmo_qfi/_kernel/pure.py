"""Pure-Python fixed-step Magnus propagator for the mode equation.

The integrator the oracle runs.  `_mode_rk.c` is its C twin, with the same
step, the same positional-only arguments and the same floating-point
operations in the same order; the package never loads it, and the parity
tests hold the two to the same bits.

The equation integrated is the Dirac system

    chi' = i H chi,   H = [[M, k], [k, -M]],   M = m a(eta),
    a(eta) = 1 + eps (1 + tanh eta),

in units where the expansion rate is 1.  The state is the spinor
chi = (u, v) as the flat float vector (re u, im u, re v, im v).  Its first
component u is the mode function psi of the second-order mode equation
psi'' + [k^2 + M^2 - i M'] psi = 0, and v = -(i psi' + M psi)/k.

Each step is the 4th-order Magnus step with two Gauss nodes and one
commutator (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 983 (1999);
Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  With M1, M2 at
the nodes eta + (1/2 -+ sqrt(3)/6) h,

    Omega = i (a sz + b sx + c sy),   a = (h/2)(M1 + M2),   b = h k,
    c = -(sqrt(3)/6) h^2 k (M2 - M1),

and exp(Omega) = cos(t) I + i (sin(t)/t)(a sz + b sx + c sy) with
t = sqrt(a^2 + b^2 + c^2), which is positive for k > 0.  The step is exactly
unitary on the real axis and exact wherever M is constant, so the Dirac norm
|u|^2 + |v|^2, which H conserves, drifts by rounding alone; the kernel tracks
it at every step as a gauge of the arithmetic.

Every sum keeps the order and grouping of the C twin's `advance`:
floating-point sums are not associative, so a regrouped sum would move the
last bits of every returned figure, and the tests hold the twins to the same
bits.

`integrate_pair_drift` keeps the name it had when it advanced the in-mode
stacked with a partner solution, because `perfbench/` traces the kernel by
that name.
"""

from __future__ import annotations

import math

BACKEND = "pure"

# Gauss nodes as fractions of the step, and sqrt(3)/6 for the commutator.
_G1 = 0.21132486540518711775
_G2 = 0.78867513459481288225
_R3_6 = 0.28867513459481288225


def _march(name, with_drift, eps, m_tilde, k_tilde, eta0, eta1, y0, steps):
    """Advance the spinor y0 from eta0 to eta1 in `steps` equal Magnus steps.

    Returns (endpoint state tuple, initial norm n0, max |n - n0| over the
    steps), n = |u|^2 + |v|^2.  A zero n0 is refused if `with_drift`, as in
    the C twin, before the first step.
    """
    y = tuple(y0)
    if len(y) != 4:
        # CPython's message for the C twin's "(dddd)" argument unit.
        raise TypeError(f"{name}() argument 6 must be sequence of length 4, not {len(y)}")
    if steps < 1:
        raise ValueError("step count must be at least 1")
    n0 = (y[0] * y[0] + y[1] * y[1]) + (y[2] * y[2] + y[3] * y[3])
    if with_drift and n0 == 0.0:
        raise ValueError("initial Dirac norm vanishes")
    ur, ui, vr, vi = y
    h = (eta1 - eta0) / steps
    g1, g2 = _G1 * h, _G2 * h
    # M1 + M2 = m (2 + eps (2 + t1 + t2)) and M2 - M1 = m eps (t2 - t1),
    # with t1, t2 the tanh at the nodes.
    am = 0.5 * h * m_tilde
    b = h * k_tilde
    bb = b * b
    cm = -(_R3_6 * h * h * k_tilde * m_tilde * eps)
    tanh, sqrt, cos, sin = math.tanh, math.sqrt, math.cos, math.sin
    max_dev = 0.0
    for i in range(steps):
        eta = eta0 + i * h
        t1, t2 = tanh(eta + g1), tanh(eta + g2)
        a = am * (2.0 + eps * (2.0 + (t1 + t2)))
        c = cm * (t2 - t1)
        t = sqrt(a * a + bb + c * c)
        s = sin(t) / t
        co, al, be, ga = cos(t), s * a, s * b, s * c
        # (u, v) <- [[co + i al, ga + i be], [-ga + i be, co - i al]] (u, v)
        ur, ui, vr, vi = ((co * ur - al * ui) + (ga * vr - be * vi),
                          (co * ui + al * ur) + (ga * vi + be * vr),
                          (-ga * ur - be * ui) + (co * vr + al * vi),
                          (-ga * ui + be * ur) + (co * vi - al * vr))
        dev = abs((ur * ur + ui * ui) + (vr * vr + vi * vi) - n0)
        if dev > max_dev:
            max_dev = dev
    return (ur, ui, vr, vi), n0, max_dev


def integrate_endpoint(eps, m_tilde, k_tilde, eta0, eta1, y0, steps, /):
    """Advance one spinor; y0 has 4 components.

    Returns (endpoint state tuple, step count).
    """
    y, _, _ = _march("integrate_endpoint", False, eps, m_tilde, k_tilde, eta0, eta1, y0,
                     steps)
    return y, steps


def integrate_pair_drift(eps, m_tilde, k_tilde, eta0, eta1, y0, steps, /):
    """Advance one spinor, tracking its Dirac norm at every step.  y0 has 4
    components, not all zero.

    Returns (endpoint state tuple, max relative norm drift, step count).
    """
    y, n0, dev = _march("integrate_pair_drift", True, eps, m_tilde, k_tilde, eta0, eta1, y0,
                        steps)
    # Rounding a division by a positive n0 is monotone, so max|n - n0| / n0
    # is the largest step drift to the bit.  An infinite or NaN n0 makes
    # every step's drift NaN, and a NaN drift never raises the maximum.
    return y, dev / n0 if n0 < math.inf else 0.0, steps
