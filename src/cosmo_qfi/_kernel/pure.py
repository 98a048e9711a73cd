"""Pure-Python Dormand-Prince 5(4) stepper for the mode equation.

Reference implementation of the hot kernel; the compiled twin, written in C
in `_mode_rk.c`, uses the same tableau, the same step controller and the same
status codes, so either backend can serve the oracle.  State is a flat float
vector holding one or two solutions as (re psi, im psi, re dpsi, im dpsi)
blocks; stacked solutions advance through identical step sequences, which is
what makes the Wronskian monitor meaningful.

The equation integrated is

    psi'' + [k^2 + m^2 a(eta)^2 + sign * i m a'(eta)] psi = 0,
    a(eta) = 1 + eps (1 + tanh eta),

in units where the expansion rate is 1.
"""

from __future__ import annotations

import math

BACKEND = "pure"

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_H_INIT = 1e-3
_H_MAX = 1.0  # never step across the expansion epoch, whose width is O(1)
_MAX_STEPS = 5_000_000


def _deriv(eta, y, eps, m, k, sign):
    th = math.tanh(eta)
    a = 1.0 + eps * (1.0 + th)
    w = k * k + m * m * a * a
    v = sign * m * eps * (1.0 - th * th)
    out = [0.0] * len(y)
    for j in range(0, len(y), 4):
        out[j] = y[j + 2]
        out[j + 1] = y[j + 3]
        out[j + 2] = -(w * y[j] - v * y[j + 1])
        out[j + 3] = -(w * y[j + 1] + v * y[j])
    return out


def _advance(eps, m, k, sign, eta0, eta1, y, rtol, atol, monitor=None):
    """Advance y in place from eta0 to eta1; returns (y, accepted, status)."""
    n = len(y)
    rng = range(n)
    eta = eta0
    h = min(_H_INIT, eta1 - eta0)
    k1 = _deriv(eta, y, eps, m, k, sign)
    accepted = 0
    attempts = 0
    while eta < eta1:
        attempts += 1
        if attempts > _MAX_STEPS:
            return y, accepted, STATUS_MAX_STEPS
        if h < 1e-14 * max(1.0, abs(eta)):
            return y, accepted, STATUS_UNDERFLOW
        last = eta + h >= eta1
        if last:
            h = eta1 - eta
        yt = [y[i] + h * _A21 * k1[i] for i in rng]
        k2 = _deriv(eta + _C2 * h, yt, eps, m, k, sign)
        yt = [y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in rng]
        k3 = _deriv(eta + _C3 * h, yt, eps, m, k, sign)
        yt = [y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in rng]
        k4 = _deriv(eta + _C4 * h, yt, eps, m, k, sign)
        yt = [
            y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
            for i in rng
        ]
        k5 = _deriv(eta + _C5 * h, yt, eps, m, k, sign)
        yt = [
            y[i]
            + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
            for i in rng
        ]
        k6 = _deriv(eta + h, yt, eps, m, k, sign)
        ynew = [
            y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
            for i in rng
        ]
        k7 = _deriv(eta + h, ynew, eps, m, k, sign)
        err_sq = 0.0
        for i in rng:
            e = h * (
                _E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i]
            )
            sc = atol + rtol * max(abs(y[i]), abs(ynew[i]))
            err_sq += (e / sc) * (e / sc)
        err = math.sqrt(err_sq / n)
        if err <= 1.0:
            eta = eta1 if last else eta + h
            y = ynew
            k1 = k7  # first-same-as-last
            accepted += 1
            if monitor is not None:
                monitor(y)
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            fac = max(0.2, min(1.0, 0.9 * err ** -0.2))
        h = min(h * fac, _H_MAX)
    return y, accepted, STATUS_OK


def integrate_endpoint(eps, m_tilde, k_tilde, sign, eta0, eta1, y0, rel_tol, abs_tol):
    """Integrate one solution; y0 has 4 components.

    Returns (endpoint state tuple, accepted step count, status).
    """
    y = list(y0)
    if len(y) != 4:
        raise ValueError("integrate_endpoint expects a 4-component state")
    y, steps, status = _advance(
        eps, m_tilde, k_tilde, float(sign), eta0, eta1, y, rel_tol, abs_tol
    )
    return tuple(y), steps, status


def _wronskian(y):
    # W = psi1 dpsi2 - psi2 dpsi1 for the stacked pair.
    wr = (y[0] * y[6] - y[1] * y[7]) - (y[4] * y[2] - y[5] * y[3])
    wi = (y[0] * y[7] + y[1] * y[6]) - (y[4] * y[3] + y[5] * y[2])
    return wr, wi


def integrate_pair_drift(eps, m_tilde, k_tilde, sign, eta0, eta1, y0, rel_tol, abs_tol):
    """Integrate two stacked solutions, tracking the Wronskian at every
    accepted step.  y0 has 8 components.

    Returns (endpoint state tuple, max relative Wronskian drift,
    accepted step count, status).
    """
    y = list(y0)
    if len(y) != 8:
        raise ValueError("integrate_pair_drift expects an 8-component state")
    w0r, w0i = _wronskian(y)
    w0_abs = math.hypot(w0r, w0i)
    if w0_abs == 0.0:
        raise ValueError("initial Wronskian vanishes; solutions not independent")
    worst = 0.0

    def monitor(state):
        nonlocal worst
        wr, wi = _wronskian(state)
        drift = math.hypot(wr - w0r, wi - w0i) / w0_abs
        if drift > worst:
            worst = drift

    y, steps, status = _advance(
        eps, m_tilde, k_tilde, float(sign), eta0, eta1, y, rel_tol, abs_tol, monitor
    )
    return tuple(y), worst, steps, status
