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

Two steppers share the tableau.  `_advance`, over `_deriv`, is the generic
reference for any number of stacked solutions; `integrate_endpoint` runs on
it, and the tests compare against it.  `integrate_pair_drift`, the entry
point the oracle calls, runs its own copy of that loop unrolled over the
8-component pair, holding the state, the seven stages and the Wronskian
monitor in scalar locals, which about halves the cost of a step.  The copy
writes every expression in the order and grouping of `_advance` and
`_deriv`: floating-point sums are not associative, so a regrouped sum would
move the last bits of an error estimate and from there the step sequence and
every returned figure.  Written this way the two give equal results, bit for
bit.
"""

from __future__ import annotations

import math

BACKEND = "pure"

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_UNDERFLOW = 2
STATUS_NONFINITE = 3

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
        elif math.isnan(err):
            # No step size makes a NaN estimate pass: stop, not spin to the budget.
            return y, accepted, STATUS_NONFINITE
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
    y = tuple(y0)
    if len(y) != 8:
        raise ValueError("integrate_pair_drift expects an 8-component state")
    w0r, w0i = _wronskian(y)
    w0_abs = math.hypot(w0r, w0i)
    if w0_abs == 0.0:
        raise ValueError("initial Wronskian vanishes; solutions not independent")
    worst = 0.0
    # x* is the state.  Stage j's derivative kj_i equals its stage state's
    # component i + 2 for i in (0, 1, 4, 5), so that component is stored
    # only as kj_i (for stage 1, as the state's x_{i+2}); t* and n* (the new
    # state) hold the stage components 0, 1, 4 and 5.
    x0, x1, x2, x3, x4, x5, x6, x7 = y
    sign = float(sign)
    kk, mm, sme = k_tilde * k_tilde, m_tilde * m_tilde, sign * m_tilde * eps
    th = math.tanh(eta0)
    a = 1.0 + eps * (1.0 + th)
    w = kk + mm * a * a
    v = sme * (1.0 - th * th)
    k1_2 = -(w * x0 - v * x1)
    k1_3 = -(w * x1 + v * x0)
    k1_6 = -(w * x4 - v * x5)
    k1_7 = -(w * x5 + v * x4)
    eta = eta0
    h = min(_H_INIT, eta1 - eta0)
    accepted = 0
    attempts = 0
    while eta < eta1:
        attempts += 1
        if attempts > _MAX_STEPS:
            return (x0, x1, x2, x3, x4, x5, x6, x7), worst, accepted, STATUS_MAX_STEPS
        if h < 1e-14 * max(1.0, abs(eta)):
            return (x0, x1, x2, x3, x4, x5, x6, x7), worst, accepted, STATUS_UNDERFLOW
        last = eta + h >= eta1
        if last:
            h = eta1 - eta
        t0 = x0 + h * _A21 * x2
        t1 = x1 + h * _A21 * x3
        k2_0 = x2 + h * _A21 * k1_2
        k2_1 = x3 + h * _A21 * k1_3
        t4 = x4 + h * _A21 * x6
        t5 = x5 + h * _A21 * x7
        k2_4 = x6 + h * _A21 * k1_6
        k2_5 = x7 + h * _A21 * k1_7
        th = math.tanh(eta + _C2 * h)
        a = 1.0 + eps * (1.0 + th)
        w = kk + mm * a * a
        v = sme * (1.0 - th * th)
        k2_2 = -(w * t0 - v * t1)
        k2_3 = -(w * t1 + v * t0)
        k2_6 = -(w * t4 - v * t5)
        k2_7 = -(w * t5 + v * t4)
        t0 = x0 + h * (_A31 * x2 + _A32 * k2_0)
        t1 = x1 + h * (_A31 * x3 + _A32 * k2_1)
        k3_0 = x2 + h * (_A31 * k1_2 + _A32 * k2_2)
        k3_1 = x3 + h * (_A31 * k1_3 + _A32 * k2_3)
        t4 = x4 + h * (_A31 * x6 + _A32 * k2_4)
        t5 = x5 + h * (_A31 * x7 + _A32 * k2_5)
        k3_4 = x6 + h * (_A31 * k1_6 + _A32 * k2_6)
        k3_5 = x7 + h * (_A31 * k1_7 + _A32 * k2_7)
        th = math.tanh(eta + _C3 * h)
        a = 1.0 + eps * (1.0 + th)
        w = kk + mm * a * a
        v = sme * (1.0 - th * th)
        k3_2 = -(w * t0 - v * t1)
        k3_3 = -(w * t1 + v * t0)
        k3_6 = -(w * t4 - v * t5)
        k3_7 = -(w * t5 + v * t4)
        t0 = x0 + h * (_A41 * x2 + _A42 * k2_0 + _A43 * k3_0)
        t1 = x1 + h * (_A41 * x3 + _A42 * k2_1 + _A43 * k3_1)
        k4_0 = x2 + h * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2)
        k4_1 = x3 + h * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3)
        t4 = x4 + h * (_A41 * x6 + _A42 * k2_4 + _A43 * k3_4)
        t5 = x5 + h * (_A41 * x7 + _A42 * k2_5 + _A43 * k3_5)
        k4_4 = x6 + h * (_A41 * k1_6 + _A42 * k2_6 + _A43 * k3_6)
        k4_5 = x7 + h * (_A41 * k1_7 + _A42 * k2_7 + _A43 * k3_7)
        th = math.tanh(eta + _C4 * h)
        a = 1.0 + eps * (1.0 + th)
        w = kk + mm * a * a
        v = sme * (1.0 - th * th)
        k4_2 = -(w * t0 - v * t1)
        k4_3 = -(w * t1 + v * t0)
        k4_6 = -(w * t4 - v * t5)
        k4_7 = -(w * t5 + v * t4)
        t0 = x0 + h * (_A51 * x2 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0)
        t1 = x1 + h * (_A51 * x3 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1)
        k5_0 = x2 + h * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2)
        k5_1 = x3 + h * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3)
        t4 = x4 + h * (_A51 * x6 + _A52 * k2_4 + _A53 * k3_4 + _A54 * k4_4)
        t5 = x5 + h * (_A51 * x7 + _A52 * k2_5 + _A53 * k3_5 + _A54 * k4_5)
        k5_4 = x6 + h * (_A51 * k1_6 + _A52 * k2_6 + _A53 * k3_6 + _A54 * k4_6)
        k5_5 = x7 + h * (_A51 * k1_7 + _A52 * k2_7 + _A53 * k3_7 + _A54 * k4_7)
        th = math.tanh(eta + _C5 * h)
        a = 1.0 + eps * (1.0 + th)
        w = kk + mm * a * a
        v = sme * (1.0 - th * th)
        k5_2 = -(w * t0 - v * t1)
        k5_3 = -(w * t1 + v * t0)
        k5_6 = -(w * t4 - v * t5)
        k5_7 = -(w * t5 + v * t4)
        t0 = x0 + h * (_A61 * x2 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0)
        t1 = x1 + h * (_A61 * x3 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1)
        k6_0 = x2 + h * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2)
        k6_1 = x3 + h * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3)
        t4 = x4 + h * (_A61 * x6 + _A62 * k2_4 + _A63 * k3_4 + _A64 * k4_4 + _A65 * k5_4)
        t5 = x5 + h * (_A61 * x7 + _A62 * k2_5 + _A63 * k3_5 + _A64 * k4_5 + _A65 * k5_5)
        k6_4 = x6 + h * (_A61 * k1_6 + _A62 * k2_6 + _A63 * k3_6 + _A64 * k4_6 + _A65 * k5_6)
        k6_5 = x7 + h * (_A61 * k1_7 + _A62 * k2_7 + _A63 * k3_7 + _A64 * k4_7 + _A65 * k5_7)
        th = math.tanh(eta + h)
        a = 1.0 + eps * (1.0 + th)
        w = kk + mm * a * a
        v = sme * (1.0 - th * th)
        k6_2 = -(w * t0 - v * t1)
        k6_3 = -(w * t1 + v * t0)
        k6_6 = -(w * t4 - v * t5)
        k6_7 = -(w * t5 + v * t4)
        # Stage 7 is taken at eta + h like stage 6, so w and v carry over.
        n0 = x0 + h * (_B1 * x2 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
        n1 = x1 + h * (_B1 * x3 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
        k7_0 = x2 + h * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
        k7_1 = x3 + h * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
        n4 = x4 + h * (_B1 * x6 + _B3 * k3_4 + _B4 * k4_4 + _B5 * k5_4 + _B6 * k6_4)
        n5 = x5 + h * (_B1 * x7 + _B3 * k3_5 + _B4 * k4_5 + _B5 * k5_5 + _B6 * k6_5)
        k7_4 = x6 + h * (_B1 * k1_6 + _B3 * k3_6 + _B4 * k4_6 + _B5 * k5_6 + _B6 * k6_6)
        k7_5 = x7 + h * (_B1 * k1_7 + _B3 * k3_7 + _B4 * k4_7 + _B5 * k5_7 + _B6 * k6_7)
        k7_2 = -(w * n0 - v * n1)
        k7_3 = -(w * n1 + v * n0)
        k7_6 = -(w * n4 - v * n5)
        k7_7 = -(w * n5 + v * n4)
        e = h * (_E1 * x2 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0)
        ay, an = abs(x0), abs(n0)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq = q * q
        e = h * (_E1 * x3 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1)
        ay, an = abs(x1), abs(n1)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2)
        ay, an = abs(x2), abs(k7_0)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3)
        ay, an = abs(x3), abs(k7_1)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * x6 + _E3 * k3_4 + _E4 * k4_4 + _E5 * k5_4 + _E6 * k6_4 + _E7 * k7_4)
        ay, an = abs(x4), abs(n4)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * x7 + _E3 * k3_5 + _E4 * k4_5 + _E5 * k5_5 + _E6 * k6_5 + _E7 * k7_5)
        ay, an = abs(x5), abs(n5)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * k1_6 + _E3 * k3_6 + _E4 * k4_6 + _E5 * k5_6 + _E6 * k6_6 + _E7 * k7_6)
        ay, an = abs(x6), abs(k7_4)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        e = h * (_E1 * k1_7 + _E3 * k3_7 + _E4 * k4_7 + _E5 * k5_7 + _E6 * k6_7 + _E7 * k7_7)
        ay, an = abs(x7), abs(k7_5)
        q = e / (abs_tol + rel_tol * (an if an > ay else ay))
        err_sq += q * q
        err = math.sqrt(err_sq / 8)
        if err <= 1.0:
            eta = eta1 if last else eta + h
            x0, x1, x2, x3, x4, x5, x6, x7 = n0, n1, k7_0, k7_1, n4, n5, k7_4, k7_5
            k1_2, k1_3, k1_6, k1_7 = k7_2, k7_3, k7_6, k7_7
            accepted += 1
            wr = (x0 * x6 - x1 * x7) - (x4 * x2 - x5 * x3)
            wi = (x0 * x7 + x1 * x6) - (x4 * x3 + x5 * x2)
            drift = math.hypot(wr - w0r, wi - w0i) / w0_abs
            if drift > worst:
                worst = drift
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        elif math.isnan(err):
            return (x0, x1, x2, x3, x4, x5, x6, x7), worst, accepted, STATUS_NONFINITE
        else:
            fac = max(0.2, min(1.0, 0.9 * err ** -0.2))
        h = min(h * fac, _H_MAX)
    return (x0, x1, x2, x3, x4, x5, x6, x7), worst, accepted, STATUS_OK
