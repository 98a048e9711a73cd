"""Pure-Python DOP853 stepper for the mode equation.

Twin of the compiled kernel in `_mode_rk.c`: the same tableau, the same step
controller, the same RuntimeError message for each failure, the same
positional-only arguments and the same floating-point operations in the same
order, so either backend can serve the oracle.  The state is one solution as
the flat float vector (re psi, im psi, re psi', im psi').

The equation integrated is

    psi'' + [k^2 + M^2 - i M'] psi = 0,   M = m a(eta),
    a(eta) = 1 + eps (1 + tanh eta),

in units where the expansion rate is 1.  It is the second-order form of the
Dirac system i chi' = -H chi with H = [[M, k], [k, -M]] and
chi = (psi, -(i psi' + M psi)/k).  H is Hermitian, so the Dirac norm

    N = |psi|^2 + |psi' - i M psi|^2 / k^2

is exactly conserved whatever a(eta) does, and its drift gauges the
integrator on the one solution it advances.

The method is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10):
twelve stages, the first taken from the last step's endpoint (FSAL), an
8th-order solution and Hairer's error estimate combining the 5th- and
3rd-order embedded pairs.  At the oracle's rel_tol of 1e-12 it takes about
15 times fewer steps than Dormand-Prince 5(4).

One loop, `_march`, serves both entry points.  It is unrolled over the
stages, with psi and psi' in two complex locals, and tracks the norm at every
accepted step.  A complex local halves the Python operations per stage
against two float locals, and it is exact: CPython's complex product
computes the C twin's w*y0 - v*y1 and w*y1 + v*y0 term for term, and a float
times a complex gives the same parts as two float products for finite
values.  Every sum keeps the order and grouping of the C twin's `advance`:
floating-point sums are not associative, so a regrouped sum would move the
last bits of an error estimate and from there the step sequence and every
returned figure.  The tests hold this loop to the C twin step for step and
to SciPy's DOP853.

`integrate_pair_drift` keeps the name it had when it advanced the in-mode
stacked with a partner solution, because `perfbench/` traces the kernel by
that name.
"""

from __future__ import annotations

import math

BACKEND = "pure"

# DOP853 tableau, as in Hairer's dop853.f (the decimal literals of SciPy's
# dop853_coefficients).  Stage s runs at eta + _Cs h (stage 11 at eta + h)
# from the stages j < s with a nonzero _As_j; _B* weigh the 8th-order
# solution and _E* the 5th-order error.  The 3rd-order error is the _B*
# weighted sum less the _BHH* terms, as in dop853.f.
_C1 = 0.526001519587677318785587544488e-01
_C2 = 0.789002279381515978178381316732e-01
_C3 = 0.118350341907227396726757197510
_C4 = 0.281649658092772603273242802490
_C5 = 0.333333333333333333333333333333
_C6 = 0.25
_C7 = 0.307692307692307692307692307692
_C8 = 0.651282051282051282051282051282
_C9 = 0.6
_C10 = 0.857142857142857142857142857142
_A1_0 = 5.26001519587677318785587544488e-2
_A2_0 = 1.97250569845378994544595329183e-2
_A2_1 = 5.91751709536136983633785987549e-2
_A3_0 = 2.95875854768068491816892993775e-2
_A3_2 = 8.87627564304205475450678981324e-2
_A4_0 = 2.41365134159266685502369798665e-1
_A4_2 = -8.84549479328286085344864962717e-1
_A4_3 = 9.24834003261792003115737966543e-1
_A5_0 = 3.7037037037037037037037037037e-2
_A5_3 = 1.70828608729473871279604482173e-1
_A5_4 = 1.25467687566822425016691814123e-1
_A6_0 = 3.7109375e-2
_A6_3 = 1.70252211019544039314978060272e-1
_A6_4 = 6.02165389804559606850219397283e-2
_A6_5 = -1.7578125e-2
_A7_0 = 3.70920001185047927108779319836e-2
_A7_3 = 1.70383925712239993810214054705e-1
_A7_4 = 1.07262030446373284651809199168e-1
_A7_5 = -1.53194377486244017527936158236e-2
_A7_6 = 8.27378916381402288758473766002e-3
_A8_0 = 6.24110958716075717114429577812e-1
_A8_3 = -3.36089262944694129406857109825
_A8_4 = -8.68219346841726006818189891453e-1
_A8_5 = 2.75920996994467083049415600797e1
_A8_6 = 2.01540675504778934086186788979e1
_A8_7 = -4.34898841810699588477366255144e1
_A9_0 = 4.77662536438264365890433908527e-1
_A9_3 = -2.48811461997166764192642586468
_A9_4 = -5.90290826836842996371446475743e-1
_A9_5 = 2.12300514481811942347288949897e1
_A9_6 = 1.52792336328824235832596922938e1
_A9_7 = -3.32882109689848629194453265587e1
_A9_8 = -2.03312017085086261358222928593e-2
_A10_0 = -9.3714243008598732571704021658e-1
_A10_3 = 5.18637242884406370830023853209
_A10_4 = 1.09143734899672957818500254654
_A10_5 = -8.14978701074692612513997267357
_A10_6 = -1.85200656599969598641566180701e1
_A10_7 = 2.27394870993505042818970056734e1
_A10_8 = 2.49360555267965238987089396762
_A10_9 = -3.0467644718982195003823669022
_A11_0 = 2.27331014751653820792359768449
_A11_3 = -1.05344954667372501984066689879e1
_A11_4 = -2.00087205822486249909675718444
_A11_5 = -1.79589318631187989172765950534e1
_A11_6 = 2.79488845294199600508499808837e1
_A11_7 = -2.85899827713502369474065508674
_A11_8 = -8.87285693353062954433549289258
_A11_9 = 1.23605671757943030647266201528e1
_A11_10 = 6.43392746015763530355970484046e-1
_B0 = 5.42937341165687622380535766363e-2
_B5 = 4.45031289275240888144113950566
_B6 = 1.89151789931450038304281599044
_B7 = -5.8012039600105847814672114227
_B8 = 3.1116436695781989440891606237e-1
_B9 = -1.52160949662516078556178806805e-1
_B10 = 2.01365400804030348374776537501e-1
_B11 = 4.47106157277725905176885569043e-2
_E0 = 0.1312004499419488073250102996e-1
_E5 = -0.1225156446376204440720569753e+1
_E6 = -0.4957589496572501915214079952
_E7 = 0.1664377182454986536961530415e+1
_E8 = -0.3503288487499736816886487290
_E9 = 0.3341791187130174790297318841
_E10 = 0.8192320648511571246570742613e-1
_E11 = -0.2235530786388629525884427845e-1
_BHH0 = 0.244094488188976377952755905512
_BHH8 = 0.733846688281611857341361741547
_BHH11 = 0.220588235294117647058823529412e-1

_H_INIT = 1e-3
_H_MAX = 1.0  # never step across the expansion epoch, whose width is O(1)
_MAX_STEPS = 5_000_000


def _error(h, err5, err3):
    """Hairer's combined error from the mean squares of the scaled 5th- and
    3rd-order estimates: h err5 / sqrt(err5 + 0.01 err3), which is
    h E5^2 / sqrt(n (E5^2 + 0.01 E3^2)) on the sums of squares."""
    den = err5 + 0.01 * err3
    if den == 0.0:
        return 0.0
    if den == math.inf:
        return den  # taken literally, inf / inf would stop the run as NaN
    return h * err5 / math.sqrt(den)


def _march(name, with_drift, eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol):
    """Advance the 4-component y0 from eta0 to eta1, tracking the Dirac norm
    as n = k^2 N, which drifts by the same relative amount and needs no
    division, so the zero state passes unless `with_drift` (as the C twin,
    it is refused before the first step).

    Returns (endpoint state tuple, initial n0, max |n - n0| over the
    accepted steps, accepted step count), or raises RuntimeError whose
    message is the failure.
    """
    y = tuple(y0)
    if len(y) != 4:
        # CPython's message for the C twin's "(dddd)" argument unit.
        raise TypeError(f"{name}() argument 6 must be sequence of length 4, not {len(y)}")
    # p, d are psi and psi'.  At stage s, ds is the stage's psi' (the
    # derivative of psi) and fs the derivative of psi'; P holds the stage's
    # psi.  Stage 0 is (d, f0).
    p, d = complex(y[0], y[1]), complex(y[2], y[3])
    tanh = math.tanh
    kk, mm, v_amp = k_tilde * k_tilde, m_tilde * m_tilde, -(m_tilde * eps)
    th = tanh(eta0)
    a = 1.0 + eps * (1.0 + th)
    mu = m_tilde * a
    x, z = d.real + mu * p.imag, d.imag - mu * p.real
    n0 = kk * (p.real * p.real + p.imag * p.imag) + (x * x + z * z)
    if with_drift and n0 == 0.0:
        raise ValueError("initial Dirac norm vanishes")
    max_dev = 0.0
    W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
    f0 = -(W * p)
    eta = eta0
    h = min(_H_INIT, eta1 - eta0)
    accepted = 0
    attempts = 0
    while eta < eta1:
        attempts += 1
        if attempts > _MAX_STEPS:
            raise RuntimeError("step budget exhausted")
        if h < 1e-14 * max(1.0, abs(eta)):
            raise RuntimeError("step size underflow")
        last = eta + h >= eta1
        if last:
            h = eta1 - eta
        P = p + h * (_A1_0 * d)
        d1 = d + h * (_A1_0 * f0)
        th = tanh(eta + _C1 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f1 = -(W * P)
        P = p + h * (_A2_0 * d + _A2_1 * d1)
        d2 = d + h * (_A2_0 * f0 + _A2_1 * f1)
        th = tanh(eta + _C2 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f2 = -(W * P)
        P = p + h * (_A3_0 * d + _A3_2 * d2)
        d3 = d + h * (_A3_0 * f0 + _A3_2 * f2)
        th = tanh(eta + _C3 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f3 = -(W * P)
        P = p + h * (_A4_0 * d + _A4_2 * d2 + _A4_3 * d3)
        d4 = d + h * (_A4_0 * f0 + _A4_2 * f2 + _A4_3 * f3)
        th = tanh(eta + _C4 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f4 = -(W * P)
        P = p + h * (_A5_0 * d + _A5_3 * d3 + _A5_4 * d4)
        d5 = d + h * (_A5_0 * f0 + _A5_3 * f3 + _A5_4 * f4)
        th = tanh(eta + _C5 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f5 = -(W * P)
        P = p + h * (_A6_0 * d + _A6_3 * d3 + _A6_4 * d4 + _A6_5 * d5)
        d6 = d + h * (_A6_0 * f0 + _A6_3 * f3 + _A6_4 * f4 + _A6_5 * f5)
        th = tanh(eta + _C6 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f6 = -(W * P)
        P = p + h * (_A7_0 * d + _A7_3 * d3 + _A7_4 * d4 + _A7_5 * d5 + _A7_6 * d6)
        d7 = d + h * (_A7_0 * f0 + _A7_3 * f3 + _A7_4 * f4 + _A7_5 * f5 + _A7_6 * f6)
        th = tanh(eta + _C7 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f7 = -(W * P)
        P = p + h * (_A8_0 * d + _A8_3 * d3 + _A8_4 * d4 + _A8_5 * d5 + _A8_6 * d6 + _A8_7 * d7)
        d8 = d + h * (_A8_0 * f0 + _A8_3 * f3 + _A8_4 * f4 + _A8_5 * f5 + _A8_6 * f6 + _A8_7 * f7)
        th = tanh(eta + _C8 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f8 = -(W * P)
        P = p + h * (_A9_0 * d + _A9_3 * d3 + _A9_4 * d4 + _A9_5 * d5 + _A9_6 * d6 + _A9_7 * d7
                    + _A9_8 * d8)
        d9 = d + h * (_A9_0 * f0 + _A9_3 * f3 + _A9_4 * f4 + _A9_5 * f5 + _A9_6 * f6 + _A9_7 * f7
                     + _A9_8 * f8)
        th = tanh(eta + _C9 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f9 = -(W * P)
        P = p + h * (_A10_0 * d + _A10_3 * d3 + _A10_4 * d4 + _A10_5 * d5 + _A10_6 * d6
                    + _A10_7 * d7 + _A10_8 * d8 + _A10_9 * d9)
        d10 = d + h * (_A10_0 * f0 + _A10_3 * f3 + _A10_4 * f4 + _A10_5 * f5 + _A10_6 * f6
                      + _A10_7 * f7 + _A10_8 * f8 + _A10_9 * f9)
        th = tanh(eta + _C10 * h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f10 = -(W * P)
        P = p + h * (_A11_0 * d + _A11_3 * d3 + _A11_4 * d4 + _A11_5 * d5 + _A11_6 * d6
                    + _A11_7 * d7 + _A11_8 * d8 + _A11_9 * d9 + _A11_10 * d10)
        d11 = d + h * (_A11_0 * f0 + _A11_3 * f3 + _A11_4 * f4 + _A11_5 * f5 + _A11_6 * f6
                      + _A11_7 * f7 + _A11_8 * f8 + _A11_9 * f9 + _A11_10 * f10)
        th = tanh(eta + h)
        a = 1.0 + eps * (1.0 + th)
        W = complex(kk + mm * a * a, v_amp * (1.0 - th * th))
        f11 = -(W * P)
        sd = (_B0 * d + _B5 * d5 + _B6 * d6 + _B7 * d7 + _B8 * d8 + _B9 * d9 + _B10 * d10
              + _B11 * d11)
        sf = (_B0 * f0 + _B5 * f5 + _B6 * f6 + _B7 * f7 + _B8 * f8 + _B9 * f9 + _B10 * f10
              + _B11 * f11)
        pn, dn = p + h * sd, d + h * sf
        err5 = err3 = 0.0
        for old, new, x5, x3 in (
            (p, pn, _E0 * d + _E5 * d5 + _E6 * d6 + _E7 * d7 + _E8 * d8 + _E9 * d9
             + _E10 * d10 + _E11 * d11, sd - _BHH0 * d - _BHH8 * d8 - _BHH11 * d11),
            (d, dn, _E0 * f0 + _E5 * f5 + _E6 * f6 + _E7 * f7 + _E8 * f8 + _E9 * f9
             + _E10 * f10 + _E11 * f11, sf - _BHH0 * f0 - _BHH8 * f8 - _BHH11 * f11),
        ):
            # Components in state order: the real part, then the imaginary.
            ay, an = abs(old.real), abs(new.real)
            sc = abs_tol + rel_tol * (an if an > ay else ay)
            t5, t3 = x5.real / sc, x3.real / sc
            ay, an = abs(old.imag), abs(new.imag)
            sc = abs_tol + rel_tol * (an if an > ay else ay)
            u5, u3 = x5.imag / sc, x3.imag / sc
            err5 = err5 + t5 * t5 + u5 * u5
            err3 = err3 + t3 * t3 + u3 * u3
        err = _error(h, err5 / 4, err3 / 4)
        if err <= 1.0:
            # First-same-as-last: the new stage 0 is taken at eta + h, like
            # stage 11, so W and a carry over, and with a the norm's M.
            f0 = -(W * pn)
            eta = eta1 if last else eta + h
            p, d = pn, dn
            accepted += 1
            mu = m_tilde * a
            x, z = d.real + mu * p.imag, d.imag - mu * p.real
            dev = abs(kk * (p.real * p.real + p.imag * p.imag) + (x * x + z * z) - n0)
            if dev > max_dev:
                max_dev = dev
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        elif math.isnan(err):
            # No step size makes a NaN estimate pass: stop, not spin to the budget.
            raise RuntimeError("non-finite error estimate")
        else:
            fac = max(0.2, min(1.0, 0.9 * err ** -0.125))
        h = min(h * fac, _H_MAX)
    return (p.real, p.imag, d.real, d.imag), n0, max_dev, accepted


def integrate_endpoint(eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol, /):
    """Integrate one solution; y0 has 4 components.

    Returns (endpoint state tuple, accepted step count); raises RuntimeError
    if the integration fails.
    """
    y, _, _, steps = _march(
        "integrate_endpoint", False, eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol)
    return y, steps


def integrate_pair_drift(eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol, /):
    """Integrate one solution, tracking its Dirac norm at every accepted
    step.  y0 has 4 components.

    Returns (endpoint state tuple, max relative norm drift, accepted step
    count); raises RuntimeError if the integration fails.
    """
    y, n0, dev, steps = _march(
        "integrate_pair_drift", True, eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol)
    # Rounding a division by a positive n0 is monotone, so max|n - n0| / n0
    # is the largest step drift to the bit.  An infinite or NaN n0 makes
    # every step's drift NaN, and a NaN drift never raises the maximum.
    return y, dev / n0 if n0 < math.inf else 0.0, steps
