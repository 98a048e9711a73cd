/* Compiled DOP853 stepper for the mode equation.
 *
 * Twin of cosmo_qfi._kernel.pure: same tableau, step controller, failure
 * messages and positional-only arguments, and the same floating-point
 * operations in the same order, so the two backends are interchangeable.
 * Both advance one solution, and integrate_pair_drift gauges it by its
 * conserved Dirac norm; it keeps the name of the stacked pair and Wronskian
 * it once tracked, because perfbench/ traces it by that name.  CPython's
 * argument parser reads the state, so no Python object is held past the
 * parse, and the stepping loop runs with the GIL released: library callers
 * may run integrations concurrently from threads.
 *
 * Build it next to the package sources (from the repository root):
 *
 *   cc -O3 -shared -fPIC $(python3-config --includes) \
 *       src/cosmo_qfi/_kernel/_mode_rk.c \
 *       -o src/cosmo_qfi/_kernel/_mode_rk$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* DOP853 tableau, as in Hairer's dop853.f (the decimal literals of SciPy's
 * dop853_coefficients); see pure.py for the naming. */
static const double C1 = 0.526001519587677318785587544488e-01,
                    C2 = 0.789002279381515978178381316732e-01,
                    C3 = 0.118350341907227396726757197510, C4 = 0.281649658092772603273242802490,
                    C5 = 0.333333333333333333333333333333, C6 = 0.25,
                    C7 = 0.307692307692307692307692307692, C8 = 0.651282051282051282051282051282,
                    C9 = 0.6, C10 = 0.857142857142857142857142857142;
static const double A1_0 = 5.26001519587677318785587544488e-2;
static const double A2_0 = 1.97250569845378994544595329183e-2,
                    A2_1 = 5.91751709536136983633785987549e-2;
static const double A3_0 = 2.95875854768068491816892993775e-2,
                    A3_2 = 8.87627564304205475450678981324e-2;
static const double A4_0 = 2.41365134159266685502369798665e-1,
                    A4_2 = -8.84549479328286085344864962717e-1,
                    A4_3 = 9.24834003261792003115737966543e-1;
static const double A5_0 = 3.7037037037037037037037037037e-2,
                    A5_3 = 1.70828608729473871279604482173e-1,
                    A5_4 = 1.25467687566822425016691814123e-1;
static const double A6_0 = 3.7109375e-2, A6_3 = 1.70252211019544039314978060272e-1,
                    A6_4 = 6.02165389804559606850219397283e-2, A6_5 = -1.7578125e-2;
static const double A7_0 = 3.70920001185047927108779319836e-2,
                    A7_3 = 1.70383925712239993810214054705e-1,
                    A7_4 = 1.07262030446373284651809199168e-1,
                    A7_5 = -1.53194377486244017527936158236e-2,
                    A7_6 = 8.27378916381402288758473766002e-3;
static const double A8_0 = 6.24110958716075717114429577812e-1,
                    A8_3 = -3.36089262944694129406857109825,
                    A8_4 = -8.68219346841726006818189891453e-1,
                    A8_5 = 2.75920996994467083049415600797e1,
                    A8_6 = 2.01540675504778934086186788979e1,
                    A8_7 = -4.34898841810699588477366255144e1;
static const double A9_0 = 4.77662536438264365890433908527e-1,
                    A9_3 = -2.48811461997166764192642586468,
                    A9_4 = -5.90290826836842996371446475743e-1,
                    A9_5 = 2.12300514481811942347288949897e1,
                    A9_6 = 1.52792336328824235832596922938e1,
                    A9_7 = -3.32882109689848629194453265587e1,
                    A9_8 = -2.03312017085086261358222928593e-2;
static const double A10_0 = -9.3714243008598732571704021658e-1,
                    A10_3 = 5.18637242884406370830023853209,
                    A10_4 = 1.09143734899672957818500254654,
                    A10_5 = -8.14978701074692612513997267357,
                    A10_6 = -1.85200656599969598641566180701e1,
                    A10_7 = 2.27394870993505042818970056734e1,
                    A10_8 = 2.49360555267965238987089396762,
                    A10_9 = -3.0467644718982195003823669022;
static const double A11_0 = 2.27331014751653820792359768449,
                    A11_3 = -1.05344954667372501984066689879e1,
                    A11_4 = -2.00087205822486249909675718444,
                    A11_5 = -1.79589318631187989172765950534e1,
                    A11_6 = 2.79488845294199600508499808837e1,
                    A11_7 = -2.85899827713502369474065508674,
                    A11_8 = -8.87285693353062954433549289258,
                    A11_9 = 1.23605671757943030647266201528e1,
                    A11_10 = 6.43392746015763530355970484046e-1;
static const double B0 = 5.42937341165687622380535766363e-2, B5 = 4.45031289275240888144113950566,
                    B6 = 1.89151789931450038304281599044, B7 = -5.8012039600105847814672114227,
                    B8 = 3.1116436695781989440891606237e-1,
                    B9 = -1.52160949662516078556178806805e-1,
                    B10 = 2.01365400804030348374776537501e-1,
                    B11 = 4.47106157277725905176885569043e-2;
static const double E0 = 0.1312004499419488073250102996e-1,
                    E5 = -0.1225156446376204440720569753e+1, E6 = -0.4957589496572501915214079952,
                    E7 = 0.1664377182454986536961530415e+1, E8 = -0.3503288487499736816886487290,
                    E9 = 0.3341791187130174790297318841, E10 = 0.8192320648511571246570742613e-1,
                    E11 = -0.2235530786388629525884427845e-1;
static const double BHH0 = 0.244094488188976377952755905512,
                    BHH8 = 0.733846688281611857341361741547,
                    BHH11 = 0.220588235294117647058823529412e-1;

static const double H_INIT = 1e-3;
static const double H_MAX = 1.0; /* never step across the expansion epoch */
static const long MAX_STEPS = 5000000;

/* The equation's coefficients; the state is one solution (re psi, im psi,
 * re psi', im psi'). */
typedef struct {
    double eps, m, k;
} Coeffs;

/* Python's max(a, b): a unless b is larger, NaN included. */
static double pymax(double a, double b) { return b > a ? b : a; }

static double clamp(double x, double lo, double hi)
{
    return x > hi ? hi : (x < lo ? lo : x);
}

/* inline: the stages call it twelve times per step. */
static inline void deriv(double eta, const double *y, double *out, const Coeffs *c)
{
    double th = tanh(eta);
    double a = 1.0 + c->eps * (1.0 + th);
    double w = c->k * c->k + c->m * c->m * a * a;
    double v = -(c->m * c->eps) * (1.0 - th * th);
    out[0] = y[2];
    out[1] = y[3];
    out[2] = -(w * y[0] - v * y[1]);
    out[3] = -(w * y[1] + v * y[0]);
}

/* k^2 times the Dirac norm |psi|^2 + |psi' - i M psi|^2 / k^2 at eta, with
 * M = m a(eta): the same relative drift, and no division (see pure.py). */
static double dirac_norm(double eta, const double *y, const Coeffs *c)
{
    double mu = c->m * (1.0 + c->eps * (1.0 + tanh(eta)));
    double x = y[2] + mu * y[1], z = y[3] - mu * y[0];
    return c->k * c->k * (y[0] * y[0] + y[1] * y[1]) + (x * x + z * z);
}

/* Hairer's combined error from the mean squares of the scaled 5th- and
 * 3rd-order estimates, as pure._error. */
static double combined_error(double h, double err5, double err3)
{
    double den = err5 + 0.01 * err3;
    if (den == 0.0)
        return 0.0;
    if (den == INFINITY)
        return den; /* taken literally, inf / inf would stop the run as NaN */
    return h * err5 / sqrt(den);
}

/* Stage st of advance, on its locals: yt = y + h * (sum), the sum over the
 * stage's nonzero a_sj summed left to right, as pure._march sums it, then
 * k[st] = f(eta + frac h, yt). */
#define STAGE(st, frac, sum)                   \
    do {                                       \
        for (i = 0; i < 4; i++)                \
            yt[i] = y[i] + h * (sum);          \
        deriv(eta + (frac) * h, yt, k[st], c); \
    } while (0)

/* Advance the 4-component y in place from eta0 to eta1; *max_dev is the
 * largest |n - n0| over the accepted steps, n the dirac_norm and n0 its
 * value at eta0.  Returns NULL, or the failure's message; it touches no
 * Python object, so it runs without the GIL. */
static const char *advance(const Coeffs *c, double eta0, double eta1, double *y, double rtol,
                           double atol, double n0, double *max_dev, long *accepted)
{
    double k[12][4], yt[4], s[4], ynew[4];
    double eta = eta0, h = eta1 - eta0;
    long attempts = 0;
    int i;

    if (h > H_INIT)
        h = H_INIT;
    *accepted = 0;
    *max_dev = 0.0;
    deriv(eta, y, k[0], c);
    while (eta < eta1) {
        double err5 = 0.0, err3 = 0.0, err, fac;
        int last;
        if (++attempts > MAX_STEPS)
            return "step budget exhausted";
        if (h < 1e-14 * pymax(1.0, fabs(eta)))
            return "step size underflow";
        last = eta + h >= eta1;
        if (last)
            h = eta1 - eta;
        STAGE(1, C1, A1_0 * k[0][i]);
        STAGE(2, C2, A2_0 * k[0][i] + A2_1 * k[1][i]);
        STAGE(3, C3, A3_0 * k[0][i] + A3_2 * k[2][i]);
        STAGE(4, C4, A4_0 * k[0][i] + A4_2 * k[2][i] + A4_3 * k[3][i]);
        STAGE(5, C5, A5_0 * k[0][i] + A5_3 * k[3][i] + A5_4 * k[4][i]);
        STAGE(6, C6, A6_0 * k[0][i] + A6_3 * k[3][i] + A6_4 * k[4][i] + A6_5 * k[5][i]);
        STAGE(7, C7, A7_0 * k[0][i] + A7_3 * k[3][i] + A7_4 * k[4][i] + A7_5 * k[5][i]
                     + A7_6 * k[6][i]);
        STAGE(8, C8, A8_0 * k[0][i] + A8_3 * k[3][i] + A8_4 * k[4][i] + A8_5 * k[5][i]
                     + A8_6 * k[6][i] + A8_7 * k[7][i]);
        STAGE(9, C9, A9_0 * k[0][i] + A9_3 * k[3][i] + A9_4 * k[4][i] + A9_5 * k[5][i]
                     + A9_6 * k[6][i] + A9_7 * k[7][i] + A9_8 * k[8][i]);
        STAGE(10, C10, A10_0 * k[0][i] + A10_3 * k[3][i] + A10_4 * k[4][i] + A10_5 * k[5][i]
                       + A10_6 * k[6][i] + A10_7 * k[7][i] + A10_8 * k[8][i] + A10_9 * k[9][i]);
        STAGE(11, 1.0, A11_0 * k[0][i] + A11_3 * k[3][i] + A11_4 * k[4][i] + A11_5 * k[5][i]
                       + A11_6 * k[6][i] + A11_7 * k[7][i] + A11_8 * k[8][i] + A11_9 * k[9][i]
                       + A11_10 * k[10][i]);
        for (i = 0; i < 4; i++) {
            s[i] = B0 * k[0][i] + B5 * k[5][i] + B6 * k[6][i] + B7 * k[7][i] + B8 * k[8][i]
                   + B9 * k[9][i] + B10 * k[10][i] + B11 * k[11][i];
            ynew[i] = y[i] + h * s[i];
        }
        for (i = 0; i < 4; i++) {
            double sc = atol + rtol * pymax(fabs(y[i]), fabs(ynew[i]));
            double q5 = (E0 * k[0][i] + E5 * k[5][i] + E6 * k[6][i] + E7 * k[7][i]
                         + E8 * k[8][i] + E9 * k[9][i] + E10 * k[10][i] + E11 * k[11][i]) / sc;
            double q3 = (s[i] - BHH0 * k[0][i] - BHH8 * k[8][i] - BHH11 * k[11][i]) / sc;
            err5 += q5 * q5;
            err3 += q3 * q3;
        }
        err = combined_error(h, err5 / 4, err3 / 4);
        if (err <= 1.0) {
            double dev;
            deriv(eta + h, ynew, k[0], c); /* first-same-as-last */
            dev = fabs(dirac_norm(eta + h, ynew, c) - n0);
            if (dev > *max_dev)
                *max_dev = dev;
            eta = last ? eta1 : eta + h;
            for (i = 0; i < 4; i++)
                y[i] = ynew[i];
            ++*accepted;
            fac = err == 0.0 ? 5.0 : clamp(0.9 * pow(err, -0.125), 0.2, 5.0);
        } else if (isnan(err)) {
            /* No step size makes a NaN estimate pass; stop before h turns NaN. */
            return "non-finite error estimate";
        } else {
            fac = clamp(0.9 * pow(err, -0.125), 0.2, 1.0);
        }
        h = h * fac;
        if (h > H_MAX)
            h = H_MAX;
    }
    return NULL;
}

/* Shared body of both entry points: parse, integrate, return (state tuple,
 * [max norm drift,] accepted step count), or raise RuntimeError with the
 * failure's message.  Its "(dddd)" unit reads any 4-item sequence of numbers
 * into y and raises TypeError otherwise. */
static PyObject *integrate(PyObject *args, const char *fmt, int with_drift)
{
    Coeffs c;
    double eta0, eta1, rtol, atol, y[4], n0, max_dev;
    long accepted;
    const char *failure;

    if (!PyArg_ParseTuple(args, fmt, &c.eps, &c.m, &c.k, &eta0, &eta1, &y[0], &y[1], &y[2],
                          &y[3], &rtol, &atol))
        return NULL;
    n0 = dirac_norm(eta0, y, &c);
    if (with_drift && n0 == 0.0) {
        PyErr_SetString(PyExc_ValueError, "initial Dirac norm vanishes");
        return NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    failure = advance(&c, eta0, eta1, y, rtol, atol, n0, &max_dev, &accepted);
    Py_END_ALLOW_THREADS
    if (failure != NULL) {
        PyErr_SetString(PyExc_RuntimeError, failure);
        return NULL;
    }
    if (!with_drift)
        return Py_BuildValue("(dddd)l", y[0], y[1], y[2], y[3], accepted);
    /* The largest step drift to the bit; see pure.integrate_pair_drift. */
    return Py_BuildValue("(dddd)dl", y[0], y[1], y[2], y[3],
                         n0 < INFINITY ? max_dev / n0 : 0.0, accepted);
}

static PyObject *integrate_endpoint(PyObject *self, PyObject *args)
{
    return integrate(args, "ddddd(dddd)dd:integrate_endpoint", 0);
}

static PyObject *integrate_pair_drift(PyObject *self, PyObject *args)
{
    return integrate(args, "ddddd(dddd)dd:integrate_pair_drift", 1);
}

#define SIGNATURE "(eps, m_tilde, k_tilde, eta0, eta1, y0, rel_tol, abs_tol, /)\n--\n\n"

static PyMethodDef methods[] = {
    {"integrate_endpoint", integrate_endpoint, METH_VARARGS,
     "integrate_endpoint" SIGNATURE
     "Integrate one solution; y0 has 4 components.\n\n"
     "Returns (endpoint state tuple, accepted step count); raises\n"
     "RuntimeError if the integration fails."},
    {"integrate_pair_drift", integrate_pair_drift, METH_VARARGS,
     "integrate_pair_drift" SIGNATURE
     "Integrate one solution, tracking its Dirac norm at every accepted\n"
     "step.  y0 has 4 components.\n\n"
     "Returns (endpoint state tuple, max relative norm drift, accepted step\n"
     "count); raises RuntimeError if the integration fails."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "cosmo_qfi._kernel._mode_rk",
    "Compiled DOP853 stepper for the mode equation; twin of\n"
    "cosmo_qfi._kernel.pure.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__mode_rk(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
