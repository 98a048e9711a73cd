/* Compiled fixed-step Magnus propagator for the mode equation.
 *
 * Twin of cosmo_qfi._kernel.pure: the same 4th-order Magnus step, messages
 * and positional-only arguments, and the same floating-point operations in
 * the same order, so the two return the same bits.  Both advance one spinor
 * of the Dirac system chi' = i H chi in a given number of equal steps, and
 * integrate_pair_drift gauges it by its conserved Dirac norm; it keeps the
 * name of the stacked pair and Wronskian it once tracked, because perfbench/
 * traces it by that name.  CPython's argument parser reads the state.
 *
 * The package never loads this module: it is the reference that the parity
 * tests (the `compiled` fixture of tests/conftest.py) and the benchmark's
 * kernel pass (perfbench/layers.py) compile into a directory of their own
 * and hold to the pure twin's bits.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Gauss nodes as fractions of the step, and sqrt(3)/6; see pure.py. */
static const double G1 = 0.21132486540518711775, G2 = 0.78867513459481288225,
                    R3_6 = 0.28867513459481288225;

/* Advance the spinor y = (re u, im u, re v, im v) in place from eta0 to eta1
 * in n equal Magnus steps; *max_dev is the largest |n - n0| over the steps,
 * with n = |u|^2 + |v|^2 and n0 its initial value. */
static void advance(double eps, double m, double k, double eta0, double eta1, long n,
                    double *y, double n0, double *max_dev)
{
    double h = (eta1 - eta0) / n;
    double g1 = G1 * h, g2 = G2 * h;
    /* M1 + M2 = m (2 + eps (2 + t1 + t2)) and M2 - M1 = m eps (t2 - t1). */
    double am = 0.5 * h * m, b = h * k, bb = b * b, cm = -(R3_6 * h * h * k * m * eps);
    double ur = y[0], ui = y[1], vr = y[2], vi = y[3];
    long i;

    *max_dev = 0.0;
    for (i = 0; i < n; i++) {
        double eta = eta0 + i * h;
        double t1 = tanh(eta + g1), t2 = tanh(eta + g2);
        double a = am * (2.0 + eps * (2.0 + (t1 + t2)));
        double c = cm * (t2 - t1);
        double t = sqrt(a * a + bb + c * c);
        double s = sin(t) / t;
        double co = cos(t), al = s * a, be = s * b, ga = s * c;
        double nur = (co * ur - al * ui) + (ga * vr - be * vi);
        double nui = (co * ui + al * ur) + (ga * vi + be * vr);
        double nvr = (-ga * ur - be * ui) + (co * vr + al * vi);
        double nvi = (-ga * ui + be * ur) + (co * vi - al * vr);
        double dev;
        ur = nur;
        ui = nui;
        vr = nvr;
        vi = nvi;
        dev = fabs((ur * ur + ui * ui) + (vr * vr + vi * vi) - n0);
        if (dev > *max_dev)
            *max_dev = dev;
    }
    y[0] = ur;
    y[1] = ui;
    y[2] = vr;
    y[3] = vi;
}

/* Shared body of both entry points: parse, integrate, return (state tuple,
 * [max norm drift,] step count).  Its "(dddd)" unit reads any 4-item
 * sequence of numbers into y and raises TypeError otherwise. */
static PyObject *integrate(PyObject *args, const char *fmt, int with_drift)
{
    double eps, m, k, eta0, eta1, y[4], n0, max_dev;
    long n;

    if (!PyArg_ParseTuple(args, fmt, &eps, &m, &k, &eta0, &eta1, &y[0], &y[1], &y[2], &y[3],
                          &n))
        return NULL;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "step count must be at least 1");
        return NULL;
    }
    n0 = (y[0] * y[0] + y[1] * y[1]) + (y[2] * y[2] + y[3] * y[3]);
    if (with_drift && n0 == 0.0) {
        PyErr_SetString(PyExc_ValueError, "initial Dirac norm vanishes");
        return NULL;
    }
    advance(eps, m, k, eta0, eta1, n, y, n0, &max_dev);
    if (!with_drift)
        return Py_BuildValue("(dddd)l", y[0], y[1], y[2], y[3], n);
    /* The largest step drift to the bit; see pure.integrate_pair_drift. */
    return Py_BuildValue("(dddd)dl", y[0], y[1], y[2], y[3], n0 < INFINITY ? max_dev / n0 : 0.0,
                         n);
}

static PyObject *integrate_endpoint(PyObject *self, PyObject *args)
{
    return integrate(args, "ddddd(dddd)l:integrate_endpoint", 0);
}

static PyObject *integrate_pair_drift(PyObject *self, PyObject *args)
{
    return integrate(args, "ddddd(dddd)l:integrate_pair_drift", 1);
}

#define SIGNATURE "(eps, m_tilde, k_tilde, eta0, eta1, y0, steps, /)\n--\n\n"

static PyMethodDef methods[] = {
    {"integrate_endpoint", integrate_endpoint, METH_VARARGS,
     "integrate_endpoint" SIGNATURE
     "Advance one spinor; y0 has 4 components.\n\n"
     "Returns (endpoint state tuple, step count)."},
    {"integrate_pair_drift", integrate_pair_drift, METH_VARARGS,
     "integrate_pair_drift" SIGNATURE
     "Advance one spinor, tracking its Dirac norm at every step.  y0 has 4\n"
     "components, not all zero.\n\n"
     "Returns (endpoint state tuple, max relative norm drift, step count)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "cosmo_qfi._kernel._mode_rk",
    "Compiled fixed-step Magnus propagator for the mode equation; twin of\n"
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
