/* Compiled Dormand-Prince 5(4) stepper for the mode equation.
 *
 * Twin of cosmo_qfi._kernel.pure: same tableau, same step controller, same
 * status codes and the same floating-point operations in the same order, so
 * the two backends are interchangeable.  The stepping loop holds no Python
 * object and runs with the GIL released, which lets verification sweeps run
 * the oracle concurrently from threads.
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

enum { ST_OK = 0, ST_MAX_STEPS = 1, ST_UNDERFLOW = 2, ST_NONFINITE = 3 };

/* Dormand-Prince 5(4) tableau. */
static const double C2 = 0.2, C3 = 0.3, C4 = 0.8, C5 = 8.0 / 9.0;
static const double A21 = 0.2;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0,
                    A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0,
                    A63 = 46732.0 / 5247.0, A64 = 49.0 / 176.0,
                    A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0, B4 = 125.0 / 192.0,
                    B5 = -2187.0 / 6784.0, B6 = 11.0 / 84.0;
static const double E1 = 71.0 / 57600.0, E3 = -71.0 / 16695.0,
                    E4 = 71.0 / 1920.0, E5 = -17253.0 / 339200.0,
                    E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;

static const double H_INIT = 1e-3;
static const double H_MAX = 1.0; /* never step across the expansion epoch */
static const long MAX_STEPS = 5000000;

/* The equation's coefficients; the state holds n/4 solutions. */
typedef struct {
    double eps, m, k, sign;
} Coeffs;

/* Python's max(a, b): a unless b is larger, NaN included. */
static double pymax(double a, double b) { return b > a ? b : a; }

static double clamp(double x, double lo, double hi)
{
    return x > hi ? hi : (x < lo ? lo : x);
}

/* inline: without it GCC keeps seven calls per step, about 30 % slower. */
static inline void deriv(double eta, const double *y, double *out, int n, const Coeffs *c)
{
    double th = tanh(eta);
    double a = 1.0 + c->eps * (1.0 + th);
    double w = c->k * c->k + c->m * c->m * a * a;
    double v = c->sign * c->m * c->eps * (1.0 - th * th);
    for (int j = 0; j < n; j += 4) {
        out[j] = y[j + 2];
        out[j + 1] = y[j + 3];
        out[j + 2] = -(w * y[j] - v * y[j + 1]);
        out[j + 3] = -(w * y[j + 1] + v * y[j]);
    }
}

/* W = psi1 dpsi2 - psi2 dpsi1 for the stacked pair. */
static void wronskian(const double *y, double *wr, double *wi)
{
    *wr = (y[0] * y[6] - y[1] * y[7]) - (y[4] * y[2] - y[5] * y[3]);
    *wi = (y[0] * y[7] + y[1] * y[6]) - (y[4] * y[3] + y[5] * y[2]);
}

/* Advance y (n = 4 or 8 components) in place from eta0 to eta1.  With n = 8
 * the pair's Wronskian is tracked at every accepted step. */
static int advance(const Coeffs *c, double eta0, double eta1, double *y, int n,
                   double rtol, double atol, double *max_drift, long *accepted)
{
    double k1[8], k2[8], k3[8], k4[8], k5[8], k6[8], k7[8], yt[8], ynew[8];
    double eta = eta0, h = eta1 - eta0, w0r = 0.0, w0i = 0.0, w0_abs = 1.0;
    long attempts = 0;
    int i;

    if (h > H_INIT)
        h = H_INIT;
    *accepted = 0;
    *max_drift = 0.0;
    if (n == 8) {
        wronskian(y, &w0r, &w0i);
        w0_abs = hypot(w0r, w0i);
    }
    deriv(eta, y, k1, n, c);
    while (eta < eta1) {
        double err_sq = 0.0, err, fac;
        int last;
        if (++attempts > MAX_STEPS)
            return ST_MAX_STEPS;
        if (h < 1e-14 * pymax(1.0, fabs(eta)))
            return ST_UNDERFLOW;
        last = eta + h >= eta1;
        if (last)
            h = eta1 - eta;
        for (i = 0; i < n; i++)
            yt[i] = y[i] + h * A21 * k1[i];
        deriv(eta + C2 * h, yt, k2, n, c);
        for (i = 0; i < n; i++)
            yt[i] = y[i] + h * (A31 * k1[i] + A32 * k2[i]);
        deriv(eta + C3 * h, yt, k3, n, c);
        for (i = 0; i < n; i++)
            yt[i] = y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i]);
        deriv(eta + C4 * h, yt, k4, n, c);
        for (i = 0; i < n; i++)
            yt[i] = y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i]);
        deriv(eta + C5 * h, yt, k5, n, c);
        for (i = 0; i < n; i++)
            yt[i] = y[i] + h * (A61 * k1[i] + A62 * k2[i] + A63 * k3[i]
                                + A64 * k4[i] + A65 * k5[i]);
        deriv(eta + h, yt, k6, n, c);
        for (i = 0; i < n; i++)
            ynew[i] = y[i] + h * (B1 * k1[i] + B3 * k3[i] + B4 * k4[i]
                                  + B5 * k5[i] + B6 * k6[i]);
        deriv(eta + h, ynew, k7, n, c);
        for (i = 0; i < n; i++) {
            double e = h * (E1 * k1[i] + E3 * k3[i] + E4 * k4[i]
                            + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]);
            double sc = atol + rtol * pymax(fabs(y[i]), fabs(ynew[i]));
            err_sq += (e / sc) * (e / sc);
        }
        err = sqrt(err_sq / n);
        if (err <= 1.0) {
            eta = last ? eta1 : eta + h;
            for (i = 0; i < n; i++) {
                y[i] = ynew[i];
                k1[i] = k7[i]; /* first-same-as-last */
            }
            ++*accepted;
            if (n == 8) {
                double wr, wi, drift;
                wronskian(y, &wr, &wi);
                drift = hypot(wr - w0r, wi - w0i) / w0_abs;
                if (drift > *max_drift)
                    *max_drift = drift;
            }
            fac = err == 0.0 ? 5.0 : clamp(0.9 * pow(err, -0.2), 0.2, 5.0);
        } else if (isnan(err)) {
            /* No step size makes a NaN estimate pass; stop before h turns NaN. */
            return ST_NONFINITE;
        } else {
            fac = clamp(0.9 * pow(err, -0.2), 0.2, 1.0);
        }
        h = h * fac;
        if (h > H_MAX)
            h = H_MAX;
    }
    return ST_OK;
}

static char *kwlist[] = {"eps", "m_tilde", "k_tilde", "sign", "eta0", "eta1",
                         "y0", "rel_tol", "abs_tol", NULL};

/* Shared body of both entry points: parse, integrate n components, return
 * (state tuple, [max drift,] accepted step count, status). */
static PyObject *integrate(PyObject *args, PyObject *kw, int n, const char *fmt,
                           const char *length_error)
{
    Coeffs c;
    double eta0, eta1, rtol, atol, y[8], max_drift, wr, wi;
    long accepted;
    int status, i;
    PyObject *y0, *seq;

    if (!PyArg_ParseTupleAndKeywords(args, kw, fmt, kwlist, &c.eps, &c.m, &c.k,
                                     &c.sign, &eta0, &eta1, &y0, &rtol, &atol))
        return NULL;
    /* A tuple copy: an item's __float__ cannot resize it under the loop. */
    seq = PySequence_Tuple(y0);
    if (seq == NULL)
        return NULL;
    if (PyTuple_GET_SIZE(seq) != n) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, length_error);
        return NULL;
    }
    for (i = 0; i < n; i++) {
        y[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(seq, i));
        if (y[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
    }
    Py_DECREF(seq);
    if (n == 8) {
        wronskian(y, &wr, &wi);
        if (hypot(wr, wi) == 0.0) {
            PyErr_SetString(PyExc_ValueError,
                            "initial Wronskian vanishes; solutions not independent");
            return NULL;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    status = advance(&c, eta0, eta1, y, n, rtol, atol, &max_drift, &accepted);
    Py_END_ALLOW_THREADS
    if (n == 4)
        return Py_BuildValue("(dddd)li", y[0], y[1], y[2], y[3], accepted, status);
    return Py_BuildValue("(dddddddd)dli", y[0], y[1], y[2], y[3], y[4], y[5],
                         y[6], y[7], max_drift, accepted, status);
}

static PyObject *integrate_endpoint(PyObject *self, PyObject *args, PyObject *kw)
{
    return integrate(args, kw, 4, "ddddddOdd:integrate_endpoint",
                     "integrate_endpoint expects a 4-component state");
}

static PyObject *integrate_pair_drift(PyObject *self, PyObject *args, PyObject *kw)
{
    return integrate(args, kw, 8, "ddddddOdd:integrate_pair_drift",
                     "integrate_pair_drift expects an 8-component state");
}

#define SIGNATURE "(eps, m_tilde, k_tilde, sign, eta0, eta1, y0, rel_tol, abs_tol)\n--\n\n"

static PyMethodDef methods[] = {
    {"integrate_endpoint", (PyCFunction)(void (*)(void))integrate_endpoint,
     METH_VARARGS | METH_KEYWORDS,
     "integrate_endpoint" SIGNATURE
     "Integrate one solution; y0 has 4 components.\n\n"
     "Returns (endpoint state tuple, accepted step count, status)."},
    {"integrate_pair_drift", (PyCFunction)(void (*)(void))integrate_pair_drift,
     METH_VARARGS | METH_KEYWORDS,
     "integrate_pair_drift" SIGNATURE
     "Integrate two stacked solutions, tracking the Wronskian at every\n"
     "accepted step.  y0 has 8 components.\n\n"
     "Returns (endpoint state tuple, max relative Wronskian drift,\n"
     "accepted step count, status)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "cosmo_qfi._kernel._mode_rk",
    "Compiled Dormand-Prince 5(4) stepper for the mode equation; twin of\n"
    "cosmo_qfi._kernel.pure.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__mode_rk(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0
        || PyModule_AddIntConstant(mod, "STATUS_OK", ST_OK) < 0
        || PyModule_AddIntConstant(mod, "STATUS_MAX_STEPS", ST_MAX_STEPS) < 0
        || PyModule_AddIntConstant(mod, "STATUS_UNDERFLOW", ST_UNDERFLOW) < 0
        || PyModule_AddIntConstant(mod, "STATUS_NONFINITE", ST_NONFINITE) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
