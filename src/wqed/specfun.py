"""Sine, cosine, and exponential integrals for the field kernels.

The closed-form photon fields are combinations of the principal-branch
exponential integral E1 on and just off the imaginary axis: the steady forms
read their sine and cosine integrals whole, as E1(iw) = -Ci(w) + i si(w).
The decaying pieces only ever need the product e^z E1(z), whose factors
separately overflow and underflow once Re z reaches a few hundred (here it
can reach a few thousand), so that scaled product is computed directly and
is the workhorse of this module.

Two evaluation branches are used: the ascending power series for |z| <= 6
and Re z <= 0.5, which loses roughly e^(|z| + Re z) * eps to cancellation,
and a continued fraction everywhere else.  The series is summed by Horner
in -z over 39 terms, the count its truncation bound needs at |z| = 6, for
every argument alike.  The continued fraction computes the scaled product
without any exponential, by backward recurrence from a start depth fitted
by |z| band to the depth its truncation bound needs near the imaginary
axis, where the field kernels take their arguments.  All arguments of a
call run in one backward sweep ordered by start depth, each through its
own steps, in real arithmetic: a step updates the real and imaginary
parts of the recurrence through u = (j+1)^2/|t|^2, so it takes one real
division and no complex one, and every value still depends on its own
argument only.  An argument whose bound is not met goes round again at
twice the depth, and past a depth limit (reached only near the negative
real axis) it raises RuntimeError.  One private dispatcher picks the branch
for E1 and for e^z E1 alike, from one |z| that also serves the checks.

The sine and cosine integrals have no algorithm of their own: they are
read from E1(ix) = -Ci(x) + i si(x), with si(x) = Si(x) - pi/2, through
that dispatcher, so the imaginary axis up to x = 6 takes the series and
beyond it the continued fraction.  All functions accept scalars or numpy
arrays.
"""

from __future__ import annotations

import numpy as np

# Euler-Mascheroni constant to 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

HALF_PI = np.pi / 2.0

# Series branch of E1: |z| <= _SERIES_RADIUS and Re z <= _SERIES_MAX_REAL.
# Its relative rounding error is about 5e-14 at the corner |z| = 6,
# Re z = 0.5, but 7e-12 at z = 6.
_SERIES_RADIUS = 6.0
_SERIES_MAX_REAL = 0.5
# Horner coefficients 1/(k k!), k = _SERIES_TERMS down to 1.  39 terms put
# the first term left out, r^40/(40 * 40!), below 1e-18 at r = 6; one
# count for every argument keeps each value independent of its batch.
_SERIES_TERMS = 39
_SERIES_COEFS = (1.0 / (np.arange(1, _SERIES_TERMS + 1)
                        * np.cumprod(np.arange(1.0, _SERIES_TERMS + 1))))[::-1]
_SERIES_COEFS.setflags(write=False)
# Start depth of the continued fraction: _CF_DEPTHS[k] for |z| below
# _CF_BANDS[k], the last depth beyond the last band.  Each is the depth
# at which the bound falls below _CF_EPS everywhere in its band with
# |arg z| <= pi/2 + 0.1 (the field kernels' rays), plus at most one;
# arguments nearer the cut go round again at twice the depth.
_CF_BANDS = (8.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 100.0, 150.0, 300.0,
             1000.0)
_CF_DEPTHS = np.array([36, 28, 22, 16, 12, 10, 8, 6, 5, 4, 3, 2])
_CF_DEPTHS.setflags(write=False)
# The band of |z| by whole |z| up to the last edge: the edges are whole
# numbers, so floor(|z|) lies in the band of |z| itself, and one table
# read replaces a binary search.
_CF_BAND_OF = np.searchsorted(_CF_BANDS, np.arange(_CF_BANDS[-1] + 1),
                              side="right").astype(np.uint8)
_CF_BAND_OF.setflags(write=False)
_CF_MAX_ITER = 5000
# Largest truncation bound accepted without evaluating deeper.
_CF_EPS = 1e-16


def _horner_sum(z):
    """sum_k (-z)^k/(k k!) over k = 1 .. _SERIES_TERMS, by Horner in -z."""
    w = -z
    total = np.zeros_like(z)
    for c in _SERIES_COEFS:
        # not ``*=``: numpy multiplies in place on one-element arrays with
        # other rounding, so scalar calls would differ from batches
        total = (total + c) * w
    return total


def _e1_series(z):
    """Ascending series of E1 for small |z|, principal branch.

    E1(z) = -gamma - ln z - sum_k (-z)^k/(k k!).
    """
    return -EULER_GAMMA - np.log(z) - _horner_sum(z)


def _cf_backward(z, depth):
    """Backward evaluation of the E1 continued fraction, one sweep.

    ``depth`` holds each argument's depth N, in descending order.  An
    argument runs t_N = z + 2N + 1, t_j = z + 2j + 1 - (j+1)^2/t_{j+1}
    down to t_0: step j runs on the prefix of arguments whose depth
    exceeds j, so every argument goes through its own steps only.
    Returns 1/t_0 together with the first-order bound on its relative
    truncation error,
    |prod_{j<N} (j+1)/t_{j+1}|^2 * |1/t_0| * (N+1)^2/|z + 2N + 3|.

    The steps run on the real and imaginary parts of t = x + iy, with no
    complex division: (j+1)^2/t = u (x - iy), u = (j+1)^2/(x^2 + y^2), so
    a step is x <- Re z + 2j + 1 - u x, y <- Im z + u y, and the bound's
    |prod|^2 is the product of the u.  Every operation is one real
    ufunc, rounded alone, so each value depends on its own argument
    only.  Past |t| of about 1.3e154, x^2 + y^2 overflows to inf and u
    is 0: the true u x is below (j+1)^2/|t| < 1e-146 there, under 1e-300
    of t, so the overflow is let through silently.  1/t_0 is taken as
    0.5/(t_0/2), which has the bits of 1/t_0 wherever t_0 and the result
    are normal numbers, but cannot overflow inside the complex division
    up to the largest finite z.
    """
    re, im = z.real.copy(), z.imag.copy()
    x = re + (2 * depth + 1)
    y = im.copy()
    prod = np.ones(z.size)
    u = np.empty(z.size)
    w = np.empty(z.size)
    top = depth.max(initial=0)
    # active[j]: how many arguments have a depth above j
    active = np.searchsorted(-depth, -np.arange(top), side="left").tolist()
    n = -1
    with np.errstate(over="ignore"):
        for j in range(top - 1, -1, -1):
            if active[j] != n:
                n = active[j]
                xn, yn, un, wn, pn, ren, imn = (
                    v[:n] for v in (x, y, u, w, prod, re, im))
            np.multiply(xn, xn, out=un)
            np.multiply(yn, yn, out=wn)
            un += wn
            np.divide(float((j + 1) ** 2), un, out=un)
            pn *= un
            xn *= un
            yn *= un
            np.add(ren, 2.0 * j + 1.0, out=wn)
            np.subtract(wn, xn, out=xn)
            yn += imn
    half = np.empty_like(z)
    np.multiply(x, 0.5, out=half.real)
    np.multiply(y, 0.5, out=half.imag)
    h = 0.5 / half
    bound = prod * np.abs(h) * (depth + 1.0) ** 2 \
        / np.abs(z + (2 * depth + 3))
    return h, bound


def _e1s_continued_fraction(z, mag=None):
    """Backward evaluation of e^z E1(z) for a flat array off the series.

    The standard continued fraction
    e^z E1(z) = 1/(z+1-) 1/(z+3-) 4/(z+5-) 9/(z+7-) ...
    converges for every z off the negative real axis.  Each argument
    starts at the depth of its |z| band in ``_CF_DEPTHS``, and all of them
    go through one ``_cf_backward`` sweep, deepest first; those whose
    truncation bound is not below ``_CF_EPS`` go round again at twice
    their depth, up to ``_CF_MAX_ITER``.  Each value depends on its own
    argument only.  ``mag`` is |z| if known.
    """
    z = np.ravel(z)
    if mag is None:
        mag = np.abs(z)
    band = _CF_BAND_OF[np.minimum(mag, _CF_BANDS[-1]).astype(np.intp)]
    # stable: equal start depths keep their order; uint8 sorts by radix
    order = np.argsort(band, kind="stable")
    z = z[order]
    depth = np.repeat(_CF_DEPTHS, np.bincount(band, minlength=_CF_DEPTHS.size))
    out, bound = _cf_backward(z, depth)
    idx = np.arange(z.size)
    while True:
        # "not below" also sends a NaN bound round again
        again = ~(bound < _CF_EPS)
        if not again.any():
            break
        idx, depth = idx[again], 2 * depth[again]
        if depth[0] > _CF_MAX_ITER:
            raise RuntimeError(
                "continued fraction for e^z E1(z) failed to converge "
                f"within {_CF_MAX_ITER} terms (worst |z| = "
                f"{np.abs(z[idx[depth > _CF_MAX_ITER]]).min():.3g})"
            )
        out[idx], bound = _cf_backward(z[idx], depth)
    result = np.empty_like(out)
    result[order] = out
    return result


def _takes_series(z, mag=None):
    """Which arguments the series branch takes; ``mag`` is |z| if known."""
    if mag is None:
        mag = np.abs(z)
    return (mag <= _SERIES_RADIUS) & (z.real <= _SERIES_MAX_REAL)


def _validate_off_cut(z, mag):
    if not mag.all():
        raise ValueError("E1 is singular at z = 0")
    real_axis = z.imag == 0
    if real_axis.any() and (z.real[real_axis] < 0).any():
        raise ValueError("E1 branch cut: argument on the negative real axis")
    # |z| overflows for finite z past 1.8e308, so look at z itself then
    if not np.isfinite(mag).all() and not np.isfinite(z).all():
        raise ValueError("E1 argument must be finite")


def _e1(z, scaled):
    """E1(z), or e^z E1(z) when ``scaled``, at scalars or arrays.

    The series gives E1 and the continued fraction e^z E1, so the two
    writings differ only in which branch takes the factor e^{+-z}.  |z|
    is taken once for the validation and the choice of branch.
    """
    arr = np.asarray(z, dtype=np.complex128)
    flat = arr.ravel()
    mag = np.abs(flat)
    _validate_off_cut(flat, mag)
    small = _takes_series(flat, mag)
    out = np.empty_like(flat)
    if small.any():
        zs = flat[small]
        out[small] = np.exp(zs) * _e1_series(zs) if scaled else _e1_series(zs)
        large = ~small
    else:
        # the kernels' front calls mostly land here: no gather
        large = slice(None)
    zl = flat[large]
    if zl.size:
        fraction = _e1s_continued_fraction(zl, mag[large])
        out[large] = fraction if scaled else np.exp(-zl) * fraction
    return out[0] if arr.ndim == 0 else out.reshape(arr.shape)


def e1_scaled(z):
    """Scaled exponential integral e^z E1(z), principal branch.

    This combination stays of order 1/z for large |z| in any direction,
    which is what the decaying field kernels need: their E1 arguments can
    have real parts of several thousand where E1 alone underflows.

    Parameters
    ----------
    z : complex scalar or array_like
        Arguments anywhere off the negative real axis (the branch cut)
        and nonzero.

    Returns
    -------
    complex scalar or ndarray
    """
    return _e1(z, scaled=True)


def exp_integral_e1(z):
    """Principal-branch exponential integral E1(z) for complex z.

    Valid off the negative real axis.  For arguments with large negative
    real part the result overflows together with e^{-z}; use
    ``e1_scaled`` in that regime, which is how the field kernels consume
    E1 internally.

    Parameters
    ----------
    z : complex scalar or array_like

    Returns
    -------
    complex scalar or ndarray
    """
    return _e1(z, scaled=False)


# Ci and si are read from E1(ix) = -Ci(x) + i si(x) through ``_e1``,
# never through ``exp_integral_e1``: callers may rebind the public names.

def _finite_real(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} argument must be finite")
    return np.atleast_1d(arr), arr.ndim == 0


def si_lower(x):
    """Shifted sine integral si(x) = Si(x) - pi/2.

    This is the variant appearing in the steady-state field formulas; it
    tends to 0 as x -> +inf and to -pi as x -> -inf, and satisfies
    si(x) + si(-x) = -pi identically.  si(|x|) is taken straight from
    E1(i|x|), with no pi/2 to cancel, and si(-|x|) from the reflection.
    """
    arr, scalar = _finite_real(x, "si_lower")
    mag = np.abs(arr)
    out = np.full_like(mag, -HALF_PI)
    nonzero = mag > 0
    if nonzero.any():
        si = _e1(1j * mag[nonzero], scaled=False).imag
        out[nonzero] = np.where(arr[nonzero] > 0, si, -np.pi - si)
    return out[0] if scalar else out


def cosine_integral(x):
    """Cosine integral Ci(x) = -int_x^inf cos(u)/u du for real x > 0.

    Negative or zero arguments raise: Ci is real only for x > 0, and a
    strict domain catches a dropped absolute value in a sine/cosine-integral
    writing of the steady forms, which takes Ci of |coordinate|.

    Parameters
    ----------
    x : float scalar or array_like, strictly positive

    Returns
    -------
    float scalar or ndarray
    """
    arr, scalar = _finite_real(x, "cosine_integral")
    if np.any(arr <= 0):
        raise ValueError("cosine_integral requires strictly positive arguments")
    out = -_e1(1j * arr, scaled=False).real
    return out[0] if scalar else out
