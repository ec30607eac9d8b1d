"""Speed and accuracy of the special functions by |z| band.

For each band a seeded sample of E1 arguments with |z| log-uniform inside
the band and angles within +-(pi/2 + 0.1) is timed through
``wqed.specfun.e1_scaled`` and, on a subsample, compared with ``mpmath``
at 30 digits.  si/ci is timed on real arguments log-uniform over
[0.01, 1e5]; its error is measured on the complex value
-Ci(x) + i si(x) = E1(ix), which has no zeros, relative to |E1(ix)|.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

BANDS = (("b0_6", 0.01, 6.0), ("b6_40", 6.0, 40.0),
         ("b40_1e3", 40.0, 1.0e3), ("b1e3_1e5", 1.0e3, 1.0e5))
MAX_ANGLE = math.pi / 2 + 0.1
SI_CI_RANGE = (0.01, 1.0e5)
N_TIMED = 4096
N_CHECKED = 48
REPEATS = 5
MP_DIGITS = 30


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _us_per_arg(fn, n_args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / n_args


def band_table(seed):
    """Metric name -> value for the band table (mpmath imported lazily)."""
    import mpmath
    from wqed import specfun

    rng = np.random.default_rng(seed)
    table = {}
    with mpmath.workdps(MP_DIGITS):
        for band, lo, hi in BANDS:
            z = _log_uniform(rng, lo, hi, N_TIMED) * np.exp(
                1j * rng.uniform(-MAX_ANGLE, MAX_ANGLE, N_TIMED))
            table[f"specfun.e1_scaled.us_per_arg.{band}"] = _us_per_arg(
                lambda: specfun.e1_scaled(z), z.size)
            got = specfun.e1_scaled(z[:N_CHECKED])
            worst = 0.0
            for zi, gi in zip(z[:N_CHECKED], got):
                mz = mpmath.mpc(zi.real, zi.imag)
                ref = complex(mpmath.exp(mz) * mpmath.e1(mz))
                worst = max(worst, abs(gi - ref) / abs(ref))
            table[f"specfun.e1_scaled.max_rel_err.{band}"] = worst

        x = _log_uniform(rng, *SI_CI_RANGE, N_TIMED)
        table["specfun.si_ci.us_per_arg"] = _us_per_arg(
            lambda: (specfun.si_lower(x), specfun.cosine_integral(x)),
            2 * x.size)
        xs = x[:N_CHECKED]
        got = -specfun.cosine_integral(xs) + 1j * specfun.si_lower(xs)
        worst = 0.0
        for xi, gi in zip(xs, got):
            ref = complex(-mpmath.ci(xi) + 1j * (mpmath.si(xi) - mpmath.pi / 2))
            worst = max(worst, abs(gi - ref) / abs(ref))
        table["specfun.si_ci.max_rel_err"] = worst
    return table
