"""Shared fixtures: parameter presets spanning the three interference regimes.

All presets use the superconducting-circuit scale Omega/2pi = 5 GHz and a
3e8 m/s group velocity, so separations come out at centimeters and decay
times at nanoseconds.
"""

import cmath

import mpmath
import numpy as np
import pytest

from wqed import fields, oracle, specfun
from wqed.amplitudes import QubitState
from wqed.model import (ModelParams, Regime, collective_rates,
                         coupling_weights)
from wqed.oracle import (
    _GL_NODES,
    _GL_WEIGHTS,
    CHUNK_NODES,
    CONTINUUM_KEEP_EVERY,
    CONTINUUM_STEP,
    CUTOFF_FACTOR,
    PANEL_ORDER,
    PHASE_FINE,
    POINTS_PER_PERIOD,
    TAIL_TERMS,
    ContinuumResult,
    _phase_tables,
    _rise,
    _tail_moments,
    gaussian_spectrum,
    make_continuum_grid,
)
from wqed.specfun import cosine_integral, e1_scaled, si_lower

OMEGA_Q = 2.0 * np.pi * 5.0e9


@pytest.fixture(scope="session")
def weak_generic():
    """Gamma/Omega = 0.01 at quarter-wave phase k_Omega*d = pi/2."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5)


@pytest.fixture(scope="session")
def weak_even():
    """Gamma/Omega = 0.01 at full-wave phase k_Omega*d = 2*pi (d = 6 cm)."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 2.0)


@pytest.fixture(scope="session")
def weak_odd():
    """Gamma/Omega = 0.01 at half-wave phase k_Omega*d = pi."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 1.0)


@pytest.fixture(scope="session")
def strong_odd():
    """Gamma/Omega = 0.1 at k_Omega*d = 5*pi, the retardation-dominated case."""
    return ModelParams.from_phase(OMEGA_Q, 0.1 * OMEGA_Q, 5.0)


@pytest.fixture(scope="session")
def all_presets(weak_generic, weak_even, weak_odd, strong_odd):
    return {
        "generic": weak_generic,
        "even": weak_even,
        "odd": weak_odd,
        "strong": strong_odd,
    }


def _per_regime_rates(params, regime):
    """``model.collective_rates`` in its per-regime writing, as a reference.

    The pinned regimes return (Gamma, 0) or (0, Gamma) outright; only the
    generic one forms Gamma/2 (1 +- e^{i k_Omega d}).
    """
    half = 0.5 * params.gamma
    if regime is Regime.EVEN_PI:
        return complex(params.gamma), 0.0 + 0.0j
    if regime is Regime.ODD_PI:
        return 0.0 + 0.0j, complex(params.gamma)
    phase = np.exp(1j * params.qubit_phase)
    return half * (1.0 + phase), half * (1.0 - phase)


def _per_regime_coupling_weights(params, regime, omega):
    """``model.coupling_weights`` in its per-regime writing, as a reference.

    Generic: both quotients with e^{i k_omega d}.  Pinned: the dark
    channel's sinc rewriting, and the bright quotient with e^{i eps}
    written out, its sign flip in the odd regime folded into the 1 + .
    """
    omega = np.asarray(omega, dtype=float)
    a_g = params.amplitude * params.coupling
    gamma_plus, gamma_minus = _per_regime_rates(params, regime)
    eps = (omega - params.omega_q) * params.distance / params.v_g
    detune = params.omega_q - omega
    if regime is Regime.GENERIC:
        phase = np.exp(1j * params.phase_across(omega))
        c_plus = a_g * (1.0 + phase) / (detune - 1j * gamma_plus)
        c_minus = a_g * (1.0 - phase) / (detune - 1j * gamma_minus)
        return c_plus, c_minus
    dark = a_g * (1j * params.distance / params.v_g) \
        * np.exp(0.5j * eps) * np.sinc(0.5 * eps / np.pi)
    if regime is Regime.EVEN_PI:
        bright = a_g * (1.0 + np.exp(1j * eps)) / (detune - 1j * gamma_plus)
        return bright, dark
    bright = a_g * (1.0 + np.exp(1j * eps)) / (detune - 1j * gamma_minus)
    return dark, bright


@pytest.fixture(scope="session")
def per_regime_model():
    """The per-regime writings of (collective_rates, coupling_weights)."""
    return _per_regime_rates, _per_regime_coupling_weights


def _centers_by_name(params):
    """The four kernel centers of ``params``, by name, in the field's order.

    The collective poles Omega - i*gamma_+ and Omega - i*gamma_-, the drive
    carrier and the bare Omega.
    """
    r = collective_rates(params)
    return {"decay_plus": params.omega_q - 1j * r.gamma_plus,
            "decay_minus": params.omega_q - 1j * r.gamma_minus,
            "drive": params.omega_s, "resonant": params.omega_q}


@pytest.fixture(scope="session")
def kernel_centers():
    """Map a parameter set to its four kernel centers by name."""
    return _centers_by_name


def _printed_kernel(s1, t, a):
    """``fields.closed_kernel`` with the launch term in its printed writing.

    The launch term e^{-iat} E1s(i a s1) of the closed kernel is swapped for
    e^{-iat + (i-1) a s1} E1s(a s1), which reads the first E1 argument as
    a*s1 instead of i*a*s1.  Only defined for s1 > 0: elsewhere that
    argument lands on the branch cut of E1.
    """
    if np.any(np.asarray(s1) <= 0):
        raise ValueError("printed writing undefined for s1 <= 0 (E1 branch cut)")
    t = np.asarray(t, dtype=float)
    rotated = np.exp(-1j * a * t) * e1_scaled(1j * a * s1)
    printed = np.exp(-1j * a * t + (1j - 1.0) * a * s1) * e1_scaled(a * s1)
    return fields.closed_kernel(s1, t, a) - rotated + printed


@pytest.fixture(scope="session")
def printed_kernel():
    """The closed kernel in the printed writing, which quadrature rules out."""
    return _printed_kernel


def _per_pair_closed_kernel(s1, t, a):
    """``fields.closed_kernel`` in its per-pair writing, as a reference.

    One kernel with its own launch E1 call, i a s2 formed twice and the
    winding exponential e^{i a s2} taken at every point, whether or not
    its winding factor is zero there.
    """
    s1 = np.asarray(s1, dtype=float)
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=complex)
    if np.any(a.imag > 0):
        raise ValueError("kernel centers must not grow: need Im a <= 0")
    s2 = s1 - t
    if np.any(s1 == 0) or np.any(s2 == 0):
        raise ValueError("kernel singularity")
    launch = np.exp(-1j * a * t) * e1_scaled(1j * a * s1)
    front = -e1_scaled(1j * a * s2)
    circ = 2j * np.pi * np.exp(1j * a * s2) \
        * ((s2 < 0).astype(float) - (s1 < 0).astype(float))
    out = launch + front + circ
    return out if np.ndim(out) else complex(out)


@pytest.fixture(scope="session")
def per_pair_closed_kernel():
    """The master kernel evaluated pair by pair, every exponential taken."""
    return _per_pair_closed_kernel


def _complex_backward(z, depth):
    """One band's continued-fraction pass in the complex-step writing.

    t_j = z + 2j + 1 - (j+1)^2/t_{j+1} with one complex division per
    step, and the truncation bound multiplied up as (q_j)^2,
    q_j = (j+1)/t_{j+1}.  Returns 1/t_0 and the bound.
    """
    t = z + (2 * depth + 1)
    gain = np.ones_like(z)
    for j in range(depth - 1, -1, -1):
        q = (j + 1) / t
        gain *= q
        gain *= q
        q *= j + 1
        t = z + (2 * j + 1)
        t -= q
    h = 1.0 / t
    return h, np.abs(gain * h) * (depth + 1) ** 2 / np.abs(z + (2 * depth + 3))


def _real_backward(z, depth):
    """One band's continued-fraction pass on the parts of t = x + iy.

    u = (j+1)^2/(x^2 + y^2), x <- Re z + 2j + 1 - u x, y <- Im z + u y,
    each a rounded real operation, the bound's |prod|^2 the product of
    the u, and 1/t_0 as a plain complex division.  Returns 1/t_0 and the
    bound.
    """
    re, im = z.real, z.imag
    x = re + (2 * depth + 1)
    y = im.copy()
    gain = np.ones(z.size)
    for j in range(depth - 1, -1, -1):
        u = (j + 1) ** 2 / (x * x + y * y)
        gain *= u
        x = (re + (2 * j + 1)) - u * x
        y = u * y + im
    t = np.empty_like(z)
    t.real, t.imag = x, y
    h = 1.0 / t
    return h, gain * np.abs(h) * (depth + 1.0) ** 2 \
        / np.abs(z + (2 * depth + 3))


def _band_loop_e1(z, scaled, backward=_real_backward):
    """``specfun._e1`` in its band-loop writing, as a reference.

    The continued fraction runs one ``backward`` pass per |z| band of
    ``_CF_BANDS`` at the band's start depth, and the arguments whose
    bound is not met go round again at twice the depth.  Same series,
    same recurrence; ``backward`` writes one band's pass.
    """
    arr = np.asarray(z, dtype=np.complex128)
    flat = arr.ravel()
    out = np.empty_like(flat)
    small = (np.abs(flat) <= specfun._SERIES_RADIUS) \
        & (flat.real <= specfun._SERIES_MAX_REAL)
    if small.any():
        zs = flat[small]
        series = specfun._e1_series(zs)
        out[small] = np.exp(zs) * series if scaled else series
    zl = flat[~small]
    fraction = np.empty_like(zl)
    band = np.searchsorted(specfun._CF_BANDS, np.abs(zl), side="right")
    for k, depth in enumerate(specfun._CF_DEPTHS):
        idx = np.flatnonzero(band == k)
        while idx.size:
            assert depth <= specfun._CF_MAX_ITER
            fraction[idx], bound = backward(zl[idx], depth)
            idx = idx[~(bound < specfun._CF_EPS)]
            depth *= 2
    out[~small] = fraction if scaled else np.exp(-zl) * fraction
    return out.reshape(arr.shape)


@pytest.fixture(scope="session")
def band_loop_e1():
    """E1 or e^z E1 through one real-step continued-fraction pass per band."""
    return _band_loop_e1


@pytest.fixture(scope="session")
def complex_step_e1():
    """E1 or e^z E1 with one complex division per continued-fraction step."""
    return lambda z, scaled: _band_loop_e1(z, scaled, _complex_backward)


def _mp_kernel(s1, t, a):
    """The master kernel at 40 digits from float inputs taken as exact.

    K = e^{-iat} e^{z1} E1(z1) - e^{z2} E1(z2)
        + 2 pi i ((s2 < 0) - (s1 < 0)) e^{z2},  z_k = i a s_k, s2 = s1 - t.
    """
    with mpmath.workdps(40):
        s1, t = mpmath.mpf(float(s1)), mpmath.mpf(float(t))
        a = mpmath.mpc(complex(a).real, complex(a).imag)
        s2 = s1 - t
        z1, z2 = 1j * a * s1, 1j * a * s2
        k = mpmath.exp(-1j * a * t + z1) * mpmath.e1(z1) \
            - mpmath.exp(z2) * mpmath.e1(z2)
        wind = int(s2 < 0) - int(s1 < 0)
        if wind:
            k += 2j * mpmath.pi * wind * mpmath.exp(z2)
        return k


@pytest.fixture(scope="session")
def mp_kernel():
    """The master kernel at one point from 40-digit E1 values."""
    return _mp_kernel


def _mp_transient_field(params, rates, x, t, omega):
    """(u, v) at one point and carrier from kernels at 40 digits.

    The channel sum of ``fields`` with every kernel from ``_mp_kernel``
    and the incident wave from its phase in 40 digits; the inputs (the
    shifted coordinates y/v_g, the centers and the channel weights) are
    the engine's floats.  u carries the incident wave and, off the
    Before region, the forward scattered field; v is zero behind the pair.
    """
    d, v_g = params.distance, params.v_g
    c_plus, c_minus = (complex(c[0]) for c in coupling_weights(
        params, np.array([omega])))
    centers = (params.omega_q - 1j * rates.gamma_plus,
               params.omega_q - 1j * rates.gamma_minus, omega)
    with mpmath.workdps(40):
        def scattered(y1, y2):
            k = [_mp_kernel(y / v_g, t, a) for a in centers for y in (y1, y2)]
            return -mpmath.mpf(params.coupling) / 2 * (
                c_plus * (k[0] + k[1] - k[4] - k[5])
                + c_minus * (k[2] - k[3] - k[4] + k[5]))

        u = params.amplitude * mpmath.expj(
            mpmath.mpf(omega) * (mpmath.mpf(x) / v_g - mpmath.mpf(t)))
        v = mpmath.mpc(0)
        if x > 0:
            u += scattered(x, x - d)
        if x < d:
            v = scattered(-x, -(x - d))
        return complex(u), complex(v)


@pytest.fixture(scope="session")
def mp_transient_field():
    """The transient (u, v) at one point from a 40-digit channel sum."""
    return _mp_transient_field


def _kernel_limit_trig(s1, t, a):
    """``fields._kernel_limit`` written with the sine and cosine integrals.

    At a real center, or an array of them, the plane e^{i a (s1 - t)} M(w)
    with w = a s1 and M(w) = 2 pi i - ci(|w|) + i si(|w|) for w > 0,
    -(ci(|w|) + i si(|w|)) for w < 0: ci and si of |w| put back together,
    where the engine reads E1(iw) once.
    """
    a = np.asarray(a, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    t = np.asarray(t, dtype=float)
    w = a * s1
    mag = np.abs(w)
    ci = cosine_integral(mag)
    si = si_lower(mag)
    m = np.where(w > 0, 2j * np.pi - ci + 1j * si, -(ci + 1j * si))
    return np.exp(1j * a * (s1 - t)) * m


@pytest.fixture(scope="session")
def kernel_limit_trig():
    """The steady plane of a real-center kernel in its Ci/si writing."""
    return _kernel_limit_trig


def _wave_kernel_trig(s1, t, omega):
    """Second writing of the real-center kernel, via sine/cosine integrals.

    Mathematically identical to ``fields.closed_kernel`` at a real center:
    the steady plane in its Ci/si writing plus the front term, which
    decays as the light front recedes.  Neither piece calls the engine:
    ci and si are read at the absolute values of the kernel's arguments,
    so the agreement between the two checks the algebra of the steady
    limit and the front term; the special functions themselves are pinned
    against mpmath.
    """
    s1, t = np.broadcast_arrays(np.asarray(s1, dtype=float),
                                np.asarray(t, dtype=float))
    s2 = s1 - t
    if np.any(s2 >= 0):
        raise ValueError("trig writing implemented for the causal region s1 < t")
    w2 = omega * np.abs(s2)
    front = np.exp(1j * omega * s2) * (cosine_integral(w2) + 1j * si_lower(w2))
    return _kernel_limit_trig(s1, t, omega) + front


@pytest.fixture(scope="session")
def wave_kernel_trig():
    """The real-center kernel as its steady limit plus the front term."""
    return _wave_kernel_trig


def _per_node_quad_kernel(s1, t, a, params):
    """``oracle.quad_kernel`` in its per-node writing, as a reference.

    Same panels, nodes, weights and analytic tail as the oracle at its
    default cutoff, but every node evaluates phi(omega - a, t) e^{i omega s2}
    with its own two complex exponentials instead of the factored phases.
    """
    s2 = s1 - t
    a = complex(a)
    cutoff = CUTOFF_FACTOR * max(params.omega_q, params.omega_s, abs(a))
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * max(abs(s1), abs(s2), t))
    if a.imag < 0:
        h = min(h, -a.imag / 4.0)
    n_panels = int(np.ceil(cutoff / h))
    width = cutoff / n_panels
    ref_x, ref_w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    ref_x = 0.5 * (ref_x + 1.0)
    ref_w = 0.5 * ref_w * width
    total = 0.0 + 0.0j
    for start in range(0, n_panels, 32768):
        left = (np.arange(start, min(start + 32768, n_panels)) * width)[:, None]
        omega = left + ref_x[None, :] * width
        z = omega - a
        zt = z * t
        small = np.abs(zt) < 1e-8
        phi = np.where(small, 1j * t * (1.0 + 0.5j * zt),
                       (np.exp(1j * zt) - 1.0) / np.where(small, 1.0, z))
        total += np.sum(phi * np.exp(1j * omega * s2) * ref_w[None, :])
    powers = a ** np.arange(TAIL_TERMS)
    tail = np.exp(-1j * a * t) * (powers @ _tail_moments(s1, cutoff)) \
        - powers @ _tail_moments(s2, cutoff)
    return complex(total + tail)


@pytest.fixture(scope="session")
def per_node_quad_kernel():
    """The panel quadrature with two exponentials per node."""
    return _per_node_quad_kernel


def _chunk_phases(tables, start, count, out):
    """The phases of panels start, ..., start + count - 1, as out[:count].

    The phase-buffer writing of the quadrature's panel phases: column k
    is the panel phase of ``tables[k]`` (a ``_phase_tables`` pair),
    written as coarse x fine products straight into ``out``, a
    (rows, 2) complex buffer with at least ``count`` rounded up to
    PHASE_FINE rows; ``start`` is a multiple of PHASE_FINE.
    """
    rows = -(-count // PHASE_FINE)
    blocks = out[:rows * PHASE_FINE].reshape(rows, PHASE_FINE, 2)
    first = start // PHASE_FINE
    for k, (coarse, fine) in enumerate(tables):
        np.multiply(coarse[first:first + rows, None], fine, out=blocks[:, :, k])
    return out[:count]


def _node_column_panel_sum(s1, t, a, width, n_panels):
    """``oracle._panel_sum`` in its node-column writing, as a reference.

    Same panels, nodes, phase tables and near-panel expansion, but the
    panel phases are written out chunk by chunk (``_chunk_phases``), and
    each chunk's out-of-reach panels are summed one node column at a
    time: at a real center one real matrix-vector product of
    1/(left - a + off) with the phases' float view per node, at a
    decaying center two complex dots per node.
    """
    s2 = s1 - t
    off = 0.5 * (_GL_NODES + 1.0) * width
    ref_w = 0.5 * _GL_WEIGHTS * width
    lead = np.exp(-1j * a * t) * np.exp(1j * off * s1) * ref_w
    trail = np.exp(1j * off * s2) * ref_w
    reach = 2e-8 / t
    near = np.zeros(2, dtype=int)
    if abs(a.imag) < reach:
        edges = np.floor(np.array([a.real - reach, a.real + reach]) / width)
        near = np.clip(edges + (-1, 2), 0, n_panels).astype(int)

    tables = (_phase_tables(s1, width, n_panels),
              _phase_tables(s2, width, n_panels))
    panels_per_chunk = CHUNK_NODES // PANEL_ORDER
    buffer = np.empty((panels_per_chunk, 2), dtype=complex)
    total = 0.0 + 0.0j
    for start in range(0, n_panels, panels_per_chunk):
        count = min(panels_per_chunk, n_panels - start)
        left = np.arange(start, start + count) * width
        phases = _chunk_phases(tables, start, count, buffer)
        lo, hi = np.clip(near - start, 0, count)
        if lo < hi:
            z = (left[lo:hi] - a)[:, None] + off
            trailing = phases[lo:hi, 1, None] * trail
            zt = z * t
            vals = trailing * _rise(zt) / z
            small = np.abs(zt) < 1e-8
            vals[small] = 1j * t * (1.0 + 0.5j * zt[small]) * trailing[small]
            total += np.sum(vals)
        pieces = [(i, j) for i, j in ((0, lo), (hi, count)) if i < j]
        if a.imag == 0:
            x = left - a.real
            flat = phases.view(float)
            for i, j in pieces:
                for lead_n, trail_n, off_n in zip(lead, trail, off):
                    fwd, bwd = (np.reciprocal(x[i:j] + off_n) @ flat[i:j]) \
                        .view(complex)
                    total += lead_n * fwd - trail_n * bwd
            continue
        ahead, behind = phases.T.copy()
        base = left - a
        for i, j in pieces:
            for lead_n, trail_n, off_n in zip(lead, trail, off):
                r = np.reciprocal(base[i:j] + off_n)
                total += lead_n * np.dot(ahead[i:j], r) \
                    - trail_n * np.dot(behind[i:j], r)
    return total


def _with_node_column_sum(fn, *args):
    """``fn(*args)`` with the oracle's panel sum in the node-column writing.

    ``quad_kernel`` and ``memory_kernel_coefficients`` called this way keep
    their checks, panel choice and tail, and sum their panels as
    ``_node_column_panel_sum`` does.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_panel_sum", _node_column_panel_sum)
        return fn(*args)


@pytest.fixture(scope="session")
def with_node_column_sum():
    """Call an oracle function with the node-column panel sum swapped in."""
    return _with_node_column_sum


def _per_node_memory_coefficients(t, params):
    """``oracle.memory_kernel_coefficients`` in its per-node writing.

    Same panels and nodes up to 20 Omega, with every node evaluating
    I(omega, t) = (1 - e^{-i(omega - Omega)t})/(i(omega - Omega)), or its
    first-order expansion where |(omega - Omega) t| < 1e-8, and
    cos(omega d/v_g) on its own instead of the kernel's panel sum.
    """
    g2 = params.coupling ** 2
    cutoff = 20.0 * params.omega_q
    fastest = max(t, params.distance / params.v_g)
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * fastest)
    n_panels = int(np.ceil(cutoff / h))
    ref_x, ref_w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    ref_x = 0.5 * (ref_x + 1.0)
    width = cutoff / n_panels
    ref_w = 0.5 * ref_w * width
    self_total = 0.0 + 0.0j
    cross_total = 0.0 + 0.0j
    chunk = 262144 // PANEL_ORDER
    for start in range(0, n_panels, chunk):
        stop = min(start + chunk, n_panels)
        left = (np.arange(start, stop) * width)[:, None]
        omega = left + ref_x[None, :] * width
        z = omega - params.omega_q
        zt = z * t
        small = np.abs(zt) < 1e-8
        mem = np.where(
            small,
            t * (1.0 - 0.5j * zt),
            (1.0 - np.exp(-1j * zt)) / np.where(small, 1.0, 1j * z),
        )
        kd = omega * params.distance / params.v_g
        self_total += np.sum(mem * ref_w[None, :])
        cross_total += np.sum(np.cos(kd) * mem * ref_w[None, :])
    return 2.0 * g2 * self_total, 2.0 * g2 * cross_total


@pytest.fixture(scope="session")
def per_node_memory_coefficients():
    """The memory-kernel quadrature with I(omega, t) formed at every node."""
    return _per_node_memory_coefficients


def _per_call_markov_ode(params, t_final, n_steps, keep_every=1):
    """``oracle.markov_ode`` in its per-call writing, as a reference.

    The same RK4 on the same system, stepped by evaluating the four stages
    of every step instead of applying the affine step map; no error check.
    """
    gamma, g = params.gamma, params.coupling
    detuning = params.omega_s - params.omega_q
    dt = t_final / n_steps
    phase_q = complex(np.exp(1j * params.qubit_phase))
    phase_s = complex(np.exp(1j * params.drive_phase))
    amp = -1j * g * params.amplitude

    def rhs(t, b1, b2):
        drive = amp * cmath.exp(-1j * detuning * t)
        return (drive - 0.5 * gamma * b1 - 0.5 * gamma * phase_q * b2,
                drive * phase_s - 0.5 * gamma * b2 - 0.5 * gamma * phase_q * b1)

    def rk4(t, b1, b2, h):
        k1 = rhs(t, b1, b2)
        k2 = rhs(t + 0.5 * h, b1 + 0.5 * h * k1[0], b2 + 0.5 * h * k1[1])
        k3 = rhs(t + 0.5 * h, b1 + 0.5 * h * k2[0], b2 + 0.5 * h * k2[1])
        k4 = rhs(t + h, b1 + h * k3[0], b2 + h * k3[1])
        return (b1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                b2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))

    b1 = b2 = 0j
    times, saved = [0.0], [(b1, b2)]
    for step in range(1, n_steps + 1):
        b1, b2 = rk4((step - 1) * dt, b1, b2, dt)
        if step % keep_every == 0 or step == n_steps:
            times.append(step * dt)
            saved.append((b1, b2))
    saved = np.array(saved)
    return QubitState(t=np.array(times), beta_1=saved[:, 0], beta_2=saved[:, 1])


@pytest.fixture(scope="session")
def per_call_markov_ode():
    """The Markov RK4 with its four stages evaluated on every step."""
    return _per_call_markov_ode


def _rhs_continuum_evolve(params, t_final, n_modes, launch_delay=0.0):
    """``oracle.continuum_evolve`` in its right-hand-side writing.

    The same comb, step, initial packet and classical RK4, with every stage
    evaluating the full right-hand side over the comb (one exponential per
    mode per stage) instead of the comb sums.
    """
    grid = make_continuum_grid(params, n_modes=n_modes)
    omega, w = grid.omega, grid.weights
    g = params.coupling
    rot = omega - params.omega_q
    dt = CONTINUUM_STEP / np.max(np.abs(rot))
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps
    gam = gaussian_spectrum(params, omega).astype(np.complex128)
    if launch_delay:
        gam *= np.exp(1j * omega * launch_delay)
    fwd_phase = np.exp(1j * omega * params.distance / params.v_g)
    bwd_phase = np.conj(fwd_phase)
    beta = np.zeros(2, dtype=np.complex128)
    delt = np.zeros_like(gam)

    def rhs(t, b, gm, dl):
        rotator = np.exp(-1j * rot * t)
        overlap_plain = np.sum(w * (gm + dl) * rotator)
        overlap_shift = np.sum(w * (gm * fwd_phase + dl * bwd_phase) * rotator)
        src = np.conj(rotator)
        return (np.array([-1j * g * overlap_plain, -1j * g * overlap_shift]),
                -1j * g * (b[0] + b[1] * bwd_phase) * src,
                -1j * g * (b[0] + b[1] * fwd_phase) * src)

    def norm_of(b, gm, dl):
        return float(np.abs(b[0]) ** 2 + np.abs(b[1]) ** 2
                     + np.sum(w * (np.abs(gm) ** 2 + np.abs(dl) ** 2)))

    times, b1s, b2s = [0.0], [beta[0]], [beta[1]]
    norms = [norm_of(beta, gam, delt)]
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        kb1, kg1, kd1 = rhs(t, beta, gam, delt)
        kb2, kg2, kd2 = rhs(t + 0.5 * dt, beta + 0.5 * dt * kb1,
                            gam + 0.5 * dt * kg1, delt + 0.5 * dt * kd1)
        kb3, kg3, kd3 = rhs(t + 0.5 * dt, beta + 0.5 * dt * kb2,
                            gam + 0.5 * dt * kg2, delt + 0.5 * dt * kd2)
        kb4, kg4, kd4 = rhs(t + dt, beta + dt * kb3,
                            gam + dt * kg3, delt + dt * kd3)
        beta = beta + dt / 6.0 * (kb1 + 2 * kb2 + 2 * kb3 + kb4)
        gam = gam + dt / 6.0 * (kg1 + 2 * kg2 + 2 * kg3 + kg4)
        delt = delt + dt / 6.0 * (kd1 + 2 * kd2 + 2 * kd3 + kd4)
        if step % CONTINUUM_KEEP_EVERY == 0 or step == n_steps:
            times.append(step * dt)
            b1s.append(beta[0])
            b2s.append(beta[1])
            norms.append(norm_of(beta, gam, delt))
    return ContinuumResult(t=np.array(times), beta_1=np.array(b1s),
                           beta_2=np.array(b2s), norm=np.array(norms),
                           grid=grid, gamma_final=gam, delta_final=delt)


@pytest.fixture(scope="session")
def rhs_continuum_evolve():
    """The continuum RK4 with the full right-hand side at every stage."""
    return _rhs_continuum_evolve


def _per_cell_write_csv(path, lines, columns, rows):
    """``cli.write_csv`` in its per-cell writing, as a reference.

    Every cell is formatted on its own: text as itself, anything else as
    %.17g, joined by commas row by row, and each line written as UTF-8.
    """
    def fmt(value):
        return value if isinstance(value, str) else "%.17g" % value

    with open(path, "wb") as handle:
        for line in lines:
            handle.write(f"# {line}\n".encode())
        handle.write((",".join(columns) + "\n").encode())
        for row in rows:
            handle.write((",".join(fmt(v) for v in row) + "\n").encode())


@pytest.fixture(scope="session")
def per_cell_write_csv():
    """The CSV writer that formats and joins cell by cell."""
    return _per_cell_write_csv


def _per_point_field_rows(params, x_over_d, ratios, omega, t, branch, label):
    """``cli._field_columns`` in its per-point writing, as a reference.

    The same one ``drive_sweep`` call, read off carrier by carrier and
    point by point into row tuples of numpy scalars.
    """
    x_over_d = np.asarray(x_over_d, dtype=float)
    grid = fields.space_time_grid(params, x_over_d * params.distance, [t])
    _, u_all, v_all, w_all = fields.drive_sweep(
        grid, collective_rates(params), params, omega, branch=branch)
    amp2 = params.amplitude ** 2
    rows = []
    for k, ratio in enumerate(ratios):
        u, v, w = u_all[k, 0], v_all[k, 0], w_all[k, 0]
        for i, xod in enumerate(x_over_d):
            rows.append((label, xod, ratio,
                         u[i].real, u[i].imag, v[i].real, v[i].imag,
                         w[i].real, w[i].imag,
                         abs(u[i]) ** 2 / amp2, abs(v[i]) ** 2 / amp2,
                         abs(w[i]) ** 2 / amp2))
    return rows


@pytest.fixture(scope="session")
def per_point_field_rows():
    """The field-table rows built carrier by carrier and point by point."""
    return _per_point_field_rows
