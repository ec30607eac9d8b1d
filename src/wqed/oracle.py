"""Brute-force reference evaluations for validating the closed forms.

Nothing in here reuses the engine's special functions or kernel algebra:
the master kernel's defining frequency integral is done by composite
Gauss-Legendre panels.  The panels stop at 5 times the largest
frequency, and beyond that 12 terms of 1/(omega - a) in powers of
a/omega are added in closed form, their moments from scipy's sine/cosine
integrals (an implementation independent of the hand-built ones) and a
recurrence, or from Gauss-Laguerre on a turned path.  The quadrature
keeps its plain panels and nodes; only the order of its arithmetic is
regrouped for speed: one real matrix product per chunk of panels, of the
real and imaginary parts of 1/(omega - a) at every node with a fine table
of panel phases, then one product with a coarse table, keeping the
per-node sum for the few panels near the kernel center.  The driven
two-qubit system, linear with constant coefficients once its drive is
carried as a third component, is solved exactly by one 3x3 matrix
exponential, and with its two scattered mode amplitudes carried along by
one 5x5 matrix exponential.  The full qubit+continuum Schroedinger
equation on a discretized frequency comb is solved exactly by a Chebyshev
expansion of its propagator.  Every closed form in the package is
required to agree with these to stated tolerances.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .amplitudes import QubitState
from .model import (CollectiveRates, ModelParams, collective_rates,
                    coupling_weights)

# ---------------------------------------------------------------------------
# frequency-integral oracle for the wave kernels

# Panel quadrature: each panel is at most 1/POINTS_PER_PERIOD of the
# fastest oscillation present wide and holds PANEL_ORDER Gauss-Legendre
# nodes; a kernel needing more than MAX_NODES nodes is refused, and the
# nodes are summed CHUNK_NODES at a time.  Panel phases come from a coarse
# table of one exponential per PHASE_FINE panels times a fine table of
# PHASE_FINE entries; a chunk starts on a multiple of PHASE_FINE panels.
# At 8 panels per period the kernel is within 1.7e-10 of max(|K|, 1e-3) of
# the same sum at 32 (tests/test_oracle.py bounds it at 1e-9).
POINTS_PER_PERIOD = 8
PANEL_ORDER = 8
MAX_NODES = 2.0e7
CHUNK_NODES = 65536
PHASE_FINE = 64

# The panels run up to the cutoff W = CUTOFF_FACTOR times the largest
# frequency in the problem; beyond it 1/(omega - a) = sum_k a^{k-1}/omega^k
# is integrated in closed form to TAIL_TERMS terms, which leaves out about
# CUTOFF_FACTOR^-TAIL_TERMS = 4.1e-9 of the tail.  Each term's moment
# takes a recurrence below |W s| = TAIL_SWITCH and a TAIL_NODES-point
# Gauss-Laguerre sum from there on (``_tail_moments``).
CUTOFF_FACTOR = 5.0
TAIL_TERMS = 12
TAIL_SWITCH = 6.0
TAIL_NODES = 64

# The PANEL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)
# The TAIL_NODES-point Gauss-Laguerre rule on [0, inf), read-only.
_GLAG_NODES, _GLAG_WEIGHTS = np.polynomial.laguerre.laggauss(TAIL_NODES)
_GLAG_NODES.setflags(write=False)
_GLAG_WEIGHTS.setflags(write=False)


def _tail_moments(s: float, cutoff: float) -> np.ndarray:
    """I_k = int_W^inf e^{i omega s} omega^{-k} domega, k = 1..TAIL_TERMS.

    I_k = W^{1-k} E_k(-iy) with W the cutoff and y = W s (s != 0), and
    I_k at -s is the conjugate of I_k at s.  For y > 0, turning the path
    at omega = W up the line W (1 + iu) gives
    E_k(-iy) = (i e^{iy}/y) int_0^inf e^{-v} (1 + iv/y)^{-k} dv, whose
    integrand is smooth with its one singularity y away, so from
    y = TAIL_SWITCH on it is a TAIL_NODES-point Gauss-Laguerre sum.  Below
    that, E_1 comes from scipy's sine and cosine integrals and the rest
    from the upward recurrence E_k = (e^{iy} + iy E_{k-1})/(k - 1), which
    multiplies the error of E_1 by at most y^{k-1}/(k-1)!.
    """
    y = cutoff * abs(s)
    edge = np.exp(1j * y)
    if y < TAIL_SWITCH:
        si_y, ci_y = special.sici(y)
        e_k = [-ci_y - 1j * (si_y - 0.5 * np.pi)]
        for k in range(1, TAIL_TERMS):
            e_k.append((edge + 1j * y * e_k[-1]) / k)
        e_k = np.array(e_k)
    else:
        ratio = 1.0 / (1.0 + 1j * _GLAG_NODES / y)
        powers = np.cumprod(np.tile(ratio, (TAIL_TERMS, 1)), axis=0)
        e_k = (1j * edge / y) * (powers @ _GLAG_WEIGHTS)
    moments = e_k * cutoff ** -np.arange(float(TAIL_TERMS))
    return moments if s > 0 else moments.conj()


def _phase_tables(s: float, width: float, n_panels: int):
    """Coarse and fine tables of the panel phases e^{i s width p}, p < n_panels.

    Writing p = PHASE_FINE q + j, each phase is a coarse factor
    e^{i s width PHASE_FINE q} times a fine one e^{i s width j}: one
    exponential per PHASE_FINE panels instead of one per panel.  The
    coarse factor is e^{i s left} at every PHASE_FINE-th panel edge,
    computed as the per-panel exponential would compute it.
    """
    fine = np.exp(1j * s * (np.arange(PHASE_FINE) * width))
    starts = PHASE_FINE * np.arange(-(-n_panels // PHASE_FINE))
    coarse = np.exp(1j * s * (starts * width))
    return coarse, fine


def _rise(zt):
    """e^{i zt} - 1 without cancellation as zt -> 0.

    Written as expm1(-Im zt) e^{i Re zt} + 2i sin(Re zt / 2) e^{i Re zt / 2},
    so its error stays relative to |zt| at the nodes next to a real center.
    """
    half = np.exp(0.5j * zt.real)
    return np.expm1(-zt.imag) * half * half + 2j * np.sin(0.5 * zt.real) * half


def _panel_count(cutoff: float, h: float) -> int:
    """Panels of width at most h up to the cutoff, refused past MAX_NODES.

    Checked as a float before anything is allocated, so an infinite count
    is refused too.
    """
    n_panels = np.ceil(cutoff / h)
    if n_panels * PANEL_ORDER > MAX_NODES:
        raise ValueError(
            f"quadrature would need {n_panels * PANEL_ORDER:.3g} nodes "
            f"(> {MAX_NODES:.3g}); reduce t or the cutoff"
        )
    return int(n_panels)


def _panel_sum(s1: float, t: float, a: complex, width: float,
               n_panels: int) -> complex:
    """Gauss-Legendre sum of the kernel integrand over [0, n_panels width].

    The integrand is phi(omega - a, t) e^{i omega (s1 - t)}, with
    phi(z, t) = (e^{izt} - 1)/z, written as
    (e^{-iat} e^{i omega s1} - e^{i omega s2})/(omega - a), s2 = s1 - t.
    Each panel holds PANEL_ORDER nodes, and a node at omega = left + off
    splits each phase into a panel factor e^{i left s} and a node factor
    e^{i off s} that carries the weight.  The sum is regrouped by node:
    with u = left + off - Re a and line width gamma = -Im a,
    1/(omega - a) = (u - i gamma) r, r = 1/(u^2 + gamma^2).  Each chunk
    fills one real (rows x panels) array, allocated once per call, with
    1/u at a real center or with u r and r at a decaying one, padded
    with zero columns to a whole number of PHASE_FINE panels.  The panel
    phase of panel PHASE_FINE q + j is coarse[q] fine[j]
    (``_phase_tables``, built once per call), so the fine tables go
    inside one real matrix product, of the array taken as a
    (rows * blocks, PHASE_FINE) matrix with the float view of both fine
    tables, and each coarse table after it, as one (rows, blocks)
    product per table; no panel phase is written out.  The per-node
    sums are contracted with the node factors once, at the end.  So no
    complex division and no (panels x nodes) array is formed.  The
    panels within reach of the center, with one panel of margin on
    either side, keep the per-node sum, written as
    phi(z, t) e^{i omega s2} with e^{izt} - 1 from ``_rise`` so that the
    two phases do not cancel at the nodes next to a real center, and
    with the first-order expansion of phi where |(omega - a) t| < 1e-8,
    their phases taken as coarse x fine directly; their columns are
    zeroed, and take no reciprocal.  ``a`` is a complex center.
    """
    s2 = s1 - t
    off = 0.5 * (_GL_NODES + 1.0) * width    # node offsets inside a panel
    ref_w = 0.5 * _GL_WEIGHTS * width
    lead = np.exp(-1j * a * t) * np.exp(1j * off * s1) * ref_w   # node factors
    trail = np.exp(1j * off * s2) * ref_w
    reach = 2e-8 / t    # |z t| < 1e-8 only this close to a (with margin)
    near = (0, 0)    # panels [near[0], near[1]) are in reach
    if abs(a.imag) < reach:
        # the panels that meet [a.real - reach, a.real + reach], and one more
        # on either side; clipped as floats, so an infinite reach is fine
        edges = np.floor(np.array([a.real - reach, a.real + reach]) / width)
        near = tuple(int(e) for e in np.clip(edges + (-1, 2), 0, n_panels))
    gamma = -a.imag
    rows = 2 * PANEL_ORDER if gamma else PANEL_ORDER

    (coarse1, fine1), (coarse2, fine2) = (_phase_tables(s1, width, n_panels),
                                          _phase_tables(s2, width, n_panels))
    fine = np.stack([fine1, fine2], axis=1).view(float)    # (PHASE_FINE, 4)
    panels_per_chunk = CHUNK_NODES // PANEL_ORDER
    cols = np.empty(rows * panels_per_chunk)
    per_node = np.zeros((rows, 2), dtype=complex)    # the s1 and s2 sums
    total = 0.0 + 0.0j
    for start in range(0, n_panels, panels_per_chunk):
        count = min(panels_per_chunk, n_panels - start)
        blocks = -(-count // PHASE_FINE)
        first = start // PHASE_FINE
        chunk = cols[:rows * blocks * PHASE_FINE].reshape(rows, -1)
        left = np.arange(start, start + count) * width
        lo, hi = (min(max(edge - start, 0), count) for edge in near)
        if lo < hi:
            # per-node sum of phi times the trailing phase, with the
            # first-order expansion of phi at the nodes where |z t| < 1e-8
            q, j = np.divmod(np.arange(start + lo, start + hi), PHASE_FINE)
            z = (left[lo:hi] - a)[:, None] + off
            trailing = (coarse2[q] * fine2[j])[:, None] * trail
            zt = z * t
            vals = trailing * _rise(zt) / z
            small = np.abs(zt) < 1e-8
            vals[small] = 1j * t * (1.0 + 0.5j * zt[small]) * trailing[small]
            total += np.sum(vals)
        # the panels out of reach: the node columns times the fine phases
        # in one product, then the coarse phases
        u = chunk[:PANEL_ORDER, :count]
        np.add(off[:, None], left - a.real, out=u)
        u[:, lo:hi] = 1.0    # so no reciprocal is taken at the center
        if gamma:
            r = chunk[PANEL_ORDER:, :count]
            np.multiply(u, u, out=r)
            r += gamma * gamma
            np.reciprocal(r, out=r)
            u *= r
        else:
            np.reciprocal(u, out=u)
        chunk[:, lo:hi] = 0.0
        chunk[:, count:] = 0.0
        part = (chunk.reshape(-1, PHASE_FINE) @ fine).view(complex) \
            .reshape(rows, blocks, 2)
        per_node[:, 0] += part[:, :, 0] @ coarse1[first:first + blocks]
        per_node[:, 1] += part[:, :, 1] @ coarse2[first:first + blocks]
    if gamma:
        per_node = per_node[:PANEL_ORDER] - 1j * gamma * per_node[PANEL_ORDER:]
    return complex(total + lead @ per_node[:, 0] - trail @ per_node[:, 1])


def quad_kernel(s1: float, t: float, a: complex,
                params: ModelParams) -> complex:
    """Defining frequency integral of the master kernel, by brute force.

    Evaluates K(s1, t; a) = int_0^inf phi(omega - a, t) e^{i omega (s1 - t)}
    domega with phi(z, t) = (e^{izt} - 1)/z, for the same arguments as
    ``fields.closed_kernel``: the retarded coordinate s1, (x or x - d)/v_g
    forward and -(x or x - d)/v_g backward, the time t and the center a.
    Up to a hard cutoff W, CUTOFF_FACTOR times the largest frequency in
    the problem, the integral is the panel sum ``_panel_sum``,
    on panels at most 1/POINTS_PER_PERIOD of the fastest oscillation wide
    (and a quarter of the line width of a decaying center); beyond it
    1/(omega - a) is expanded in powers of a/omega, and the first
    TAIL_TERMS terms are added in closed form (``_tail_moments``), which
    leaves out about (|a|/W)^TAIL_TERMS of the tail.  Same integral, same
    nodes, none of the engine's E1 and no closed-form algebra, so it stays
    independent of the engine.

    Parameters
    ----------
    s1 : float
        Retarded coordinate in seconds, finite, nonzero and not equal to t.
    t : float
        Elapsed time in seconds, finite and > 0.
    a : complex
        Center of the kernel, finite: a collective pole, a drive carrier or
        Omega.
    params : ModelParams
        Only sets the cutoff, through Omega and the drive carrier.

    Returns
    -------
    complex
    """
    a = complex(a)
    if not all(map(cmath.isfinite, (s1, t, a))):
        raise ValueError("s1, t and a must be finite")
    if t <= 0:
        raise ValueError("t must be positive")
    s2 = s1 - t
    if s1 == 0 or s2 == 0:
        raise ValueError("kernel is singular where a shifted coordinate "
                         "or the light front vanishes exactly")

    cutoff = CUTOFF_FACTOR * max(params.omega_q, params.omega_s, abs(a))
    fastest = max(abs(s1), abs(s2), t)
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * fastest)
    line_width = -a.imag
    if line_width > 0:
        h = min(h, line_width / 4.0)
    n_panels = _panel_count(cutoff, h)
    total = _panel_sum(s1, t, a, cutoff / n_panels, n_panels)

    # Analytic tail: 1/(omega - a) = sum_k a^{k-1}/omega^k beyond the cutoff.
    powers = a ** np.arange(TAIL_TERMS)
    tail = np.exp(-1j * a * t) * (powers @ _tail_moments(s1, cutoff)) \
        - powers @ _tail_moments(s2, cutoff)
    return complex(total + tail)


def _quad_field(sign: float, x: float, t: float, rates: CollectiveRates,
                params: ModelParams) -> complex:
    """Scattered field at (x, t) from the kernels at s1 = sign*(x or x-d)/v_g.

    ``sign`` is 1 for the forward field and -1 for the backward one; the
    centers are the two collective poles and the drive carrier.  ``rates``
    must be ``collective_rates(params)``.
    """
    if rates != collective_rates(params):
        raise ValueError("rates do not match params: pass "
                         "collective_rates(params)")
    centers = (params.omega_q - 1j * rates.gamma_plus,
               params.omega_q - 1j * rates.gamma_minus, params.omega_s)
    kp1, kp2, km1, km2, ks1, ks2 = (
        quad_kernel(sign * shift / params.v_g, t, a, params)
        for a in centers for shift in (x, x - params.distance))
    c_plus, c_minus = map(complex, coupling_weights(params, params.omega_s))
    return -0.5 * params.coupling * (c_plus * (kp1 + kp2 - ks1 - ks2)
                                     + c_minus * (km1 - km2 - ks1 + ks2))


def quad_field_forward(x: float, t: float, rates: CollectiveRates,
                       params: ModelParams) -> complex:
    """Scattered forward field at (x, t) assembled from quadrature kernels."""
    return _quad_field(1, x, t, rates, params)


def quad_field_backward(x: float, t: float, rates: CollectiveRates,
                        params: ModelParams) -> complex:
    """Scattered backward field at (x, t) assembled from quadrature kernels."""
    return _quad_field(-1, x, t, rates, params)


# ---------------------------------------------------------------------------
# driven two-qubit ODE oracle (delta-pulse drive, retardation dropped)

# The trajectory is sampled at ODE_SAMPLES equal steps after t = 0.
ODE_SAMPLES = 80


def _expm(m: np.ndarray) -> np.ndarray:
    """e^m by a Taylor series of m/2^s, squared s times.

    s is the least power that brings the infinity norm of m/2^s to at
    most 1/2, where 24 terms leave out less than 0.5^25/25! of the
    series.  No eigendecomposition, so a nearly defective m is fine.
    """
    s = max(int(np.frexp(2.0 * np.max(np.sum(np.abs(m), axis=1)))[1]), 0)
    x = m * 2.0 ** -s
    term = total = np.eye(len(m), dtype=complex)
    for k in range(1, 25):
        term = term @ x / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def _driven_pair(params: ModelParams) -> np.ndarray:
    """B of the driven pair w = (beta_1, beta_2, e^{-i Delta t}), w' = B w.

    -Gamma/2 on the qubits' diagonal, -(Gamma/2) e^{i k_Omega d} off it,
    the drive column -i g A (1, e^{i k_omega_s d}) and -i Delta for the
    drive itself, all from the raw propagation phases (no regime snapping).
    """
    half = 0.5 * params.gamma
    cross = -half * np.exp(1j * params.qubit_phase)    # raw e^{i k_Omega d}
    amp = -1j * params.coupling * params.amplitude
    return np.array([
        [-half, cross, amp],
        [cross, -half, amp * np.exp(1j * params.drive_phase)],
        [0.0, 0.0, -1j * (params.omega_s - params.omega_q)]])


def markov_ode(params: ModelParams, t_final: float) -> QubitState:
    """Exact solution of the driven dissipative two-qubit system.

    Uses the raw propagation phases and the analytic delta-pulse drive, so
    it shares no algebra with the closed qubit amplitudes it is used to
    check.  With the drive e^{-i Delta t} carried as a third component,
    w = (beta_1, beta_2, e^{-i Delta t}) obeys the constant-coefficient
    system w' = B w (``_driven_pair``).  So w(t) = e^{Bt} w(0) with
    w(0) = (0, 0, 1), and one step propagator
    E = e^{B t_final/ODE_SAMPLES} (``_expm``) gives the samples E^k w(0),
    k = 0 ... ODE_SAMPLES.

    Parameters
    ----------
    params : ModelParams
    t_final : float
        End time in seconds, finite and > 0.

    Returns
    -------
    QubitState
    """
    if not (cmath.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    h = t_final / ODE_SAMPLES
    step = _expm(_driven_pair(params) * h)
    w = np.empty((ODE_SAMPLES + 1, 3), dtype=complex)
    w[0] = (0.0, 0.0, 1.0)
    for k in range(ODE_SAMPLES):
        w[k + 1] = step @ w[k]
    return QubitState(t=np.arange(ODE_SAMPLES + 1) * h,
                      beta_1=w[:, 0], beta_2=w[:, 1])


# ---------------------------------------------------------------------------
# spectral-amplitude oracle: the Markov system with the modes carried along

def quad_spectral(omega: float, t: float, params: ModelParams):
    """Scattered (forward, backward) mode amplitudes, solved exactly.

    The mode amplitudes integrate the qubit amplitudes:
    forward' = -ig (beta_1 + e^{-i k_omega d} beta_2) e^{i nu t} and
    backward' the same with e^{+i k_omega d}, nu = omega - Omega.  Carried
    along with the driven pair (``_driven_pair``),
    w = (beta_1 e^{i nu t}, beta_2 e^{i nu t}, e^{i (omega - omega_s) t},
    forward, backward) obeys w' = M w with constant M: the pair's B
    shifted by i nu on its diagonal, which turns the drive's -i Delta into
    i (omega - omega_s), and the two mode rows.  So
    w(t) = e^{Mt} w(0) with w(0) = (0, 0, 1, 0, 0), one ``_expm`` with
    raw propagation phases (no regime snapping), which checks every step
    of the spectral algebra.  omega must be finite and > 0, t finite, >= 0.
    """
    if not (cmath.isfinite(omega) and cmath.isfinite(t)):
        raise ValueError("omega and t must be finite")
    if not omega > 0:
        raise ValueError("omega must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    nu = omega - params.omega_q
    emit = -1j * params.coupling
    kd = omega * params.distance / params.v_g
    m = np.zeros((5, 5), dtype=complex)
    m[:3, :3] = _driven_pair(params) + 1j * nu * np.eye(3)
    m[3, :2] = emit, emit * np.exp(-1j * kd)
    m[4, :2] = emit, emit * np.exp(1j * kd)
    w = _expm(m * t)[:, 2]
    return w[3], w[4]


# ---------------------------------------------------------------------------
# full qubits+continuum evolution on a frequency comb

@dataclass(frozen=True)
class ContinuumGrid:
    """Discretized frequency continuum with trapezoid weights."""

    omega: np.ndarray
    weights: np.ndarray


# The comb spans at least COMB_SPAN * Omega, widened if needed to cover the
# incident Gaussian out to COMB_PULSE_WIDTHS widths on either side.
COMB_SPAN = (0.5, 1.5)
COMB_PULSE_WIDTHS = 8.0


def make_continuum_grid(params: ModelParams, n_modes: int = 4096) -> ContinuumGrid:
    """Uniform frequency comb covering the qubit line and the pulse."""
    if n_modes < 2:
        raise ValueError(f"n_modes must be at least 2, got {n_modes}")
    lo = COMB_SPAN[0] * params.omega_q
    hi = COMB_SPAN[1] * params.omega_q
    if params.pulse_width is not None:
        lo = min(lo, params.omega_s - COMB_PULSE_WIDTHS * params.pulse_width)
        hi = max(hi, params.omega_s + COMB_PULSE_WIDTHS * params.pulse_width)
    if lo <= 0:
        raise ValueError("continuum grid would reach non-positive frequencies")
    omega = np.linspace(lo, hi, n_modes)
    weights = np.full(n_modes, omega[1] - omega[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ContinuumGrid(omega=omega, weights=weights)


@dataclass
class ContinuumResult:
    """Trajectory of the discretized qubits+field system."""

    t: np.ndarray
    beta_1: np.ndarray
    beta_2: np.ndarray
    norm: np.ndarray
    grid: ContinuumGrid
    gamma_final: np.ndarray = field(repr=False)
    delta_final: np.ndarray = field(repr=False)

    @property
    def transmitted_flux(self) -> float:
        """Final forward-continuum population sum(w |gamma|^2)."""
        return float(np.sum(self.grid.weights * np.abs(self.gamma_final) ** 2))

    @property
    def reflected_flux(self) -> float:
        """Final backward-continuum population sum(w |delta|^2)."""
        return float(np.sum(self.grid.weights * np.abs(self.delta_final) ** 2))


def gaussian_spectrum(params: ModelParams, omega):
    """Initial forward spectrum (2/(pi Delta^2))^{1/4} e^{-(w-w_s)^2/Delta^2}."""
    if params.pulse_width is None:
        raise ValueError("params.pulse_width must be set for a Gaussian drive")
    delta = params.pulse_width
    return (2.0 / (np.pi * delta ** 2)) ** 0.25 \
        * np.exp(-((np.asarray(omega) - params.omega_s) / delta) ** 2)


# Samples at CONTINUUM_SAMPLES equal intervals; each restarts the series,
# and at 80 the norm's rounding drift is 6x that at 20 (7e-14 vs 1.2e-14).
CONTINUUM_SAMPLES = 20


def continuum_evolve(params: ModelParams, t_final: float,
                     n_modes: int = 4096,
                     launch_delay: float = 0.0) -> ContinuumResult:
    """Exact evolution of the full single-excitation Schroedinger equation.

    The state is (beta_1, beta_2, gamma_k, delta_k) on a frequency comb,
    whose weights enter both the norm and the qubit equations, so the
    discrete norm is conserved exactly and any drift in it is rounding.
    In the frame rotating at Omega, with the field amplitudes taken as
    psi_k = sqrt(w_k) gamma_k e^{-i (omega_k - Omega) t} (delta alike),
    the system is i psi' = H psi with H Hermitian: the diagonal
    (0, 0, omega - Omega, omega - Omega) and two rank-one qubit rows,
    g sqrt(w) (1, 1) and g sqrt(w) (e^{ikd}, e^{-ikd}) over (gamma, delta),
    with their conjugate columns, so H psi costs O(N).  Each of the
    CONTINUUM_SAMPLES equal intervals dt applies e^{-iH dt} as the
    Chebyshev series of Tal-Ezer and Kosloff (J. Chem. Phys. 81, 3967
    (1984)), e^{-ic dt} sum_k (2 - delta_k0) (-i)^k J_k(rho dt)
    T_k((H - c)/rho), with c and rho the centre and half-width of the
    diagonal's range widened by 2 g sqrt(sum w), the Frobenius norm of the
    coupling block, which bounds its spectral norm, so that the spectrum
    of H lies inside.  Past k = rho dt, J_k only falls, and the series
    stops at the first such k where it is below the float64 epsilon, the
    rounding of a unit-norm state: no step and no tolerance is set.

    Parameters
    ----------
    params : ModelParams
        ``pulse_width`` must be set; the initial forward spectrum is the
        corresponding unit-norm Gaussian.
    t_final : float
        End time in seconds, finite and > 0.
    n_modes : int
        Size of the ``make_continuum_grid`` comb, >= 2.
    launch_delay : float
        Finite time at which the packet centre crosses the first qubit.
        Zero starts the packet on top of the qubit (the sudden-switch-on
        drive of the closed-form amplitudes); a delay of several inverse
        pulse widths prepares a clean incoming scattering state instead.

    Returns
    -------
    ContinuumResult
        Sampled at t_final k/CONTINUUM_SAMPLES, k = 0 ... CONTINUUM_SAMPLES.
    """
    if not (cmath.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if not cmath.isfinite(launch_delay):
        raise ValueError("launch_delay must be finite")
    grid = make_continuum_grid(params, n_modes=n_modes)
    omega, w = grid.omega, grid.weights
    rot = omega - params.omega_q

    gamma0 = gaussian_spectrum(params, omega) \
        * np.exp(1j * omega * launch_delay)
    norm0 = np.sum(w * np.abs(gamma0) ** 2)
    if not abs(norm0 - 1.0) <= 1e-6:
        raise ValueError(
            f"discretized initial spectrum has norm {norm0:.8f}; "
            "refine the continuum grid"
        )

    # (H - c)/rho on psi = (beta_1, beta_2, gamma modes, delta modes)
    diagonal = np.concatenate([[0.0, 0.0], rot, rot])
    coupling = params.coupling * np.sqrt(w)
    fwd_phase = np.exp(1j * omega * params.distance / params.v_g)
    rows = np.array([np.concatenate([coupling, coupling]),
                     np.concatenate([coupling * fwd_phase,
                                     coupling * np.conj(fwd_phase)])])
    centre = 0.5 * (diagonal.max() + diagonal.min())
    rho = 0.5 * np.ptp(diagonal) + 2.0 * params.coupling * np.sqrt(np.sum(w))
    diagonal = (diagonal - centre) / rho
    rows /= rho
    columns = rows.conj()

    def scaled(psi):
        out = diagonal * psi
        out[:2] += np.sum(rows * psi[2:], axis=1)
        out[2:] += psi[0] * columns[0] + psi[1] * columns[1]
        return out

    dt = t_final / CONTINUUM_SAMPLES
    x = rho * dt
    order = int(x) + 2    # J_k(x) falls with k past x
    while special.jv(order, x) >= np.finfo(float).eps:
        order += 1
    k = np.arange(order)
    coef = np.where(k, 2.0, 1.0) * (-1j) ** (k % 4) * special.jv(k, x) \
        * np.exp(-1j * centre * dt)

    psi = np.concatenate([np.zeros(2), np.sqrt(w) * gamma0,
                          np.zeros(n_modes)])
    samples = [(psi[0], psi[1], np.sum(np.abs(psi) ** 2))]
    for _ in range(CONTINUUM_SAMPLES):
        prev, cur = psi, scaled(psi)    # T_0 and T_1 times psi
        psi = coef[0] * prev + coef[1] * cur
        for c in coef[2:]:
            prev, cur = cur, 2.0 * scaled(cur) - prev
            psi += c * cur
        samples.append((psi[0], psi[1], np.sum(np.abs(psi) ** 2)))
    beta_1, beta_2, norm = map(np.array, zip(*samples))
    t = np.arange(CONTINUUM_SAMPLES + 1) * dt
    back = np.exp(1j * rot * t[-1]) / np.sqrt(w)
    return ContinuumResult(t=t, beta_1=beta_1, beta_2=beta_2, norm=norm,
                           grid=grid, gamma_final=psi[2:n_modes + 2] * back,
                           delta_final=psi[n_modes + 2:] * back)
