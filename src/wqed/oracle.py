"""Brute-force reference evaluations for validating the closed forms.

Nothing in here reuses the engine's special functions or kernel algebra:
the defining frequency integrals are done by composite Gauss-Legendre
panels, one panel sum for both the master kernel and the qubit memory
kernel, whose integrand is the kernel's at center Omega up to a constant
factor.  The master kernel's panels stop at 5 times the largest
frequency, and beyond that 12 terms of 1/(omega - a) in powers of
a/omega are added in closed form, their moments from scipy's sine/cosine
integrals (an implementation independent of the hand-built ones) and a
recurrence, or from Gauss-Laguerre on a turned path.  The driven two-qubit
system is integrated in time by a plain RK4 on complex scalars, and the
full qubit+continuum Schroedinger equation is evolved on a discretized
frequency comb.  Each keeps its plain discretization (panels and nodes,
RK4 step, comb); only the order of its arithmetic is regrouped for speed:
the quadrature takes one real matrix product per chunk of panels, of the
real and imaginary parts of 1/(omega - a) at every node with a fine table
of panel phases, then one product with a coarse table, both tabulated
once per call so that no panel phase is written out, keeping the
per-node sum for the few panels near the kernel center, the Markov RK4
applies its step as one affine map, and the continuum RK4 reads its stage
overlaps from comb sums.  Every closed form in the package is required to
agree with these to stated tolerances.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .amplitudes import QubitState, qubit_amplitudes
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
    zeroed, and take no reciprocal.  s1 may be zero here; ``a`` is a
    complex center.
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


def quad_kernel(s1: float, t: float, a: complex, params: ModelParams,
                cutoff_factor: float = CUTOFF_FACTOR) -> complex:
    """Defining frequency integral of the master kernel, by brute force.

    Evaluates K(s1, t; a) = int_0^inf phi(omega - a, t) e^{i omega (s1 - t)}
    domega with phi(z, t) = (e^{izt} - 1)/z, for the same arguments as
    ``fields.closed_kernel``: the retarded coordinate s1, (x or x - d)/v_g
    forward and -(x or x - d)/v_g backward, the time t and the center a.
    Up to a hard cutoff W, by default CUTOFF_FACTOR times the largest
    frequency in the problem, the integral is the panel sum ``_panel_sum``,
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
    cutoff_factor : float
        Hard frequency cutoff as a multiple of the largest frequency in the
        problem, finite and > 1, so that the tail's series in a/omega
        converges.

    Returns
    -------
    complex
    """
    a = complex(a)
    if not all(map(cmath.isfinite, (s1, t, a))):
        raise ValueError("s1, t and a must be finite")
    if not (cmath.isfinite(cutoff_factor) and cutoff_factor > 1):
        raise ValueError("cutoff_factor must be finite and above 1")
    if t <= 0:
        raise ValueError("t must be positive")
    s2 = s1 - t
    if s1 == 0 or s2 == 0:
        raise ValueError("kernel is singular where a shifted coordinate "
                         "or the light front vanishes exactly")

    cutoff = cutoff_factor * max(params.omega_q, params.omega_s, abs(a))
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

def markov_ode(params: ModelParams, t_final: float, n_steps: int | None = None,
               keep_every: int = 1) -> QubitState:
    """RK4 integration of the driven dissipative two-qubit system.

    Uses the raw propagation phases (no regime snapping) and the analytic
    delta-pulse drive, so it shares no algebra with the closed qubit
    amplitudes it is used to check.  The system is linear and its drive
    is proportional to e^{-i Delta t}, so one RK4 step is affine:
    y_{n+1} = A y_n + e^{-i Delta t_n} c.  The columns of A are the RK4
    step with the drive off from the unit states, and c is the step from
    rest at t = 0; the loop then applies that map, and every 64th step is
    checked by step doubling with the RK4 stages themselves.

    Parameters
    ----------
    params : ModelParams
    t_final : float
        End time in seconds, finite and > 0.
    n_steps : int, optional
        Fixed RK4 step count, >= 1; defaults to resolving both the decay
        rate and the drive detuning with step 0.005 of the fastest scale.
    keep_every : int
        Store every that-many-th step (plus both endpoints), >= 1.

    Returns
    -------
    QubitState
    """
    if not (cmath.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if n_steps is not None and n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if keep_every < 1:
        raise ValueError(f"keep_every must be at least 1, got {keep_every}")
    gamma, g = params.gamma, params.coupling
    detuning = params.omega_s - params.omega_q
    if n_steps is None:
        fastest = max(gamma, abs(detuning), 1.0 / t_final)
        n_steps = int(np.ceil(t_final * fastest / 0.005))
    dt = t_final / n_steps

    phase_q = complex(np.exp(1j * params.qubit_phase))   # e^{i k_Omega d}, raw
    phase_s = complex(np.exp(1j * params.drive_phase))   # e^{i k_omega_s d}, raw
    amp = -1j * g * params.amplitude

    def rhs(t, b1, b2, amp):
        drive = amp * cmath.exp(-1j * detuning * t)
        return (drive - 0.5 * gamma * b1 - 0.5 * gamma * phase_q * b2,
                drive * phase_s - 0.5 * gamma * b2 - 0.5 * gamma * phase_q * b1)

    def rk4(t, b1, b2, h, amp):
        k1 = rhs(t, b1, b2, amp)
        k2 = rhs(t + 0.5 * h, b1 + 0.5 * h * k1[0], b2 + 0.5 * h * k1[1], amp)
        k3 = rhs(t + 0.5 * h, b1 + 0.5 * h * k2[0], b2 + 0.5 * h * k2[1], amp)
        k4 = rhs(t + h, b1 + h * k3[0], b2 + h * k3[1], amp)
        return (b1 + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                b2 + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]))

    # the affine step map: columns of A from the unit states without
    # drive, c from rest at t = 0 with it
    a11, a21 = rk4(0.0, 1.0, 0.0, dt, 0.0)
    a12, a22 = rk4(0.0, 0.0, 1.0, dt, 0.0)
    c1, c2 = rk4(0.0, 0.0, 0.0, dt, amp)

    b1 = b2 = 0j
    times, saved = [0.0], [(b1, b2)]
    t = 0.0
    scale = abs(amp) / max(0.5 * gamma, abs(detuning), 1.0 / t_final)
    for step in range(1, n_steps + 1):
        drive = cmath.exp(-1j * detuning * t)
        n1 = a11 * b1 + a12 * b2 + drive * c1
        n2 = a21 * b1 + a22 * b2 + drive * c2
        if step % 64 == 1:
            # step-doubling local error estimate on this step
            half = 0.5 * dt
            f1, f2 = rk4(t + half, *rk4(t, b1, b2, half, amp), half, amp)
            err = max(abs(f1 - n1), abs(f2 - n2))
            if err > 1e-9 * max(scale, 1e-300):
                raise RuntimeError(
                    f"RK4 local error {err:.3g} above budget at t={t:.3g}; "
                    "increase n_steps"
                )
        b1, b2 = n1, n2
        t = step * dt
        if step % keep_every == 0 or step == n_steps:
            times.append(t)
            saved.append((b1, b2))
    saved = np.array(saved)
    return QubitState(t=np.array(times), beta_1=saved[:, 0], beta_2=saved[:, 1])


# ---------------------------------------------------------------------------
# spectral-amplitude oracle: straight time quadrature of the formal solution

def quad_spectral(omega: float, t: float, params: ModelParams):
    """Scattered (forward, backward) mode amplitudes by time quadrature.

    Integrates the closed qubit amplitudes against e^{i(omega-Omega)t'}
    with adaptive quadrature, which checks every step of the spectral
    algebra downstream of the qubit dynamics.  omega must be finite and
    > 0, t finite.
    """
    from scipy.integrate import quad as _quad

    if not (cmath.isfinite(omega) and cmath.isfinite(t)):
        raise ValueError("omega and t must be finite")
    if not omega > 0:
        raise ValueError("omega must be positive")

    g = params.coupling
    kd = omega * params.distance / params.v_g
    rot = omega - params.omega_q

    def integrand(tp, which):
        st = qubit_amplitudes(params, np.array([tp]))
        return (st.beta_1, st.beta_2)[which][0] * np.exp(1j * rot * tp)

    int_b1, int_b2 = (_quad(integrand, 0.0, t, args=(which,), limit=400,
                            complex_func=True)[0] for which in (0, 1))
    forward = -1j * g * (int_b1 + np.exp(-1j * kd) * int_b2)
    backward = -1j * g * (int_b1 + np.exp(+1j * kd) * int_b2)
    return forward, backward


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


# The RK4 step is CONTINUUM_STEP over the largest rotating-frame frequency
# on the comb, and every CONTINUUM_KEEP_EVERY-th step is kept.
CONTINUUM_STEP = 0.02
CONTINUUM_KEEP_EVERY = 200


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


def continuum_evolve(params: ModelParams, t_final: float,
                     n_modes: int = 4096,
                     launch_delay: float = 0.0) -> ContinuumResult:
    """RK4 evolution of the full single-excitation Schroedinger equation.

    The state is (beta_1, beta_2, gamma_k, delta_k) on a frequency comb;
    the continuous-time system conserves the discrete norm exactly (the
    comb weights enter both the norm and the qubit equations), so any norm
    drift in the result measures pure integrator truncation.

    Each classical RK4 step is regrouped, not changed.  A stage's field
    slopes are a qubit-state combination times conj R(t_s), with
    R(t) = e^{-i (omega - Omega) t}, so their overlaps with the next
    stage's R are comb sums fixed at the start, at stage gaps 0 and dt/2.
    What is left per step is six dots of the step-start fields with R at
    t, t + dt/2 and t + dt, and one update of the fields.  R advances by
    multiplication and is refreshed by an exact exponential every 64 steps.

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
    """
    if not (cmath.isfinite(t_final) and t_final > 0):
        raise ValueError("t_final must be positive and finite")
    if not cmath.isfinite(launch_delay):
        raise ValueError("launch_delay must be finite")
    grid = make_continuum_grid(params, n_modes=n_modes)
    omega, w = grid.omega, grid.weights
    g = params.coupling
    rot = omega - params.omega_q
    dt = CONTINUUM_STEP / np.max(np.abs(rot))
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps

    gamma0 = gaussian_spectrum(params, omega).astype(np.complex128)
    if launch_delay:
        gamma0 *= np.exp(1j * omega * launch_delay)
    norm0 = np.sum(w * np.abs(gamma0) ** 2)
    if not abs(norm0 - 1.0) <= 1e-6:
        raise ValueError(
            f"discretized initial spectrum has norm {norm0:.8f}; "
            "refine the continuum grid"
        )

    kd = omega * params.distance / params.v_g
    fwd_phase = np.exp(1j * kd)      # e^{+i k d}
    bwd_phase = np.conj(fwd_phase)

    # The field slopes of the stage at t_s with qubit state B are
    # -ig (B_1 + B_2 Q) conj R(t_s) for gamma (P for delta), with
    # R(t) = e^{-i rot t}, P = e^{ikd} and Q = conj P.  The qubit slope they
    # add at a time tau later is M(tau) B, M = -g^2 [[2S, C], [C, 2S]], from
    # the comb sums S = sum w e^{-i rot tau} and
    # C = sum w (P + Q) e^{-i rot tau}; each later stage sits dt/2 or 0
    # after the stage before it.
    shifts = np.exp(-1j * np.outer([0.0, 0.5 * dt, dt], rot))   # R(t+tau)/R(t)
    back_shifts = np.conj(shifts)

    def stage_overlap(shift):
        comb = w * shift
        s, c = np.sum(comb), np.sum(comb * (fwd_phase + bwd_phase))
        return -g * g * np.array([[2.0 * s, c], [c, 2.0 * s]])

    m_half, m_same = stage_overlap(shifts[1]), stage_overlap(shifts[0])

    beta = np.zeros(2, dtype=np.complex128)
    gam = gamma0.copy()
    delt = np.zeros_like(gam)

    def norm_of(b, gm, dl):
        return float(np.abs(b[0]) ** 2 + np.abs(b[1]) ** 2
                     + np.sum(w * (np.abs(gm) ** 2 + np.abs(dl) ** 2)))

    times = [0.0]
    b1s, b2s = [beta[0]], [beta[1]]
    norms = [norm_of(beta, gam, delt)]
    t = 0.0
    for step in range(1, n_steps + 1):
        if step % 64 == 1:
            rotator = np.exp(-1j * rot * t)    # exact refresh of R(t)
        # the step-start fields' overlaps with R at t, t + dt/2 and t + dt
        weighted = w * rotator
        d = -1j * g * np.stack([
            shifts @ (weighted * (gam + delt)),
            shifts @ (weighted * (gam * fwd_phase + delt * bwd_phase))])
        kb1 = d[:, 0]
        b2 = beta + 0.5 * dt * kb1
        kb2 = d[:, 1] + 0.5 * dt * (m_half @ beta)
        b3 = beta + 0.5 * dt * kb2
        kb3 = d[:, 1] + 0.5 * dt * (m_same @ b2)
        b4 = beta + dt * kb3
        kb4 = d[:, 2] + dt * (m_half @ b3)
        # the four stage slopes of the fields, on conj R at t, t + dt/2, t + dt
        coef = (-1j * g * dt / 6.0) * np.stack([beta, 2.0 * (b2 + b3), b4],
                                                axis=1)
        back = np.conj(rotator)
        plain = back * (coef[0] @ back_shifts)
        shifted = back * (coef[1] @ back_shifts)
        gam = gam + plain + shifted * bwd_phase
        delt = delt + plain + shifted * fwd_phase
        beta = beta + dt / 6.0 * (kb1 + 2 * kb2 + 2 * kb3 + kb4)
        rotator = rotator * shifts[2]
        t = step * dt
        if step % CONTINUUM_KEEP_EVERY == 0 or step == n_steps:
            times.append(t)
            b1s.append(beta[0])
            b2s.append(beta[1])
            norms.append(norm_of(beta, gam, delt))
    return ContinuumResult(t=np.array(times), beta_1=np.array(b1s),
                           beta_2=np.array(b2s), norm=np.array(norms),
                           grid=grid, gamma_final=gam, delta_final=delt)


# ---------------------------------------------------------------------------
# memory-kernel check behind the Markov reduction

# Hard frequency cutoff of the memory-kernel integrals, in units of Omega;
# the panels follow the kernel quadrature's POINTS_PER_PERIOD and
# PANEL_ORDER.
MEMORY_CUTOFF_FACTOR = 20.0


def memory_kernel_coefficients(t: float, params: ModelParams):
    """Numeric damping coefficients of the exact qubit memory kernel.

    Returns (self_coef, cross_coef): twice the frequency integrals of
    g^2 I(omega, t) and g^2 cos(k_omega d) I(omega, t) up to 20 Omega, with
    I = int_0^t e^{-i(omega-Omega)tau} dtau.  As t grows these approach
    Gamma/2 (real part; the imaginary part is the cutoff-dependent line
    shift absorbed into Omega) and (Gamma/2) e^{i k_Omega d}.

    I is the kernel integrand at center Omega times -i e^{i Omega t}:
    I(omega, t) e^{i omega s1} = -i e^{i Omega t} phi(omega - Omega, t)
    e^{i omega (s1 - t)}.  So with S(s1) the ``_panel_sum`` of the kernel
    integrand at center Omega, self = -2i g^2 e^{i Omega t} S(0) and, as
    cos(k_omega d) is the mean of e^{+-i omega d/v_g}, cross is the same
    factor times the mean of S(d/v_g) and S(-d/v_g).  Like ``quad_kernel``
    it refuses a non-finite or non-positive t, and more than MAX_NODES
    nodes before any table is built.
    """
    if not cmath.isfinite(t):
        raise ValueError("t must be finite")
    if t <= 0:
        raise ValueError("t must be positive")
    cutoff = MEMORY_CUTOFF_FACTOR * params.omega_q
    delay = params.distance / params.v_g
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * max(t, delay))
    n_panels = _panel_count(cutoff, h)
    width = cutoff / n_panels
    a = complex(params.omega_q)
    factor = -2j * params.coupling ** 2 * np.exp(1j * params.omega_q * t)
    self_sum = _panel_sum(0.0, t, a, width, n_panels)
    cross_sum = 0.5 * (_panel_sum(delay, t, a, width, n_panels)
                       + _panel_sum(-delay, t, a, width, n_panels))
    return factor * self_sum, factor * cross_sum


def half_line_limits(params: ModelParams):
    """Late-time limits (self, cross) of ``memory_kernel_coefficients``.

    The self coefficient's real part settles on Gamma/2.  The cross
    coefficient settles on its positive-frequency (half-line) value
    2 g^2 (pi cos kd + i (cos kd Ci(kd) + sin kd (Si(kd) + pi/2))) at
    kd = k_Omega d, which keeps the principal-value part the Markov
    coupling (Gamma/2) e^{i k_Omega d} drops.
    """
    g2 = params.coupling ** 2
    kd = params.qubit_phase
    si_v, ci_v = special.sici(kd)
    cross = 2.0 * g2 * (np.pi * np.cos(kd)
                        + 1j * (np.cos(kd) * ci_v
                                + np.sin(kd) * (si_v + np.pi / 2)))
    return 0.5 * params.gamma, cross
