"""Spatio-temporal photon field scattered by the qubit pair.

The right- and left-moving field envelopes are frequency integrals of the
scattered mode amplitudes.  Every one of those integrals collapses onto a
single master kernel

    K(s1, t; a) = int_0^inf (e^{i(w-a)t} - 1)/(w - a) * e^{i w (s1 - t)} dw
                = e^{i a s2} [E1(i a s1) - E1(i a s2) + 2 pi i * 1(s1 > 0)],

with s2 = s1 - t, evaluated at s1 = +-(shifted coordinate)/v_g and at a
center ``a`` that is either a complex collective pole, the drive carrier,
or the bare qubit frequency.  This module evaluates that kernel (through
the scaled E1, so the decaying channels neither under- nor overflow) and
its t -> inf limit: a decaying pole leaves nothing, a real center (the
drive carrier, or the bare Omega of a channel that is dark in a pinned
regime) leaves a plane wave.  One channel sum turns either of the two into
the scattered field, so the transient and the steady field are assembled
the same way.  ``drive_sweep`` assembles the field on a grid for a whole
sweep of drive carriers in one call, and every slice carries the
right-moving envelope u, the left-moving v and their sum w.  The module
also provides the scattering spectra and closed-form resonance peak
heights.

The first E1 argument above, i*a*s1, follows from closing the frequency
contour.  An alternative reading with the argument a*s1 circulates; the
test suite keeps it as a helper and scores both writings against the
quadrature oracle, which only this one passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import (CollectiveRates, ModelParams, Regime, classify_regime,
                    coupling_weights, snapped_phase_factor)
from .specfun import cosine_integral, e1_scaled, si_lower

TWO_PI_I = 2j * np.pi

# Steady-state acceptance gates: transients must have decayed to this level
# and the algebraic 1/t tails must be below this before "auto" picks the
# steady branch.
_STEADY_DECAY_GATE = 1e-8
_STEADY_TAIL_GATE = 1e-6

# Closest approach to a qubit allowed on observation grids, as a fraction
# of the separation d; any nearer, the point-qubit cosine-integral
# divergence dominates and the field value is an artifact.
EXCLUSION_FRACTION = 0.05

# ---------------------------------------------------------------------------
# the master kernel

def _wave_kernel(s1, t, a):
    """Master kernel over the broadcast of s1, t and the center ``a``.

    s1 is the retarded coordinate and t the elapsed time.  ``a`` is one
    complex center or an array of them, such as a drive axis of carriers
    shaped to broadcast against a [time, position] grid; their imaginary
    parts must be <= 0 (decaying channels), which is what the closing of
    the contour assumed.  The launch term e^{-iat} E1s(i a s1) is a product
    of two factors that are evaluated on the broadcast of ``a`` with t and
    with s1 alone: on such a grid once per time and once per position, not
    once per point.
    """
    s1 = np.asarray(s1, dtype=float)
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=complex)
    s2 = s1 - t
    if np.any(s1 == 0) or np.any(s2 == 0):
        raise ValueError(
            "kernel singularity: a shifted coordinate or the light front "
            "passes exactly through a grid point"
        )
    launch = np.exp(-1j * a * t) * e1_scaled(1j * a * s1)
    front = -e1_scaled(1j * a * s2)
    # Winding bookkeeping of the two contour closings; in the physical
    # region s2 < 0 this reduces to +2*pi*i for s1 > 0 and nothing else.
    circ = TWO_PI_I * np.exp(1j * a * s2) \
        * ((s2 < 0).astype(float) - (s1 < 0).astype(float))
    out = launch + front + circ
    return out if np.ndim(out) else complex(out)


def closed_kernel(kernel_id: str, x_shift, t, rates: CollectiveRates,
                  params: ModelParams):
    """Master kernel by id, the closed form of ``oracle.quad_kernel``.

    ``kernel_id`` is "fwd" (s1 = x_shift/v_g) or "bwd" (s1 = -x_shift/v_g),
    an underscore, and the center: "decay_plus"/"decay_minus" for the
    collective poles Omega - i*gamma_+-, "drive" for omega_s, "resonant"
    for the bare Omega; any other id raises ValueError.  ``x_shift`` (x or
    x - d, meters) and ``t`` (seconds) broadcast against each other.
    """
    centers = {"decay_plus": params.omega_q - 1j * rates.gamma_plus,
               "decay_minus": params.omega_q - 1j * rates.gamma_minus,
               "drive": params.omega_s, "resonant": params.omega_q}
    direction, _, center = str(kernel_id).partition("_")
    if direction not in ("fwd", "bwd") or center not in centers:
        raise ValueError(f"unknown kernel id {kernel_id!r}")
    sign = 1.0 if direction == "fwd" else -1.0
    return _wave_kernel(sign * np.asarray(x_shift) / params.v_g, t,
                        centers[center])


def _kernel_limit(s1, t, a):
    """What ``_wave_kernel`` leaves once its transients have died out.

    A decaying center (Im a < 0) leaves nothing.  A real center, such as a
    drive carrier or the bare Omega of a dark channel, leaves the plane
    e^{i a (s1 - t)} M(a s1), where M(w) = 2 pi i - ci(w) + i si(w) on the
    outgoing side (w > 0) and -(ci(|w|) + i si(|w|)) on the other.  ``a``
    is one center or an array of them that are all decaying or all real,
    and broadcasts against s1 and t as in ``_wave_kernel``.
    """
    a = np.asarray(a, dtype=complex)
    if np.all(a.imag < 0):
        return 0.0
    a = a.real
    s1 = np.asarray(s1, dtype=float)
    t = np.asarray(t, dtype=float)
    w = a * s1
    if np.any(w == 0):
        raise ValueError("kernel singularity at a qubit position")
    mag = np.abs(w)
    ci = cosine_integral(mag)
    si = si_lower(mag)
    m = np.where(w > 0, TWO_PI_I - ci + 1j * si, -(ci + 1j * si))
    return np.exp(1j * a * (s1 - t)) * m


def _wave_kernel_trig(s1, t, omega):
    """Second writing of the real-center kernel, via sine/cosine integrals.

    Mathematically identical to ``_wave_kernel`` at a real center: the
    steady limit ``_kernel_limit`` plus the front term, which decays as the
    light front recedes.  ci and si are read from the same E1 as the
    kernel's, at the absolute values of its arguments, so the agreement
    between the two checks the algebra of the steady limit and the front
    term; the special functions themselves are pinned against mpmath.
    """
    s1, t = np.broadcast_arrays(np.asarray(s1, dtype=float),
                                np.asarray(t, dtype=float))
    s2 = s1 - t
    if np.any(s2 >= 0):
        raise ValueError("trig writing implemented for the causal region s1 < t")
    w2 = omega * np.abs(s2)
    front = np.exp(1j * omega * s2) * (cosine_integral(w2) + 1j * si_lower(w2))
    return _kernel_limit(s1, t, omega) + front


# ---------------------------------------------------------------------------
# space-time grids and field slices

class Region(str, enum.Enum):
    """Which side of the qubit pair the observation points sit on."""

    BEFORE = "Before"      # x < 0
    BETWEEN = "Between"    # 0 < x < d
    BEHIND = "Behind"      # x > d

    def __str__(self):
        return self.value


class FieldBranch(str, enum.Enum):
    TRANSIENT = "transient"
    STEADY = "steady"
    AUTO = "auto"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Validated observation grid (outer product of positions and times)."""

    x: np.ndarray
    t: np.ndarray
    region: Region


def space_time_grid(params: ModelParams, x, t,
                    region: Region | None = None) -> SpaceTimeGrid:
    """Build and validate an observation grid.

    Checks that all positions fall in one region, that every (x, t) pair
    is causally reachable (the incident front has passed for forward
    fields, the first backward emission has arrived for backward ones),
    and that no point sits exactly on a qubit or on the light front, where
    the closed forms are logarithmically singular.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("grid coordinates must be finite")
    if np.any(t <= 0):
        raise ValueError("times must be strictly positive")
    d = params.distance
    if np.all(x < 0):
        inferred = Region.BEFORE
    elif np.all((x > 0) & (x < d)):
        inferred = Region.BETWEEN
    elif np.all(x > d):
        inferred = Region.BEHIND
    else:
        raise ValueError(
            "positions must lie strictly within one region "
            "(x < 0, 0 < x < d, or x > d)"
        )
    if region is not None and Region(region) is not inferred:
        raise ValueError(f"positions lie in {inferred}, not {Region(region)}")
    # Point-qubit regularization: the cosine-integral divergence makes the
    # field nonphysical within 0.05 d of either qubit, so such grid points
    # are refused outright.  The tiny slack keeps exact-boundary points
    # like x = 1.05 d from tripping on one-ulp rounding.
    closest = np.minimum(np.abs(x), np.abs(x - d))
    if np.any(closest < (EXCLUSION_FRACTION - 1e-9) * d):
        raise ValueError(
            f"positions within {EXCLUSION_FRACTION:g}*d of a qubit are "
            "excluded (point-qubit divergence)"
        )
    horizon = params.v_g * t.min()
    if inferred is Region.BEFORE:
        if x.min() + horizon <= 0:
            raise ValueError("backward field not yet reachable: need x + v_g t > 0")
    else:
        if x.max() >= horizon:
            raise ValueError("incident front has not passed: need x < v_g t")
    # exact singular alignments
    vt = params.v_g * t[:, None]
    for shift in (x, x - d, -x, -(x - d)):
        if np.any(shift[None, :] == vt):
            raise ValueError("a grid point sits exactly on the light front")
    return SpaceTimeGrid(x=x, t=t, region=inferred)


@dataclass(frozen=True)
class FieldSlice:
    """Field envelopes on a grid; arrays are indexed [time, position].

    ``u`` is the right-moving envelope: the incident wave, plus the
    forward-scattered field unless the grid lies before the pair.  ``v``
    is the left-moving, backward-scattered envelope, zero behind the pair.
    ``w`` is their sum.
    """

    grid: SpaceTimeGrid
    branch: FieldBranch
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def incident_plane_wave(x, t, params: ModelParams, omega_s=None):
    """Incident right-moving envelope A e^{i omega_s (x/v_g - t)}.

    ``omega_s`` defaults to the parameters' drive carrier; an array of
    carriers broadcasts against x and t.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if omega_s is None:
        omega_s = params.omega_s
    return params.amplitude * np.exp(1j * omega_s * (x / params.v_g - t))


def _scattered_sum(kernel, y1, y2, t, rates: CollectiveRates,
                   params: ModelParams, omega_s, c_plus, c_minus):
    """Scattered envelope from kernels at shifted coordinates (y1, y2).

    ``kernel`` is ``_wave_kernel`` for the transient field and
    ``_kernel_limit`` for the steady one.  For the forward field pass
    (x, x-d); for the backward field pass (-x, -(x-d)).  The channel
    pattern (symmetric adds the two shifts, antisymmetric subtracts) is the
    same in both directions.  The drive carrier ``omega_s`` and its weights
    ``c_plus``/``c_minus`` may carry a leading drive axis; the pole kernels
    do not depend on the drive and are evaluated once.
    """
    a_plus = params.omega_q - 1j * rates.gamma_plus
    a_minus = params.omega_q - 1j * rates.gamma_minus
    v_g = params.v_g
    k_plus_1 = kernel(y1 / v_g, t, a_plus)
    k_plus_2 = kernel(y2 / v_g, t, a_plus)
    k_minus_1 = kernel(y1 / v_g, t, a_minus)
    k_minus_2 = kernel(y2 / v_g, t, a_minus)
    k_s_1 = kernel(y1 / v_g, t, omega_s)
    k_s_2 = kernel(y2 / v_g, t, omega_s)
    return -0.5 * params.coupling * (
        c_plus * (k_plus_1 + k_plus_2 - k_s_1 - k_s_2)
        + c_minus * (k_minus_1 - k_minus_2 - k_s_1 + k_s_2)
    )


# ---------------------------------------------------------------------------
# steady-state gate

def _steady_gate(grid: SpaceTimeGrid, rates: CollectiveRates,
                 params: ModelParams, omega_s):
    """Per drive carrier in ``omega_s``: are the steady forms converged?

    The exponential decay gate does not depend on the drive; the gate on
    the algebraic 1/t tails uses min(omega_s, Omega) * lag.
    """
    span = np.max(np.abs(np.concatenate([grid.x, grid.x - params.distance])))
    lag = grid.t.min() - span / params.v_g
    if lag <= 0:
        return np.zeros(np.shape(omega_s), dtype=bool)
    positive = [r.real for r in (rates.gamma_plus, rates.gamma_minus)
                if r.real > 0]
    slowest = min(positive)
    if np.exp(-slowest * lag) >= _STEADY_DECAY_GATE:
        return np.zeros(np.shape(omega_s), dtype=bool)
    return np.minimum(omega_s, params.omega_q) * lag > 1.0 / _STEADY_TAIL_GATE


def steady_ready(grid: SpaceTimeGrid, rates: CollectiveRates,
                 params: ModelParams) -> bool:
    """Whether the steady forms are converged everywhere on the grid."""
    return bool(_steady_gate(grid, rates, params, params.omega_s))


# ---------------------------------------------------------------------------
# assembled fields

def drive_sweep(grid: SpaceTimeGrid, rates: CollectiveRates,
                params: ModelParams, omega_s,
                branch="auto") -> list[FieldSlice]:
    """The field on the grid for every drive carrier in one call.

    Entry k is the field for ``params.with_drive(omega_s[k])`` and its own
    collective rates, but the grid, the channel rates and every
    drive-independent kernel are evaluated once for the whole sweep.
    ``rates`` supplies the regime and channel rates; the drive weights
    come from ``coupling_weights`` at each carrier.

    Parameters
    ----------
    grid : SpaceTimeGrid
    rates : CollectiveRates
    params : ModelParams
    omega_s : array_like
        1-d array of drive carriers in rad/s.
    branch : str or FieldBranch
        "transient" for the exact finite-time forms, "steady" for the
        long-time limit, "auto" to pick steady, carrier by carrier, once
        it is converged.

    Returns
    -------
    list of FieldSlice, one per carrier, with ``u``, ``v`` and ``w``.
    """
    omega = np.asarray(omega_s, dtype=float)
    if omega.ndim != 1 or not np.all(np.isfinite(omega)) \
            or np.any(omega <= 0):
        raise ValueError("drive carriers must be a 1-d array of "
                         "positive finite frequencies")
    c_plus, c_minus = coupling_weights(params, rates.regime, omega)
    branch = FieldBranch(branch)
    if branch is FieldBranch.AUTO:
        steady = _steady_gate(grid, rates, params, omega)
    else:
        steady = np.full(omega.shape, branch is FieldBranch.STEADY)
    # leading drive axis against the [time, position] grid
    drive = [np.asarray(a).reshape(-1, 1, 1) for a in (omega, c_plus, c_minus)]
    tt = grid.t[:, None]
    xx = grid.x[None, :]
    d = params.distance

    def scattered(y1, y2):
        out = np.empty((omega.size, grid.t.size, grid.x.size), dtype=complex)
        for kernel, pick in ((_kernel_limit, steady), (_wave_kernel, ~steady)):
            if pick.any():
                out[pick] = _scattered_sum(kernel, y1, y2, tt, rates, params,
                                           *(a[pick] for a in drive))
        return out

    u = incident_plane_wave(xx, tt, params, drive[0])
    if grid.region is not Region.BEFORE:
        u = u + scattered(xx, xx - d)
    if grid.region is Region.BEHIND:
        v = np.zeros_like(u)
    else:
        v = scattered(-xx, -(xx - d))
    w = u + v
    return [FieldSlice(
        grid=grid, u=u[k], v=v[k], w=w[k],
        branch=FieldBranch.STEADY if is_steady else FieldBranch.TRANSIENT)
        for k, is_steady in enumerate(steady)]


def forward_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                  params: ModelParams, branch="auto") -> FieldSlice:
    """Right-moving field u(x, t) between or behind the qubits.

    The one-carrier case of ``drive_sweep`` at ``params.omega_s``; the
    grid's region must be Between or Behind.
    """
    if grid.region is Region.BEFORE:
        raise ValueError("forward field is defined between or behind the qubits")
    return drive_sweep(grid, rates, params, [params.omega_s], branch)[0]


def backward_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                   params: ModelParams, branch="auto") -> FieldSlice:
    """Left-moving field v(x, t) before or between the qubits."""
    if grid.region is Region.BEHIND:
        raise ValueError("backward field is defined before or between the qubits")
    return drive_sweep(grid, rates, params, [params.omega_s], branch)[0]


def interqubit_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                     params: ModelParams, branch="auto") -> FieldSlice:
    """Total field w = u + v between the qubits (0 < x < d)."""
    if grid.region is not Region.BETWEEN:
        raise ValueError("inter-qubit field needs a Between grid")
    return drive_sweep(grid, rates, params, [params.omega_s], branch)[0]


# ---------------------------------------------------------------------------
# stationary scattering spectra

def transmittance(omega, rates: CollectiveRates, params: ModelParams):
    """Transmission probability of a monochromatic photon at ``omega``.

    Uses the collective channels of the Markov reduction; valid in every
    interference regime (the channel weights are re-evaluated at the probe
    frequency).
    """
    omega = np.asarray(omega, dtype=float)
    c_plus, c_minus = coupling_weights(params, rates.regime, omega)
    phase = snapped_phase_factor(params, rates.regime, omega)
    g_over_a = params.coupling / params.amplitude
    amp = 1.0 + 1j * np.pi * g_over_a * (
        c_plus * (1.0 + np.conj(phase)) + c_minus * (1.0 - np.conj(phase)))
    return np.abs(amp) ** 2


def reflectance(omega, rates: CollectiveRates, params: ModelParams):
    """Reflection probability of a monochromatic photon at ``omega``."""
    omega = np.asarray(omega, dtype=float)
    c_plus, c_minus = coupling_weights(params, rates.regime, omega)
    phase = snapped_phase_factor(params, rates.regime, omega)
    bracket = c_plus * (1.0 + phase) + c_minus * (1.0 - phase)
    return params.gamma * np.pi / (4.0 * params.amplitude ** 2) \
        * np.abs(bracket) ** 2


def _lattice_denominator(omega, params: ModelParams):
    """(Gamma/2, omega - Omega, k_omega d, denominator, zero guard).

    The exact lattice amplitudes share the denominator
    (omega - Omega + i Gamma/2)^2 + (Gamma/2)^2 e^{2 i k_omega d}; the
    guard marks where it vanishes, so callers can substitute a limit.
    """
    omega = np.asarray(omega, dtype=float)
    half = 0.5 * params.gamma
    detune = omega - params.omega_q
    kd = params.phase_across(omega)
    denom = (detune + 1j * half) ** 2 + half ** 2 * np.exp(2j * kd)
    return half, detune, kd, denom, np.abs(denom) == 0


def nonmarkov_transmittance(omega, params: ModelParams):
    """Transmission with the inter-qubit retardation kept exactly."""
    _, detune, _, denom, guard = _lattice_denominator(omega, params)
    amp = np.where(guard, 0.0,
                   detune ** 2 / np.where(guard, 1.0, denom))
    return np.abs(amp) ** 2


def nonmarkov_reflectance(omega, params: ModelParams):
    """Reflection with the inter-qubit retardation kept exactly."""
    half, detune, kd, denom, guard = _lattice_denominator(omega, params)
    num = detune * np.cos(kd) + half * np.sin(kd)
    amp = np.where(guard, 1.0,
                   params.gamma * num / np.where(guard, 1.0, denom))
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# closed-form resonance peaks of the steady energy density

def _resonant_e1(x, params: ModelParams, peak: str):
    """E = -ci + i si of the resonance peaks at positions ``x``.

    Generic regime: E at w = Omega|x|/v_g.  Even-pi regime: the two shifted
    coordinates contribute coherently, and E is the mean of its values at
    x and at x - d.  The odd-pi regime has no closed ``peak`` formula and
    raises ValueError.
    """
    regime = classify_regime(params)
    if regime is Regime.ODD_PI:
        raise ValueError(f"no closed {peak}-peak formula in the odd-pi regime")

    def e1_at(shift):
        w = params.omega_q * np.abs(shift) / params.v_g
        return -cosine_integral(w) + 1j * si_lower(w)

    if regime is Regime.GENERIC:
        return e1_at(x)
    return 0.5 * (e1_at(x) + e1_at(x - params.distance))


def transmitted_resonance_peak(x, params: ModelParams):
    """Steady |u|^2/A^2 behind the pair for a resonant drive.

    Generic regime: (ci^2 + si^2)(Omega x / v_g) / (4 pi^2).
    Even-pi regime: the two shifted coordinates contribute coherently,
    ((ci + ci_d)^2 + (si + si_d)^2) / (16 pi^2).  Both are |E|^2/(4 pi^2)
    with E = -ci + i si, or its mean over the two coordinates.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= params.distance):
        raise ValueError("transmitted peak formula needs x > d")
    return np.abs(_resonant_e1(x, params, "transmitted")) ** 2 \
        / (4.0 * np.pi ** 2)


def reflected_resonance_peak(x, params: ModelParams):
    """Steady |v|^2/A^2 before the pair for a resonant drive.

    Generic: 1 + si(w)/pi + (ci^2 + si^2)(w)/(4 pi^2) with w = Omega|x|/v_g.
    Even-pi: coherent two-coordinate version with 1/(2 pi) and 1/(16 pi^2).
    Both are |1 + E/(2 pi i)|^2 with E as in ``_resonant_e1``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x >= 0):
        raise ValueError("reflected peak formula needs x < 0")
    return np.abs(1.0 + _resonant_e1(x, params, "reflected")
                  / TWO_PI_I) ** 2


def interqubit_resonance_peak(x, params: ModelParams):
    """Steady |w|^2/A^2 between the qubits at resonance (generic regime).

    (1/pi^2) * (ci(w) cos w + si(w) sin w)^2 with w = Omega x / v_g.  The
    even- and odd-pi regimes have no closed form here and raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0) | (x >= params.distance)):
        raise ValueError("inter-qubit peak formula needs 0 < x < d")
    if classify_regime(params) is not Regime.GENERIC:
        raise ValueError("inter-qubit peak formula needs the generic regime")
    w = params.omega_q * x / params.v_g
    ci = cosine_integral(w)
    si = si_lower(w)
    return (ci * np.cos(w) + si * np.sin(w)) ** 2 / np.pi ** 2


# ---------------------------------------------------------------------------
# beat-note scan of the steady forward energy density

def beat_note_series(params: ModelParams, rates: CollectiveRates,
                     x0: float, n_periods: int = 40, n_samples: int = 4096):
    """Steady |u(x0, t)|^2 sampled uniformly over ``n_periods`` beats.

    The window starts just after the incident front has passed x0 and
    spans ``n_periods`` periods of the drive detuning.  The samples form
    a Behind grid, so x0 must lie behind the pair and outside the
    exclusion zone.  Returns (t, energy).
    """
    detune = params.omega_s - params.omega_q
    if detune == 0:
        raise ValueError("beat note needs a detuned drive")
    period = 2.0 * np.pi / abs(detune)
    t0 = 1.05 * x0 / params.v_g
    window = n_periods * period
    t = t0 + np.linspace(0.0, window, n_samples, endpoint=False)
    grid = space_time_grid(params, [x0], t, region=Region.BEHIND)
    u = drive_sweep(grid, rates, params, [params.omega_s], "steady")[0].u
    return t, np.abs(u[:, 0]) ** 2


def beat_note_fft(energy, params: ModelParams, n_periods: int = 40):
    """FFT of a beat-note series from ``beat_note_series``.

    ``energy`` samples a window of ``n_periods`` detuning beats uniformly.
    Returns (frequencies, |spectrum|, peak_frequency, expected_frequency)
    with frequencies in Hz.
    """
    energy = np.asarray(energy, dtype=float)
    detune = params.omega_s - params.omega_q
    window = n_periods * 2.0 * np.pi / abs(detune)
    spectrum = np.fft.rfft(energy - energy.mean())
    freqs = np.fft.rfftfreq(energy.size, d=window / energy.size)
    peak = freqs[int(np.argmax(np.abs(spectrum)))]
    return freqs, np.abs(spectrum), float(peak), abs(detune) / (2.0 * np.pi)

