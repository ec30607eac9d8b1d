"""Spatio-temporal photon field scattered by the qubit pair.

The right- and left-moving field envelopes are frequency integrals of the
scattered mode amplitudes.  Every one of those integrals collapses onto a
single master kernel

    K(s1, t; a) = int_0^inf (e^{i(w-a)t} - 1)/(w - a) * e^{i w (s1 - t)} dw
                = e^{i a s2} [E1(i a s1) - E1(i a s2) + 2 pi i * 1(s1 > 0)],

with s2 = s1 - t, evaluated at s1 = +-(shifted coordinate)/v_g and at a
center ``a`` that is either a complex collective pole, the drive carrier,
or the bare qubit frequency.  ``closed_kernel(s1, t, a)`` evaluates that
kernel through the scaled E1, so the decaying channels neither under- nor
overflow, and ``oracle.quad_kernel`` takes the same arguments.  The
launch term and the winding term share the factor e^{-iat}, so on a
[time, position] grid they are one outer product of a per-time and a
per-position factor, and only the front term E1(i a s2) is taken point
by point.  In the t -> inf limit a decaying pole leaves nothing, a real
center (the drive carrier, or the bare Omega of a channel that is dark in
a pinned regime) a plane wave.  The scattered field is one channel sum
of six (weight, s1, center) terms, at the two shifts and the three
centers, written once in ``drive_sweep``: the transient branch hands
the terms to ``_kernel_sum``, one weighted sum over blocks of whole time
rows that keep its temporaries small, and the steady branch sums each
weight times its kernel's limit.
``drive_sweep`` evaluates the field for a whole sweep of drive carriers
in one call, as [drive, time, position] arrays of the right-moving
envelope u, the left-moving v and their sum w; the one-carrier field
functions cut a ``FieldSlice`` from it.  The module also provides the
scattering spectra, ``markov_spectra`` and ``nonmarkov_spectra``, each of
which returns transmittance and reflectance together from one
evaluation, and closed-form resonance peak heights.

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
                    collective_rates, coupling_weights, snapped_phase_factor)
from . import specfun
from .specfun import e1_scaled

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

# Points in one block of a transient kernel sum: a complex temporary of
# 8192 values is 128 KiB, so a block's temporaries stay small enough for
# the allocator to reuse them instead of mapping fresh pages.
_BLOCK_POINTS = 8192
# Largest growth Re(i a s1) = -Im(a) s1 of a position's winding factor
# e^{i a s1} that the bracket takes: beyond it (Gamma s1 past about 9,500
# wavelengths at Gamma = 0.01 Omega) e^{-iat} e^{i a s1} would multiply a
# subnormal by a number near overflow, so the winding goes point by point.
_FACTOR_GROWTH = 600.0
_SINGULAR = ("kernel singularity: a shifted coordinate or the light front "
             "passes exactly through a grid point")

# ---------------------------------------------------------------------------
# the master kernel

def closed_kernel(s1, t, a):
    """Master kernel K(s1, t; a) over the broadcast of s1, t and ``a``.

    s1 is +-(x or x - d)/v_g (forward or backward) and t the elapsed time.
    ``a`` is one center or an array of them, such as a drive axis of
    carriers shaped to broadcast against a [time, position] grid; the
    contour closing assumes Im a <= 0, so a growing center raises.  This
    is the one-kernel, unit-weight case of ``_kernel_sum``: a point gets
    the bits its kernel has inside a field's channel sum.
    """
    out = _kernel_sum([(1.0, s1, a)], t)
    return out if out.ndim else complex(out)


def _kernel_sum(terms, t):
    """sum_k w_k K(s1_k, t; a_k) for the (w_k, s1_k, a_k) in ``terms``.

    Every argument broadcasts against the times t as in ``closed_kernel``.
    The kernel is written as

        K = e^{-iat} B(s1) - E1s(i a s2) - 2 pi i 1(s2 > 0) e^{i a s2},
        B(s1) = E1s(i a s1) + 2 pi i 1(s1 > 0) e^{i a s1},

    so the launch and the winding term share the time factor e^{-iat} and
    the bracket B is per position; all terms' launch arguments go through
    one ``e1_scaled`` call.  Points the light front has not reached
    (s2 > 0) take e^{-iat} E1s(i a s1) alone rather than cancel the
    bracket's winding, and so do positions whose e^{i a s1} would be too
    large to factor (Re i a s1 > ``_FACTOR_GROWTH``), adding e^{i a s2}
    point by point.  The sum runs over blocks of whole time rows of at
    most ``_BLOCK_POINTS`` points (one row if a row holds more), one front
    ``e1_scaled`` call per term and block; no point's arithmetic depends
    on the block, the grid or the drive axis.
    """
    t = np.asarray(t, dtype=float)
    terms = [(np.asarray(w), np.asarray(s1, dtype=float),
              np.asarray(a, dtype=complex)) for w, s1, a in terms]
    shape = np.broadcast_shapes(t.shape, *(x.shape for term in terms
                                           for x in term))
    # Every operand on every axis of the sum, and a time axis -2 even if
    # nothing varies along it: where nothing broadcasts against it, numpy
    # multiplies a one-point result with other rounding than a grid.
    ndim = max(len(shape), 2)

    def full(x):
        return x.reshape((1,) * (ndim - x.ndim) + x.shape)

    t = full(t)
    terms = [tuple(full(x) for x in term) for term in terms]
    for _, s1, a in terms:
        if np.any(a.imag > 0):
            raise ValueError("kernel centers must not grow: need Im a <= 0")
        if not s1.all():
            raise ValueError(_SINGULAR)
    ia = [1j * a for _, _, a in terms]
    z1 = [c * s1 for c, (_, s1, _) in zip(ia, terms)]
    e1 = e1_scaled(np.concatenate([z.ravel() for z in z1]))
    kernels = []
    for (w, s1, _), c, z, e in zip(
            terms, ia, z1, np.split(e1, np.cumsum([z.size for z in z1])[:-1])):
        e = e.reshape(z.shape)
        far = z.real > _FACTOR_GROWTH
        wound = (s1 > 0) & ~far
        bracket = e + TWO_PI_I * np.exp(z, out=np.zeros_like(z), where=wound)
        kernels.append((w, s1, c, np.exp(-c * t), e, bracket,
                        far if far.any() else None))
    out = np.zeros((1,) * (ndim - len(shape)) + shape, dtype=complex)
    step = max(1, _BLOCK_POINTS * out.shape[-2] // max(out.size, 1))
    for r in range(0, out.shape[-2], step):
        rows = slice(r, r + step)
        tb = _rows(t, rows)
        for w, s1, c, phase, e, bracket, far in kernels:
            s2 = _rows(s1, rows) - tb
            if not s2.all():
                raise ValueError(_SINGULAR)
            z2 = c * s2
            front = e1_scaled(z2)
            phase_b = _rows(phase, rows)
            k = phase_b * _rows(bracket, rows)
            k -= front
            # points the front has not reached, and far positions
            alone = s2 > 0
            if far is not None:
                alone = alone | _rows(far, rows)
            if alone.any():
                idx = np.nonzero(np.broadcast_to(alone, k.shape))
                pick = [np.broadcast_to(x, k.shape)[idx]
                        for x in (phase_b, _rows(e, rows), s2, z2)]
                own = pick[0] * pick[1] - front[idx]
                behind = pick[2] < 0
                if behind.any():
                    own[behind] += TWO_PI_I * np.exp(pick[3][behind])
                k[idx] = own
            out[..., rows, :] += _rows(w, rows) * k
    return out.reshape(shape)


def _rows(x, rows):
    """Time rows ``rows`` (a slice of axis -2) of x, or x if it has one row."""
    return x[..., rows, :] if x.shape[-2] > 1 else x


def _kernel_limit(s1, t, a):
    """What ``closed_kernel`` leaves once its transients have died out.

    A decaying center (Im a < 0) leaves nothing.  A real center, such as a
    drive carrier or the bare Omega of a dark channel, leaves the plane
    e^{i a (s1 - t)} M(a s1), where M(w) = E1(iw) + 2 pi i on the outgoing
    side (w > 0) and E1(iw) on the other: one E1 read per argument.  ``a``
    is one center or an array of them that are all decaying or all real,
    and broadcasts against s1 and t as in ``closed_kernel``.
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
    m = specfun.exp_integral_e1(1j * w) + np.where(w > 0, TWO_PI_I, 0.0)
    return np.exp(1j * a * (s1 - t)) * m


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


def _check_phases(omega, t):
    """Refuse a phase omega * t at or past 2^53, where it has no fractional
    bits and the rounding of t alone moves it by a radian or more."""
    if t >= 2 ** 53 / omega:
        raise ValueError("times too late: a phase max(omega_q, omega_s) * t "
                         "must stay below 2^53")


def space_time_grid(params: ModelParams, x, t,
                    region: Region | None = None) -> SpaceTimeGrid:
    """Build and validate an observation grid.

    Checks that all positions fall in one region, that every (x, t) pair
    is causally reachable (the incident front has passed for forward
    fields, the first backward emission has arrived for backward ones),
    that no point sits exactly on a qubit or on the light front, where
    the closed forms are logarithmically singular, and that every phase
    max(Omega, omega_s) * t stays below 2^53.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("grid coordinates must be finite")
    if np.any(t <= 0):
        raise ValueError("times must be strictly positive")
    _check_phases(max(params.omega_q, params.omega_s), t.max())
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


# ---------------------------------------------------------------------------
# assembled fields

def drive_sweep(grid: SpaceTimeGrid, rates: CollectiveRates,
                params: ModelParams, omega_s, branch="auto"):
    """The field on the grid for every drive carrier in one call.

    Entry k of an envelope is the field for ``params.with_drive(omega_s[k])``,
    but the grid, the channel rates and every drive-independent kernel are
    evaluated once for the whole sweep.  ``rates`` must be
    ``collective_rates(params)``, the same for every carrier, and a pair
    that does not match is refused; the drive weights come from
    ``coupling_weights`` at each carrier.  The forward field takes
    the shifts (x, x - d), the backward field (-x, -(x - d)); the pole
    kernels do not depend on the drive and are evaluated once per
    direction and branch.

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
    (steady, u, v, w): the per-carrier boolean mask of the steady branch
    and the envelopes of ``FieldSlice``, indexed [drive, time, position].
    """
    omega = np.asarray(omega_s, dtype=float)
    if omega.ndim != 1 or not np.all(np.isfinite(omega)) \
            or np.any(omega <= 0):
        raise ValueError("drive carriers must be a 1-d array of "
                         "positive finite frequencies")
    _check_phases(max(params.omega_q, omega.max()), grid.t.max())
    if rates != collective_rates(params):
        raise ValueError("rates do not match params: pass "
                         "collective_rates(params)")
    c_plus, c_minus = coupling_weights(params, omega)
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
    a_plus = params.omega_q - 1j * rates.gamma_plus
    a_minus = params.omega_q - 1j * rates.gamma_minus
    half = -0.5 * params.coupling

    def scattered(y1, y2):
        s1, s2 = y1 / params.v_g, y2 / params.v_g

        def channel_sum(is_steady, carrier, c_plus, c_minus):
            # six kernels at the two shifts and the three centers: the
            # symmetric channel adds the shifts, the antisymmetric one
            # subtracts them, and the drive kernels enter both
            terms = [(half * c_plus, s1, a_plus), (half * c_plus, s2, a_plus),
                     (half * c_minus, s1, a_minus),
                     (-half * c_minus, s2, a_minus),
                     (-half * (c_plus + c_minus), s1, carrier),
                     (half * (c_minus - c_plus), s2, carrier)]
            if not is_steady:
                return _kernel_sum(terms, tt)
            return sum(w * _kernel_limit(s, tt, a) for w, s, a in terms)

        parts = [(is_steady, pick) for is_steady, pick
                 in ((True, steady), (False, ~steady)) if pick.any()]
        if len(parts) == 1:
            # one branch for every carrier: its sum is the whole array
            return channel_sum(parts[0][0], *drive)
        out = np.empty((omega.size, grid.t.size, grid.x.size), dtype=complex)
        for is_steady, pick in parts:
            out[pick] = channel_sum(is_steady, *(a[pick] for a in drive))
        return out

    u = incident_plane_wave(xx, tt, params, drive[0])
    if grid.region is not Region.BEFORE:
        u += scattered(xx, xx - d)
    if grid.region is Region.BEHIND:
        v = np.zeros_like(u)
    else:
        v = scattered(-xx, -(xx - d))
    return steady, u, v, u + v


def _one_carrier(grid: SpaceTimeGrid, rates: CollectiveRates,
                 params: ModelParams, branch) -> FieldSlice:
    """The sweep of the one carrier ``params.omega_s``, as a FieldSlice."""
    (steady,), (u,), (v,), (w,) = drive_sweep(grid, rates, params,
                                              [params.omega_s], branch)
    return FieldSlice(
        grid=grid, u=u, v=v, w=w,
        branch=FieldBranch.STEADY if steady else FieldBranch.TRANSIENT)


def forward_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                  params: ModelParams, branch="auto") -> FieldSlice:
    """Right-moving field u(x, t) between or behind the qubits.

    The one-carrier case of ``drive_sweep`` at ``params.omega_s``; the
    grid's region must be Between or Behind.
    """
    if grid.region is Region.BEFORE:
        raise ValueError("forward field is defined between or behind the qubits")
    return _one_carrier(grid, rates, params, branch)


def backward_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                   params: ModelParams, branch="auto") -> FieldSlice:
    """Left-moving field v(x, t) before or between the qubits."""
    if grid.region is Region.BEHIND:
        raise ValueError("backward field is defined before or between the qubits")
    return _one_carrier(grid, rates, params, branch)


def interqubit_field(grid: SpaceTimeGrid, rates: CollectiveRates,
                     params: ModelParams, branch="auto") -> FieldSlice:
    """Total field w = u + v between the qubits (0 < x < d)."""
    if grid.region is not Region.BETWEEN:
        raise ValueError("inter-qubit field needs a Between grid")
    return _one_carrier(grid, rates, params, branch)


# ---------------------------------------------------------------------------
# stationary scattering spectra

def _probe_frequencies(omega):
    """``omega`` as a float array, refused unless positive and finite."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega <= 0):
        raise ValueError("probe frequencies must be positive and finite")
    return omega


def markov_spectra(omega, params: ModelParams):
    """(T, R) of a monochromatic photon at ``omega`` in the Markov reduction.

    Both channels come from one set of channel weights and one propagation
    factor P at the probe frequency, so the forms hold in every
    interference regime: the transmission amplitude is
    1 + i pi (g/A) [c+ (1 + P*) + c- (1 - P*)] and the reflection
    bracket c+ (1 + P) + c- (1 - P).  ``omega`` must be positive and
    finite.
    """
    omega = _probe_frequencies(omega)
    c_plus, c_minus = coupling_weights(params, omega)
    phase = snapped_phase_factor(params, omega)
    g_over_a = params.coupling / params.amplitude
    amp = 1.0 + 1j * np.pi * g_over_a * (
        c_plus * (1.0 + np.conj(phase)) + c_minus * (1.0 - np.conj(phase)))
    bracket = c_plus * (1.0 + phase) + c_minus * (1.0 - phase)
    scale = params.gamma * np.pi / (4.0 * params.amplitude ** 2)
    return np.abs(amp) ** 2, scale * np.abs(bracket) ** 2


def nonmarkov_spectra(omega, params: ModelParams):
    """(T, R) with the inter-qubit retardation kept exactly.

    Both lattice amplitudes share the denominator
    (omega - Omega + i Gamma/2)^2 + (Gamma/2)^2 e^{2 i k_omega d}; where it
    vanishes they take their limits, T = 0 and R = 1.  ``omega`` must be
    positive and finite.
    """
    omega = _probe_frequencies(omega)
    half = 0.5 * params.gamma
    detune = omega - params.omega_q
    kd = params.phase_across(omega)
    denom = (detune + 1j * half) ** 2 + half ** 2 * np.exp(2j * kd)
    guard = np.abs(denom) == 0
    safe = np.where(guard, 1.0, denom)
    trans = np.where(guard, 0.0, detune ** 2 / safe)
    num = detune * np.cos(kd) + half * np.sin(kd)
    refl = np.where(guard, 1.0, params.gamma * num / safe)
    return np.abs(trans) ** 2, np.abs(refl) ** 2


# ---------------------------------------------------------------------------
# closed-form resonance peaks of the steady energy density

def _resonant_e1(x, params: ModelParams, peak: str):
    """E = E1(iw) = -ci(w) + i si(w) of the resonance peaks at positions ``x``.

    Generic regime: E at w = Omega|x|/v_g.  Even-pi regime: the two shifted
    coordinates contribute coherently, and E is the mean of its values at
    x and at x - d.  The odd-pi regime has no closed ``peak`` formula and
    raises ValueError.
    """
    regime = classify_regime(params)
    if regime is Regime.ODD_PI:
        raise ValueError(f"no closed {peak}-peak formula in the odd-pi regime")
    shifts = np.stack([x] if regime is Regime.GENERIC
                      else [x, x - params.distance])
    w = params.omega_q * np.abs(shifts) / params.v_g
    return specfun.exp_integral_e1(1j * w).mean(axis=0)


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

    (Re e^{iw} E1(iw))^2 / pi^2 = (ci cos w + si sin w)^2 / pi^2 at
    w = Omega x / v_g.  The even- and odd-pi regimes raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0) | (x >= params.distance)):
        raise ValueError("inter-qubit peak formula needs 0 < x < d")
    if classify_regime(params) is not Regime.GENERIC:
        raise ValueError("inter-qubit peak formula needs the generic regime")
    w = params.omega_q * x / params.v_g
    return np.real(np.exp(1j * w) * specfun.exp_integral_e1(1j * w)) ** 2 \
        / np.pi ** 2


# ---------------------------------------------------------------------------
# beat-note scan of the steady forward energy density

def beat_note_series(params: ModelParams, x0: float, n_periods: int = 40,
                     n_samples: int = 4096):
    """Steady |u(x0, t)|^2 over ``n_periods`` beats, and its beat frequency.

    The window starts just after the incident front has passed x0 and
    spans ``n_periods`` periods of the drive detuning, which must not be
    zero.  The samples form a Behind grid, so x0 must lie behind the pair
    and outside the exclusion zone.  ``n_periods`` must be at least 1, and
    ``n_samples`` must exceed 2 * ``n_periods``, so that the beat lies
    below the Nyquist frequency of the samples.  Returns (t, energy,
    peak_hz): peak_hz is the largest bin of the spectrum of the energy less
    its mean, on the frequency axis of this window, whose bins are
    |omega_s - Omega| / (2 pi n_periods) Hz apart.
    """
    if n_periods < 1:
        raise ValueError(f"n_periods must be at least 1, got {n_periods}")
    if n_samples <= 2 * n_periods:
        raise ValueError(f"n_samples must exceed 2 * n_periods, got "
                         f"n_samples = {n_samples}, n_periods = {n_periods}")
    detune = params.omega_s - params.omega_q
    if detune == 0:
        raise ValueError("beat note needs a detuned drive")
    period = 2.0 * np.pi / abs(detune)
    t0 = 1.05 * x0 / params.v_g
    window = n_periods * period
    t = t0 + np.linspace(0.0, window, n_samples, endpoint=False)
    grid = space_time_grid(params, [x0], t, region=Region.BEHIND)
    _, u, _, _ = drive_sweep(grid, collective_rates(params), params,
                             [params.omega_s], "steady")
    energy = np.abs(u[0, :, 0]) ** 2
    spectrum = np.abs(np.fft.rfft(energy - energy.mean()))
    freqs = np.fft.rfftfreq(n_samples, d=window / n_samples)
    return t, energy, float(freqs[int(np.argmax(spectrum))])
