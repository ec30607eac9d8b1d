"""Closed-form field kernels against direct oscillatory quadrature.

Every closed kernel is the frequency integral of the mode phase against a
damped or sharp pole factor; the quadrature oracle evaluates that integral
with phase-resolved panels and an analytic tail.  These tests sweep all
eight kernels in the three interference regimes, exercise the wavefront
winding correction, and pin down which writing of the first
exponential-integral argument is the right one.
"""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates, coupling_weights
from wqed.oracle import quad_kernel
from wqed.specfun import cosine_integral, si_lower

OMEGA_Q = 2.0 * np.pi * 5.0e9


def _preset(tag):
    phase = {"generic": 0.8, "even": 2.0, "odd": 5.0}[tag]
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase,
                                  omega_s=1.005 * OMEGA_Q)


TAGS = ("generic", "even", "odd")
CENTERS = ("decay_plus", "decay_minus", "drive", "resonant")
WAYS = ("fwd", "bwd")


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("way, center", [
    pytest.param(way, center, id=f"{way}_{center}")
    for way in WAYS for center in CENTERS])
def test_closed_kernels_match_quadrature(tag, way, center, kernel_centers):
    p = _preset(tag)
    a = kernel_centers(p)[center]
    # fixed integer seeds: the same points on every run
    rng = np.random.default_rng(
        [TAGS.index(tag), CENTERS.index(center), WAYS.index(way)])
    t = rng.uniform(0.3, 1.5) * 40.0 / p.gamma
    if way == "bwd":
        s1 = -rng.uniform(-4.0, -0.1) * p.distance / p.v_g
    else:
        s1 = rng.uniform(1.1, 5.0) * p.distance / p.v_g
    closed = fields.closed_kernel(s1, t, a)
    brute = quad_kernel(s1, t, a, p)
    scale = max(abs(brute), 1e-3)
    assert abs(complex(closed) - brute) / scale < 1e-3


def test_closed_kernels_tight_agreement_with_long_tail(kernel_centers):
    # with its 12-term analytic tail the oracle at its default cutoff is
    # sharp enough to hold the closed kernels far below the routine
    # tolerance (measured 2.8e-11 and 3.4e-11, so the bound leaves a
    # margin of about 3)
    p = _preset("generic")
    centers = kernel_centers(p)
    t = 20.0 / p.gamma
    worst = 0.0
    for center, s1 in (("decay_plus", 2.0 * p.distance / p.v_g),
                       ("drive", 1.5 * p.distance / p.v_g)):
        a = centers[center]
        closed = fields.closed_kernel(s1, t, a)
        brute = quad_kernel(s1, t, a, p)
        worst = max(worst, abs(complex(closed) - brute) / abs(brute))
    assert worst < 1e-10


def test_kernel_winding_across_the_wavefront(kernel_centers):
    # the retarded coordinate x - v_g t changes sign across the front and
    # the closed writing picks up a 2*pi*i winding there; sample both sides
    p = _preset("generic")
    a = kernel_centers(p)["decay_plus"]
    s1 = 2.0 * p.distance / p.v_g
    for t in (0.8 * s1, 1.25 * s1):
        closed = fields.closed_kernel(s1, t, a)
        brute = quad_kernel(s1, t, a, p)
        assert abs(complex(closed) - brute) / max(abs(brute), 1e-3) < 1e-3


def test_wavefront_jump_is_i_pi(kernel_centers):
    # crossing the front turns on the 2*pi*i winding while the E1 branch
    # jump eats half of it, leaving a discontinuity of exactly i*pi times
    # a unit-modulus carrier; measure it by straddling the front tightly
    p = _preset("generic")
    a = kernel_centers(p)["decay_plus"]
    s1 = 3.0 * p.distance / p.v_g
    eps = 1e-5
    jump = fields.closed_kernel(s1, s1 * (1.0 + eps), a) \
        - fields.closed_kernel(s1, s1 * (1.0 - eps), a)
    assert abs(jump - 1j * np.pi) < 0.01 * np.pi


def test_kernel_convention_flip_breaks_agreement(printed_kernel,
                                                 kernel_centers):
    # the rotated E1 argument i*a*s1 is the validated writing; the printed
    # one, a*s1, must disagree with quadrature far beyond the tolerance
    p = _preset("generic")
    a = kernel_centers(p)["decay_plus"]
    s1 = 2.3 * p.distance / p.v_g
    t = 18.0 / p.gamma
    ref = quad_kernel(s1, t, a, p)
    good = fields.closed_kernel(s1, t, a)
    bad = printed_kernel(s1, t, a)
    assert abs(complex(good) - ref) / abs(ref) < 1e-3
    assert abs(complex(bad) - ref) / abs(ref) > 1e-2


def test_closed_kernel_refuses_a_growing_center(kernel_centers):
    # the contour closing assumes Im a <= 0; a center in the upper half
    # plane, alone or on a drive axis, must not be evaluated
    p = _preset("generic")
    a = kernel_centers(p)["decay_plus"]
    s1 = 2.0 * p.distance / p.v_g
    t = 20.0 / p.gamma
    assert np.isfinite(fields.closed_kernel(s1, t, a))
    for growing in (np.conj(a), np.array([p.omega_s, np.conj(a)])):
        with pytest.raises(ValueError, match="Im a <= 0"):
            fields.closed_kernel(s1, t, growing)


# s1 = 0 puts the launch argument i a s1 on the origin of E1, and
# s2 = s1 - t = 0 the front argument i a s2, checked inside a block of rows
@pytest.mark.parametrize("s1", [0.0, 1e-9], ids=["on_qubit", "on_front"])
def test_closed_kernel_refuses_a_singular_point(s1):
    with pytest.raises(ValueError, match="shifted coordinate"):
        fields.closed_kernel(s1, 1e-9, OMEGA_Q)


def test_kernel_limit_refuses_a_point_on_a_qubit():
    # the steady plane reads E1(i a s1), singular at s1 = 0
    with pytest.raises(ValueError, match="at a qubit position"):
        fields._kernel_limit(0.0, 1e-9, OMEGA_Q)


def test_drive_kernel_matches_trig_writing(wave_kernel_trig):
    # the kernel at an array of real centers (the drive axis of a sweep)
    # against its sine/cosine-integral writing, center by center, in the
    # causal region s1 < t on both sides of the qubit: both read the same
    # E1, so this checks the algebra of the steady limit plus the front
    # term, and test_specfun pins the special functions against mpmath
    rng = np.random.default_rng(7)
    omega = np.linspace(0.9, 1.1, 9) * OMEGA_Q
    s1 = np.concatenate([rng.uniform(0.05, 5.0, 6),
                         -rng.uniform(0.05, 5.0, 6)]) * 1e-9
    t = 5e-9 * (1.0 + np.logspace(-3.0, 2.0, 6))[:, None]
    swept = fields.closed_kernel(s1, t, omega[:, None, None])
    assert swept.shape == (omega.size, t.size, s1.size)
    for k, center in enumerate(omega):
        trig = wave_kernel_trig(s1, t, center)
        err = np.abs(swept[k] - trig) / np.maximum(np.abs(trig), 1.0)
        assert err.max() < 1e-11


def test_e1_reads_match_their_sine_cosine_writing_bit_for_bit(
        kernel_limit_trig, weak_generic, weak_even):
    # the engine reads E1(iw) once where the steady forms were written with
    # a ci/si pair of |w|; the two writings give the same bits, so no
    # figure moves: the steady plane on a drive axis with s1 of both signs
    # and |w| on both sides of the series radius 6 ...
    rng = np.random.default_rng(11)
    omega = np.linspace(0.9, 1.1, 9) * OMEGA_Q
    s1 = np.concatenate([rng.uniform(0.01, 5.0, 40),
                         -rng.uniform(0.01, 5.0, 40)]) * 1e-9
    w = np.abs(np.outer(omega, s1))
    assert w.min() < 6.0 < w.max()
    t = 5e-9 * (1.0 + np.logspace(-3.0, 2.0, 6))[:, None]
    center = omega[:, None, None]
    assert np.array_equal(fields._kernel_limit(s1, t, center),
                          kernel_limit_trig(s1, t, center))
    # ... and the resonance peaks, E = -ci + i si of Omega|shift|/v_g,
    # averaged over the two shifts in the even-pi regime
    for p in (weak_generic, weak_even):
        d = p.distance

        def e_trig(shift):
            w = p.omega_q * np.abs(shift) / p.v_g
            return -cosine_integral(w) + 1j * si_lower(w)

        def e_mean(x):
            if p is weak_generic:
                return e_trig(x)
            return 0.5 * (e_trig(x) + e_trig(x - d))

        behind = np.linspace(1.05, 200.0, 2001) * d
        before = -np.linspace(0.05, 200.0, 2001) * d
        assert np.array_equal(fields.transmitted_resonance_peak(behind, p),
                              np.abs(e_mean(behind)) ** 2 / (4.0 * np.pi ** 2))
        assert np.array_equal(fields.reflected_resonance_peak(before, p),
                              np.abs(1.0 + e_mean(before) / (2j * np.pi)) ** 2)


def _hoist_grid():
    # 16 times x 200 positions behind the pair, transient throughout
    p = _preset("generic")
    x = np.linspace(1.1, 3.0, 200) * p.distance
    t = 3.5 * p.distance / p.v_g * np.linspace(1.01, 3.0, 16)
    return p, x, t


@pytest.mark.parametrize("center", ["decay", "drive", "resonant"])
def test_launch_term_evaluated_off_the_time_axis(center):
    # the kernel on a [time, position] broadcast, whose launch term takes
    # its E1 once per position and its phase once per time, equals the
    # kernel on the already-broadcast flat arrays, where every point takes
    # its own
    p, x, t = _hoist_grid()
    r = collective_rates(p)
    a = {"decay": p.omega_q - 1j * r.gamma_plus, "drive": p.omega_s,
         "resonant": p.omega_q}[center]
    for s1 in (x / p.v_g, -x / p.v_g):
        grid = fields.closed_kernel(s1[None, :], t[:, None], a)
        s1_flat, t_flat = np.broadcast_arrays(s1[None, :], t[:, None])
        flat = fields.closed_kernel(s1_flat.ravel(), t_flat.ravel(), a)
        np.testing.assert_allclose(grid.ravel(), flat, rtol=1e-13, atol=0)


def test_transient_field_takes_six_e1_arguments_per_point(monkeypatch):
    # six kernels per point: each evaluates its front E1 on the whole grid
    # and its launch E1 once per position
    p, x, t = _hoist_grid()
    grid = fields.space_time_grid(p, x, t)
    counted = []
    real_e1 = fields.e1_scaled

    def counting_e1(z):
        counted.append(np.size(z))
        return real_e1(z)

    monkeypatch.setattr(fields, "e1_scaled", counting_e1)
    fields.forward_field(grid, collective_rates(p), p, "transient")
    n_t, n_x = t.size, x.size
    assert sum(counted) <= 6 * (n_t * n_x + n_x)


def test_transient_channel_sum_takes_seven_e1_calls(monkeypatch):
    # one transient channel sum sends the launch arguments of its six
    # kernels through one E1 call and takes one call per front: 7, not 12
    p, x, t = _hoist_grid()
    grid = fields.space_time_grid(p, x, t)
    calls = []
    real_e1 = fields.e1_scaled

    def counting_e1(z):
        calls.append(np.size(z))
        return real_e1(z)

    monkeypatch.setattr(fields, "e1_scaled", counting_e1)
    # Behind the pair there is no backward field: one sum in all
    fields.forward_field(grid, collective_rates(p), p, "transient")
    assert calls == [6 * x.size] + [t.size * x.size] * 6


def _batch_grid(region, p):
    """Early-time grids in each region; Before straddles a light front.

    Before the pair, the backward kernels at the shift d - x wind only
    once the second qubit's emission has reached x, at t = (d - x)/v_g:
    the Before times span it, so their winding factors are mixed.
    """
    d, v_g = p.distance, p.v_g
    x = {"Behind": np.linspace(1.1, 4.0, 23),
         "Between": np.linspace(0.06, 0.94, 17),
         "Before": -np.linspace(0.1, 0.6, 11)}[region] * d
    t = {"Behind": np.linspace(4.3, 9.0, 7),
         "Between": np.linspace(1.01, 6.0, 7),
         "Before": np.linspace(0.613, 2.9, 13)}[region] * d / v_g
    return fields.space_time_grid(p, x, t, region=region)


def _phase_budget(got, ref, a, t):
    """|got - ref| over its budget 1e-15 (1 + |a| t) max(|ref|, 1).

    The factored kernel and the per-pair writing round the phase of the
    winding term differently, e^{-iat} e^{ias1} against e^{ias2}: each
    is off by a few ulps of its phase, and the phases reach |a| t.
    """
    return np.abs(got - ref) / (
        1e-15 * (1.0 + np.abs(a) * t) * np.maximum(np.abs(ref), 1.0))


def _channel_terms(p, rates, y1, y2, omega):
    """The six (weight, s1, center) terms of one transient channel sum."""
    c_plus, c_minus = (c.reshape(-1, 1, 1) for c in coupling_weights(
        p, omega))
    a_plus = p.omega_q - 1j * rates.gamma_plus
    a_minus = p.omega_q - 1j * rates.gamma_minus
    half = -0.5 * p.coupling
    s1, s2 = y1 / p.v_g, y2 / p.v_g
    return [(half * c_plus, s1, a_plus), (half * c_plus, s2, a_plus),
            (half * c_minus, s1, a_minus), (-half * c_minus, s2, a_minus),
            (-half * (c_plus + c_minus), s1, omega[:, None, None]),
            (half * (c_minus - c_plus), s2, omega[:, None, None])]


@pytest.mark.parametrize("region", ["Behind", "Between", "Before"])
@pytest.mark.parametrize("tag", TAGS)
def test_batched_channel_sum_matches_per_pair_writing_bit_for_bit(
        tag, region, per_pair_closed_kernel, monkeypatch):
    # a transient channel sum, one weighted sum of its six kernels, gives
    # the bits of the same weighted sum of six one-kernel calls, on a
    # drive axis of three carriers; each kernel, and the field, is the
    # per-pair writing up to the rounding of the winding phase
    p = _preset(tag)
    rates = collective_rates(p)
    grid = _batch_grid(region, p)
    omega = np.array([0.995, 1.0, 1.005]) * p.omega_q
    d = p.distance
    tt = grid.t[:, None]
    for y1, y2 in ((grid.x, grid.x - d), (-grid.x, -(grid.x - d))):
        terms = _channel_terms(p, rates, y1[None, :], y2[None, :], omega)
        summed = 0.0
        for w, s1, a in terms:
            kernel = fields.closed_kernel(s1, tt, a)
            summed = summed + w * kernel
            ref = per_pair_closed_kernel(s1, tt, a)
            assert _phase_budget(kernel, ref, a, tt).max() <= 1.0
        assert summed.tobytes() == fields._kernel_sum(terms, tt).tobytes()
    if region == "Before":
        s1, s2 = -(grid.x - d) / p.v_g, -(grid.x - d) / p.v_g - tt
        wind = (s2 < 0).astype(int) - (s1 < 0).astype(int)
        assert wind.min() == 0 and wind.max() == 1
    batched = fields.drive_sweep(grid, rates, p, omega, "transient")
    monkeypatch.setattr(fields, "_kernel_sum", lambda terms, t: sum(
        w * per_pair_closed_kernel(s1, t, a) for w, s1, a in terms))
    per_pair = fields.drive_sweep(grid, rates, p, omega, "transient")
    for got, want in zip(batched[1:], per_pair[1:]):
        err = np.abs(got - want) / (1e-15 * (1.0 + omega.max() * tt)
                                    * np.maximum(np.abs(want), p.amplitude))
        assert err.max() <= 1.0


def _block_grid(p):
    # 40 times x 500 positions behind the pair: 16 rows of 500 points fit
    # in a block of 8192, so the grid takes blocks of 16, 16 and 8 rows
    x = np.linspace(1.1, 6.0, 500) * p.distance
    t = 6.5 * p.distance / p.v_g * np.geomspace(1.0, 200.0, 40)
    return fields.space_time_grid(p, x, t)


def test_transient_channel_sum_works_in_cache_sized_blocks(monkeypatch):
    # one launch call for the six kernels' positions, then six front calls
    # per block of whole time rows, none over 8192 points: still at most
    # 6 (n_t n_x + n_x) E1 arguments for the whole grid
    p = _preset("generic")
    grid = _block_grid(p)
    calls = []
    real_e1 = fields.e1_scaled

    def counting_e1(z):
        calls.append(np.shape(z))
        return real_e1(z)

    monkeypatch.setattr(fields, "e1_scaled", counting_e1)
    fields.forward_field(grid, collective_rates(p), p, "transient")
    n_t, n_x = grid.t.size, grid.x.size
    assert calls[0] == (6 * n_x,)
    rows = [16] * 6 + [16] * 6 + [8] * 6
    assert [np.prod(c[:-2]) for c in calls[1:]] == [1] * len(rows)
    assert [c[-2:] for c in calls[1:]] == [(r, n_x) for r in rows]
    assert max(np.prod(c) for c in calls[1:]) <= fields._BLOCK_POINTS
    assert sum(np.prod(c) for c in calls) <= 6 * (n_t * n_x + n_x)


@pytest.mark.parametrize("tag", TAGS)
def test_field_point_does_not_depend_on_where_it_is_evaluated(tag):
    # bit for bit: a point of a transient field takes the same arithmetic
    # alone, on a grid, on either side of a block boundary and on a drive
    # axis; Before, the times straddle the second qubit's backward front
    p = _preset(tag)
    rates = collective_rates(p)
    d, v_g = p.distance, p.v_g
    omega = np.array([0.99, 1.0, 1.007]) * p.omega_q
    for lo, hi in ((1.1, 6.0), (0.06, 0.94), (-6.0, -0.1)):
        x = np.linspace(lo, hi, 500) * d
        reach = (np.abs(x).max() + d) / v_g
        t = reach * np.geomspace(1.01, 200.0, 40)
        if lo < 0:
            # the second qubit's emission reaches x = -6 d at 7 d / v_g
            t = np.sort(np.concatenate([t, np.linspace(6.05, 6.95, 6)
                                        * d / v_g]))
        grid = fields.space_time_grid(p, x, t)
        _, *swept = fields.drive_sweep(grid, rates, p, omega, "transient")
        _, *alone = fields.drive_sweep(grid, rates, p, omega[1:2],
                                       "transient")
        for got, want in zip(swept, alone):
            assert got[1].tobytes() == want[0].tobytes()
        # rows 15 and 16 end and start a block of the 500-position grid
        for i in (0, 15, 16, t.size - 1):
            for j in (0, 250, x.size - 1):
                point = fields.space_time_grid(p, [x[j]], [t[i]])
                for k in range(omega.size):
                    _, *one = fields.drive_sweep(
                        point, rates, p, omega[k:k + 1], "transient")
                    for got, want in zip(swept, one):
                        assert got[k, i, j].tobytes() == want.tobytes()


REGIMES = (("generic", 0.01, 0.5), ("even", 0.01, 2.0), ("odd", 0.01, 1.0),
           ("strong", 0.1, 5.0))


@pytest.mark.parametrize("tag, ratio, phase", REGIMES,
                         ids=[r[0] for r in REGIMES])
def test_transient_field_against_mpmath(tag, ratio, phase,
                                        mp_transient_field):
    # the transient u and v against a 40-digit channel sum over the three
    # regions, from just past the last light front out to 30 lifetimes,
    # within the phase budget 1e-15 (1 + Omega t) of the amplitude
    rng = np.random.default_rng([17, int(1000 * ratio), int(10 * phase)])
    p = ModelParams.from_phase(OMEGA_Q, ratio * OMEGA_Q, phase,
                               omega_s=rng.uniform(0.98, 1.02) * OMEGA_Q)
    rates = collective_rates(p)
    d, v_g = p.distance, p.v_g
    for lo, hi in ((1.15, 12.0), (0.15, 0.85), (-12.0, -0.15)):
        x = rng.uniform(lo, hi, 4) * d
        reach = (np.abs(x).max() + d) / v_g
        lag = np.exp(rng.uniform(np.log(0.01 * d / v_g),
                                 np.log(30.0 / p.gamma), 4))
        t = np.sort(reach + lag)
        grid = fields.space_time_grid(p, x, t)
        _, u, v, _ = fields.drive_sweep(grid, rates, p, [p.omega_s],
                                        "transient")
        for i, j in zip(range(4), rng.permutation(4)):
            ref = mp_transient_field(p, rates, x[j], t[i], p.omega_s)
            budget = 1e-15 * (1.0 + p.omega_s * t[i]) * p.amplitude
            for got, want in zip((u[0, i, j], v[0, i, j]), ref):
                assert abs(got - want) <= budget * max(abs(want) / p.amplitude,
                                                       1.0)


@pytest.mark.parametrize("tag, phase", [("generic", 0.5), ("even", 2.0)])
def test_kernel_far_out_stays_finite(tag, phase, kernel_centers, mp_kernel):
    # 2e4 wavelengths out, Gamma s1 reaches 1,257 at Gamma = 0.01 Omega,
    # where e^{i a s1} alone overflows: the far positions add their
    # winding point by point, and the field stays finite and accurate
    # on both sides of the light front
    p = ModelParams.from_phase(OMEGA_Q, 0.02 * OMEGA_Q, phase)
    rates = collective_rates(p)
    wavelength = 2.0 * np.pi * p.v_g / p.omega_q
    x = np.array([1e4, 2e4]) * wavelength + p.distance
    for a in kernel_centers(p).values():
        s1 = x / p.v_g
        assert -complex(a).imag * s1[1] > 709.0 or complex(a).imag == 0
        for lag in (1e-9, 1e-6, 1e-3, 0.1):
            t = s1 * (1.0 + lag)
            got = fields.closed_kernel(s1, t, a)
            assert np.all(np.isfinite(got))
            for k in range(2):
                ref = complex(mp_kernel(s1[k], t[k], a))
                assert abs(got[k] - ref) <= 1e-15 * (1.0 + abs(a) * t[k]) \
                    * max(abs(ref), 1.0)
    grid = fields.space_time_grid(p, x, x.max() / p.v_g * np.array(
        [1.0 + 1e-9, 1.001, 1.1]))
    field = fields.forward_field(grid, rates, p, "transient")
    assert np.all(np.isfinite(field.u))


