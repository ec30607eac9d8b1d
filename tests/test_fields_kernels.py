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
from wqed.model import ModelParams, collective_rates
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
    # with a longer quadrature cutoff the oracle itself sharpens and the
    # agreement drops well below the routine tolerance
    p = _preset("generic")
    centers = kernel_centers(p)
    t = 20.0 / p.gamma
    worst = 0.0
    for center, s1 in (("decay_plus", 2.0 * p.distance / p.v_g),
                       ("drive", 1.5 * p.distance / p.v_g)):
        a = centers[center]
        closed = fields.closed_kernel(s1, t, a)
        brute = quad_kernel(s1, t, a, p, cutoff_factor=40.0)
        worst = max(worst, abs(complex(closed) - brute) / abs(brute))
    assert worst < 1e-5


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


@pytest.mark.parametrize("region", ["Behind", "Between", "Before"])
@pytest.mark.parametrize("tag", TAGS)
def test_batched_channel_sum_matches_per_pair_writing_bit_for_bit(
        tag, region, per_pair_closed_kernel, monkeypatch):
    # the six kernels of a transient channel sum, taken together, give the
    # bits of six separate per-pair kernels, and so does the field itself
    # on a drive axis of three carriers
    p = _preset(tag)
    rates = collective_rates(p)
    grid = _batch_grid(region, p)
    omega = np.array([0.995, 1.0, 1.005]) * p.omega_q
    d, v_g = p.distance, p.v_g
    tt = grid.t[:, None]
    centers = (p.omega_q - 1j * rates.gamma_plus,
               p.omega_q - 1j * rates.gamma_minus, omega[:, None, None])
    for y1, y2 in ((grid.x, grid.x - d), (-grid.x, -(grid.x - d))):
        pairs = [(y[None, :] / v_g, a) for a in centers for y in (y1, y2)]
        batched = fields._closed_kernels(pairs, tt)
        for (s1, a), got in zip(pairs, batched):
            assert got.tobytes() == per_pair_closed_kernel(s1, tt, a).tobytes()
    if region == "Before":
        s1, s2 = -(grid.x - d) / v_g, -(grid.x - d) / v_g - tt
        wind = (s2 < 0).astype(int) - (s1 < 0).astype(int)
        assert wind.min() == 0 and wind.max() == 1
    batched = fields._drive_fields(grid, rates, p, omega, "transient")
    monkeypatch.setattr(fields, "_closed_kernels", lambda pairs, t: [
        per_pair_closed_kernel(s1, t, a) for s1, a in pairs])
    per_pair = fields._drive_fields(grid, rates, p, omega, "transient")
    for got, want in zip(batched[1:], per_pair[1:]):
        assert got.tobytes() == want.tobytes()
