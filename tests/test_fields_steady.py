"""Grid validation, transient-to-steady handoff, and resonance peaks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import fields, validation
from wqed.model import ModelParams, collective_rates
from wqed.oracle import quad_field_backward, quad_field_forward


def test_grid_region_inference(weak_generic):
    p = weak_generic
    d = p.distance
    t = [5e-7]
    assert fields.space_time_grid(p, [-2 * d], t).region is fields.Region.BEFORE
    assert fields.space_time_grid(p, [0.5 * d], t).region is fields.Region.BETWEEN
    assert fields.space_time_grid(p, [3 * d], t).region is fields.Region.BEHIND


def test_grid_rejects_mixed_regions(weak_generic):
    d = weak_generic.distance
    with pytest.raises(ValueError):
        fields.space_time_grid(weak_generic, [-d, 2 * d], [5e-7])


def test_grid_rejects_region_mismatch(weak_generic):
    d = weak_generic.distance
    with pytest.raises(ValueError):
        fields.space_time_grid(weak_generic, [3 * d], [5e-7],
                               region=fields.Region.BEFORE)


def test_grid_rejects_nonpositive_times(weak_generic):
    d = weak_generic.distance
    with pytest.raises(ValueError):
        fields.space_time_grid(weak_generic, [3 * d], [0.0])


def test_grid_refuses_phases_past_two_to_the_53(weak_generic):
    # past omega t = 2^53 the rounding of t alone moves a phase by a
    # radian or more
    p = weak_generic.with_drive(1.007 * weak_generic.omega_q)
    bound = 2 ** 53 / max(p.omega_q, p.omega_s)
    x = [3 * p.distance]
    grid = fields.space_time_grid(p, x, [1e-6, np.nextafter(bound, 0.0)])
    assert grid.t.max() < bound
    with pytest.raises(ValueError, match=r"2\^53"):
        fields.space_time_grid(p, x, [1e-6, np.nextafter(bound, np.inf)])


def test_grid_enforces_causality(weak_generic):
    p = weak_generic
    d = p.distance
    # incident front has not reached x yet
    with pytest.raises(ValueError):
        fields.space_time_grid(p, [3 * d], [0.5 * 3 * d / p.v_g])
    # first backward emission has not reached x yet
    with pytest.raises(ValueError):
        fields.space_time_grid(p, [-4 * d], [2 * d / p.v_g])


def test_grid_rejects_light_front_alignment(weak_generic):
    p = weak_generic
    t = 2.0e-10
    x = p.v_g * t  # exactly on the front
    with pytest.raises(ValueError):
        fields.space_time_grid(p, [x], [t])
    # x = -2 d at t = 3 d/v_g lies on the backward front from the second
    # qubit, x - d = -v_g t, and passes the causality check, x + v_g t > 0
    x, t = -2.0 * p.distance, 3.0 * p.distance / p.v_g
    assert p.v_g * t == -(x - p.distance)
    with pytest.raises(ValueError, match="exactly on the light front"):
        fields.space_time_grid(p, [x], [t])


@pytest.mark.parametrize("axis", ["x", "t"])
def test_grid_rejects_nan_coordinates(axis, weak_generic):
    # a NaN time would pass every comparison after the finiteness check
    x, t = [3 * weak_generic.distance], [5e-7]
    if axis == "x":
        x = [np.nan]
    else:
        t = [np.nan]
    with pytest.raises(ValueError, match="finite"):
        fields.space_time_grid(weak_generic, x, t)


def test_grid_enforces_qubit_exclusion_zone(weak_generic):
    p = weak_generic
    d = p.distance
    for x in (0.03 * d, 0.98 * d, -0.02 * d, 1.01 * d):
        with pytest.raises(ValueError):
            fields.space_time_grid(p, [x], [5e-7])
    # the boundary itself is allowed, including through rounding noise
    fields.space_time_grid(p, [0.05 * d], [5e-7])
    fields.space_time_grid(p, [1.05 * d], [5e-7])
    fields.space_time_grid(p, [-0.05 * d], [5e-7])


def test_incident_wave_has_drive_amplitude(weak_generic):
    p = weak_generic.with_drive(1.003 * weak_generic.omega_q)
    x = np.linspace(1.1, 6.0, 7) * p.distance
    inc = fields.incident_plane_wave(x, 3e-7, p)
    np.testing.assert_allclose(np.abs(inc), p.amplitude, rtol=1e-12)


def test_forward_transient_approaches_steady(weak_generic):
    p = weak_generic.with_drive(1.004 * weak_generic.omega_q)
    r = collective_rates(p)
    x = np.array([2.0, 3.5, 5.0]) * p.distance
    t = 1.0e-4  # far beyond both steady gates
    grid = fields.space_time_grid(p, x, [t])
    transient = fields.forward_field(grid, r, p, branch="transient").u
    steady = fields.forward_field(grid, r, p, branch="steady").u
    assert np.max(np.abs(transient - steady)) < 1e-6


def test_backward_transient_approaches_steady(weak_generic):
    p = weak_generic.with_drive(1.004 * weak_generic.omega_q)
    r = collective_rates(p)
    x = np.array([-5.0, -2.0, -0.5]) * p.distance
    t = 1.0e-4
    grid = fields.space_time_grid(p, x, [t])
    transient = fields.backward_field(grid, r, p, branch="transient").v
    steady = fields.backward_field(grid, r, p, branch="steady").v
    assert np.max(np.abs(transient - steady)) < 1e-4


# positions in units of d and the envelope checked in each region
LATE_REGIONS = {"behind": ([1.5, 3.0, 5.0], "u"),
                "before": ([-5.0, -2.0, -0.5], "v"),
                "between": ([0.2, 0.5, 0.8], "w")}


@pytest.mark.parametrize("phase", [0.8, 2.0, 1.0, 5.0, 1.0 + 5e-9 / np.pi],
                         ids=["generic", "even", "odd", "odd5", "near_odd"])
@pytest.mark.parametrize("region", sorted(LATE_REGIONS))
def test_steady_is_the_late_time_limit_in_every_regime(phase, region):
    # the steady field is each kernel's t -> inf limit, so long after both
    # gates the transient field must have settled on it; in the pinned
    # regimes that includes the plane left by the dark channel's real pole.
    # 5e-9 rad off pi the regime is Generic, but the symmetric channel's
    # width Gamma/2 (1 + cos kd) rounds to an exact zero, so its pole is
    # real and leaves a plane too
    x_over_d, envelope = LATE_REGIONS[region]
    omega_q = 2.0 * np.pi * 5.0e9
    p = ModelParams.from_phase(omega_q, 0.01 * omega_q, phase,
                               omega_s=1.004 * omega_q)
    r = collective_rates(p)
    grid = fields.space_time_grid(p, np.array(x_over_d) * p.distance, [1e-4])
    pick = "uvw".index(envelope) + 1
    transient = fields.drive_sweep(grid, r, p, [p.omega_s], "transient")[pick]
    steady = fields.drive_sweep(grid, r, p, [p.omega_s], "steady")[pick]
    diff = transient[0] - steady[0]
    assert np.max(np.abs(diff)) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("side", [-1.0, 1.0])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(t=st.floats(2e-9, 1e-7), detuning=st.floats(-0.01, 0.01))
def test_transient_field_is_continuous_across_the_snap(n, side, t, detuning):
    # 0.99e-9 rad off n pi the regime is pinned, 1.01e-9 rad off it is
    # Generic; the transient u at x = 1.5 d may move only as much as the
    # 0.02e-9 rad between the two phases moves it
    omega_q = 2.0 * np.pi * 5.0e9

    def u(offset):
        p = ModelParams.from_phase(omega_q, 0.01 * omega_q,
                                   n + side * offset / np.pi,
                                   omega_s=(1.0 + detuning) * omega_q)
        grid = fields.space_time_grid(p, [1.5 * p.distance], [t])
        return fields.forward_field(grid, collective_rates(p), p,
                                    "transient").u[0, 0]

    assert abs(u(1.01e-9) - u(0.99e-9)) < 1e-8


def test_every_slice_carries_u_v_and_w(weak_even):
    # u is the incident wave plus the forward-scattered field (incident
    # only before the pair), v the backward-scattered field (zero behind
    # the pair), and w = u + v, in every region
    p = weak_even.with_drive(1.004 * weak_even.omega_q)
    r = collective_rates(p)
    for x_over_d in ([-2.0, -0.5], [0.3, 0.7], [1.5, 3.0]):
        grid = fields.space_time_grid(p, np.array(x_over_d) * p.distance,
                                      [3e-7, 5e-6])
        _, (u,), (v,), (w,) = fields.drive_sweep(grid, r, p, [p.omega_s])
        incident = fields.incident_plane_wave(grid.x[None, :],
                                              grid.t[:, None], p)
        if grid.region is fields.Region.BEFORE:
            np.testing.assert_array_equal(u, incident)
        if grid.region is fields.Region.BEHIND:
            np.testing.assert_array_equal(v, 0.0)
        assert u.shape == v.shape == w.shape == (2, 2)
        np.testing.assert_array_equal(w, u + v)


def test_auto_stays_transient_before_the_last_emission_arrives(
        weak_generic):
    # at x = 0.3 d and t = 0.5 d/v_g the emission from the second qubit
    # has not arrived yet (the lag behind it is negative)
    p = weak_generic
    r = collective_rates(p)
    grid = fields.space_time_grid(p, [0.3 * p.distance],
                                  [0.5 * p.distance / p.v_g])
    assert fields.interqubit_field(grid, r, p).branch \
        is fields.FieldBranch.TRANSIENT


def test_auto_waits_for_the_exponential_transients():
    # at Gamma = 1e-6 Omega the 1/t tails pass their gate 1e-4 s after the
    # front, but the decaying channels need about 18/gamma: only the decay
    # gate tells the two lags apart
    p = ModelParams.from_phase(2.0 * np.pi * 5.0e9, 2.0 * np.pi * 5.0e3, 0.5)
    r = collective_rates(p)
    x = 3.0 * p.distance
    for lag, branch in ((1e-4, fields.FieldBranch.TRANSIENT),
                        (1e-2, fields.FieldBranch.STEADY)):
        grid = fields.space_time_grid(p, [x], [x / p.v_g + lag])
        assert p.omega_q * lag > 1e6
        assert fields.forward_field(grid, r, p).branch is branch


def test_auto_branch_labels_the_slice(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    x = [3 * p.distance]
    # exponential transients are dead well before 1e-5 s, but the 1/t
    # algebraic tail still exceeds its gate there
    early = fields.forward_field(
        fields.space_time_grid(p, x, [1e-5]), r, p, branch="auto")
    late = fields.forward_field(
        fields.space_time_grid(p, x, [1e-4]), r, p, branch="auto")
    assert early.branch is fields.FieldBranch.TRANSIENT
    assert late.branch is fields.FieldBranch.STEADY
    # and the two branches agree where the steady one is trusted
    forced = fields.forward_field(
        fields.space_time_grid(p, x, [1e-4]), r, p, branch="transient")
    assert np.max(np.abs(late.u - forced.u)) < 1e-6


def test_forward_field_matches_quadrature_oracle(weak_generic):
    # the oracle integrates the scattered part only; the closed field adds
    # the incident carrier on top of it
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    r = collective_rates(p)
    x, t = 3.0 * p.distance, 2.0e-7
    grid = fields.space_time_grid(p, [x], [t])
    closed = fields.forward_field(grid, r, p, branch="transient").u[0, 0]
    scattered = quad_field_forward(x, t, r, p)
    incident = fields.incident_plane_wave(x, t, p)
    assert abs(closed - incident - scattered) / abs(closed) < 1e-4


def test_backward_field_matches_quadrature_oracle(weak_generic):
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    r = collective_rates(p)
    x, t = -2.0 * p.distance, 2.0e-7
    grid = fields.space_time_grid(p, [x], [t])
    closed = fields.backward_field(grid, r, p, branch="transient").v[0, 0]
    scattered = quad_field_backward(x, t, r, p)
    assert abs(closed - scattered) / abs(scattered) < 1e-4


def test_interqubit_slice_is_additive(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.05, 0.95, 100) * p.distance
    x.sort()
    grid = fields.space_time_grid(p, x, [5e-6])
    sl = fields.interqubit_field(grid, r, p, branch="steady")
    np.testing.assert_allclose(sl.w, sl.u + sl.v, rtol=0, atol=1e-14)


def test_resonance_peaks_match_steady_energies(all_presets):
    # closed resonance-peak formulas against the steady fields they
    # summarize, in every regime that has a dedicated formula
    cases = [all_presets["generic"], all_presets["even"]]
    assert validation.peaks_vs_steady(cases) < 1e-8


def test_field_functions_refuse_the_wrong_region(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    d = p.distance
    t = [5.0e-6]
    before = fields.space_time_grid(p, [-2.0 * d], t)
    behind = fields.space_time_grid(p, [2.0 * d], t)
    with pytest.raises(ValueError, match="between or behind"):
        fields.forward_field(before, r, p)
    with pytest.raises(ValueError, match="before or between"):
        fields.backward_field(behind, r, p)
    for grid in (before, behind):
        with pytest.raises(ValueError, match="Between grid"):
            fields.interqubit_field(grid, r, p)
    with pytest.raises(ValueError, match="x > d"):
        fields.transmitted_resonance_peak([0.5 * d, 2.0 * d], p)
    with pytest.raises(ValueError, match="x < 0"):
        fields.reflected_resonance_peak([-2.0 * d, 0.5 * d], p)
    for x in (-0.5 * d, 1.5 * d):
        with pytest.raises(ValueError, match="0 < x < d"):
            fields.interqubit_resonance_peak([x], p)


def test_resonance_peak_refuses_odd_regime(weak_odd):
    # the half-wave regime has no printed closed peak form; asking for one
    # must fail loudly rather than silently reuse a wrong branch
    x = np.array([-2.0]) * weak_odd.distance
    with pytest.raises(ValueError):
        fields.reflected_resonance_peak(x, weak_odd)


def test_interqubit_resonance_peak_refuses_pinned_regimes(weak_even,
                                                          weak_odd):
    # the inter-qubit formula is the generic one; in a pinned regime it
    # would silently return a wrong curve (0.0041 against a steady 1.077
    # at kd = 2 pi, x = 0.25 d)
    for p in (weak_even, weak_odd):
        with pytest.raises(ValueError, match="generic regime"):
            fields.interqubit_resonance_peak(np.array([0.25]) * p.distance, p)


def test_interqubit_resonance_peak_matches_steady_energy(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    x = np.array([0.25, 0.5, 0.75]) * p.distance
    grid = fields.space_time_grid(p, x, [5e-6])
    sl = fields.interqubit_field(grid, r, p, branch="steady")
    formula = fields.interqubit_resonance_peak(x, p)
    assert np.max(np.abs(np.abs(sl.w[0]) ** 2 - formula)) < 1e-8


def test_reflected_peak_exceeds_unity_then_relaxes(weak_generic):
    p = weak_generic
    x = np.linspace(-6.0, -0.05, 1191) * p.distance
    peak = fields.reflected_resonance_peak(x, p)
    assert np.max(peak) > 1.0
    far = -200.0 * p.wavelength
    assert abs(fields.reflected_resonance_peak(np.array([far]), p)[0] - 1.0) \
        < 0.01


def test_beat_note_spectrum_peaks_at_detuning(weak_even):
    p = weak_even.with_drive(1.01 * weak_even.omega_q)
    _, energy = fields.beat_note_series(p, 2.0 * p.distance,
                                        n_periods=40, n_samples=4096)
    freqs, mag, peak, expected = fields.beat_note_fft(energy, p, 40)
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - expected) <= bin_width
    assert expected == pytest.approx(0.01 * p.omega_q / (2 * np.pi))


@pytest.mark.parametrize("n_periods, n_samples", [(40, 80), (100, 100)])
def test_beat_note_needs_more_than_two_samples_a_beat(weak_even, n_periods,
                                                      n_samples):
    # at or below two samples a beat the FFT peak aliases, or sits on the
    # Nyquist bin, where its height depends on the beat's phase
    p = weak_even.with_drive(1.01 * weak_even.omega_q)
    with pytest.raises(ValueError, match="n_samples .* n_periods"):
        fields.beat_note_series(p, 2.0 * p.distance, n_periods=n_periods,
                                n_samples=n_samples)
    t, _ = fields.beat_note_series(p, 2.0 * p.distance, n_periods=n_periods,
                                   n_samples=2 * n_periods + 1)
    assert t.size == 2 * n_periods + 1


@pytest.mark.parametrize("n_periods", [0, -3])
def test_beat_functions_need_a_whole_period(weak_even, n_periods):
    # n_periods = 0 gave one repeated sample time and a ZeroDivisionError
    p = weak_even.with_drive(1.01 * weak_even.omega_q)
    with pytest.raises(ValueError, match="n_periods must be at least 1"):
        fields.beat_note_series(p, 2.0 * p.distance, n_periods=n_periods)
    with pytest.raises(ValueError, match="n_periods must be at least 1"):
        fields.beat_note_fft(np.ones(64), p, n_periods)


def test_beat_note_needs_detuning(weak_even):
    with pytest.raises(ValueError):
        fields.beat_note_series(weak_even, 2.0 * weak_even.distance)
