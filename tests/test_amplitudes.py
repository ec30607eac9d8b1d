"""Closed-form qubit and spectral amplitudes against the brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import validation
from wqed.model import ModelParams, collective_rates
from wqed.oracle import quad_field_forward
from wqed.amplitudes import (
    phase_integral,
    qubit_amplitudes,
    channel_time_integrals,
    spectral_amplitudes,
)


def test_phase_integral_matches_direct_quotient():
    rng = np.random.default_rng(11)
    t = 3.7e-9
    z = rng.uniform(-5e9, 5e9, 200) + 1j * rng.uniform(-5e8, 5e8, 200)
    direct = (np.exp(1j * z * t) - 1.0) / z
    val = phase_integral(z, t)
    assert np.max(np.abs(val - direct) / np.abs(direct)) < 1e-12


def test_phase_integral_removable_zero():
    t = 2.0e-9
    assert phase_integral(0.0, t) == pytest.approx(1j * t, rel=1e-14)
    # continuity through the removable point
    small = phase_integral(1e-4, t)
    assert abs(small - 1j * t) < 1e-10 * t


def test_qubit_amplitudes_start_from_rest(weak_generic):
    state = qubit_amplitudes(weak_generic, 0.0)
    assert abs(state.beta_1[0]) == 0.0
    assert abs(state.beta_2[0]) == 0.0


def test_qubit_amplitudes_reject_negative_times(weak_generic):
    with pytest.raises(ValueError):
        qubit_amplitudes(weak_generic, [-1e-9])


@pytest.mark.parametrize("call", [
    pytest.param(lambda p: qubit_amplitudes(p, [np.nan, np.inf]),
                 id="qubit_t")])
def test_amplitudes_refuse_non_finite_inputs(call, weak_generic):
    # a NaN or infinite time would come back as NaN amplitudes with only
    # a RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        call(weak_generic)


@pytest.mark.parametrize("function", [channel_time_integrals,
                                      spectral_amplitudes],
                         ids=["channel", "spectral"])
@pytest.mark.parametrize("omega_over_q, t, match", [
    ([1.0, np.nan], 1e-9, "finite"), ([1.0], np.inf, "finite"),
    ([1.0], -1e-6, "non-negative"), ([0.0], 1e-9, "positive"),
    ([-1.0], 1e-9, "positive")],
    ids=["omega_nan", "t_inf", "t_negative", "omega_zero", "omega_negative"])
def test_spectral_inputs_are_refused(function, omega_over_q, t, match,
                                     weak_generic):
    # frequencies must be finite and > 0, the time finite and >= 0: else
    # the integrals come back NaN, overflow, or describe no physical mode;
    # one NaN among good frequencies is enough
    omega = np.multiply(omega_over_q, weak_generic.omega_q)
    with pytest.raises(ValueError, match=match):
        function(weak_generic, omega, t)


@pytest.mark.parametrize("t_over_gamma", [[1.0], [1.0, 2.0]],
                         ids=["one", "two"])
def test_spectral_amplitudes_refuse_an_array_time(t_over_gamma, weak_generic):
    # the amplitudes are at one time; the channel integrals, which
    # broadcast omega against t, still take an array
    p = weak_generic
    t = np.divide(t_over_gamma, p.gamma)
    with pytest.raises(ValueError, match="scalar"):
        spectral_amplitudes(p, p.omega_q, t)
    d_plus, d_minus = channel_time_integrals(p, p.omega_q, t)
    assert d_plus.shape == d_minus.shape == t.shape


def test_qubit_amplitudes_match_ode_generic(weak_generic):
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    assert validation.amplitudes_vs_ode([p]) < 1e-6


def test_qubit_amplitudes_match_ode_even(weak_even):
    p = weak_even.with_drive(1.01 * weak_even.omega_q)
    assert validation.amplitudes_vs_ode([p]) < 1e-6


def test_subradiant_beat_survives_at_even_phase(weak_even, weak_generic):
    # with the antisymmetric channel dark its Omega-carrier oscillation
    # never damps, so the late-time population keeps beating at the drive
    # detuning; at generic phase both channels decay and the late
    # population is flat at the drive-locked value
    detune = 1.05
    contrasts = {}
    for tag, base in (("even", weak_even), ("generic", weak_generic)):
        p = base.with_drive(detune * base.omega_q)
        t = np.linspace(15.0, 20.0, 512) / p.gamma
        pop = qubit_amplitudes(p, t).population
        contrasts[tag] = (pop.max() - pop.min()) / pop.mean()
    assert contrasts["even"] > 0.02
    assert contrasts["generic"] < 5e-3


def test_channel_time_integrals_build_from_phase_integrals(weak_generic):
    p = weak_generic.with_drive(1.002 * weak_generic.omega_q)
    r = collective_rates(p)
    omega = np.array([0.999, 1.0, 1.004]) * p.omega_q
    t = 5.0 / p.gamma
    d_plus, d_minus = channel_time_integrals(p, omega, t)
    ref_plus = phase_integral(omega - p.omega_q + 1j * r.gamma_plus, t) \
        - phase_integral(omega - p.omega_s, t)
    np.testing.assert_allclose(d_plus, ref_plus, rtol=1e-14)
    ref_minus = phase_integral(omega - p.omega_q + 1j * r.gamma_minus, t) \
        - phase_integral(omega - p.omega_s, t)
    np.testing.assert_allclose(d_minus, ref_minus, rtol=1e-14)


def test_spectral_amplitudes_match_time_quadrature(weak_generic, weak_even,
                                                  weak_odd):
    # the pinned regimes carry a dark channel whose weight enters the
    # spectral algebra
    regimes = {"generic": weak_generic, "even": weak_even, "odd": weak_odd}
    for tag, base in regimes.items():
        p = base.with_drive(1.005 * base.omega_q)
        omegas = (0.995 * p.omega_q, 1.01 * p.omega_q)
        err = validation.spectral_vs_quadrature(p, omegas, 10.0 / p.gamma)
        assert err < 1e-9, (tag, err)


def test_spectral_amplitudes_forward_backward_coincide_at_resonance(weak_odd):
    # at k_Omega*d = pi and omega = Omega the propagation factors are equal
    # and opposite for the two qubits, so |forward| = |backward|
    p = weak_odd
    forward, backward = spectral_amplitudes(p, p.omega_q, 8.0 / p.gamma)
    assert abs(abs(forward[0]) - abs(backward[0])) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(phase=st.sampled_from([0.5, 2.0, 1.0]), ratio=st.floats(0.8, 1.2))
def test_rates_belong_to_the_pair_not_the_drive(phase, ratio):
    # the rates are the pair's; a carrier enters only through its channel
    # weights, so rates built for any drive give the same bits
    base = ModelParams.from_phase(2.0 * np.pi * 5.0e9, 2.0 * np.pi * 5.0e7,
                                  phase)
    p = base.with_drive(ratio * base.omega_q)
    rates, own = collective_rates(base), collective_rates(p)
    assert rates == own
    t = np.linspace(0.0, 20.0 / p.gamma, 65)
    omega = np.linspace(0.9, 1.1, 33) * p.omega_q

    def bits(r):
        state = qubit_amplitudes(p, t)
        forward, backward = spectral_amplitudes(p, omega, 5.0 / p.gamma)
        field = np.complex128(quad_field_forward(2.3 * p.distance,
                                                 20.0 / p.gamma, r, p))
        return [a.tobytes() for a in (state.beta_1, state.beta_2,
                                      forward, backward, field)]

    assert bits(rates) == bits(own)
