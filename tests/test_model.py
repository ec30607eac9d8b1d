"""Parameter handling, regime classification, and collective channels."""

import numpy as np
import pytest

from wqed.model import (
    PHASE_SNAP_TOL,
    ModelParams,
    Regime,
    classify_regime,
    collective_rates,
    coupling_weights,
)

OMEGA_Q = 2.0 * np.pi * 5.0e9


def test_constructor_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        ModelParams.create(OMEGA_Q, -1.0, 0.01)
    with pytest.raises(ValueError):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.0)
    with pytest.raises(ValueError):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.01, amplitude=0.0)
    with pytest.raises(ValueError):
        ModelParams.create(np.inf, 0.01 * OMEGA_Q, 0.01)


@pytest.mark.parametrize("amplitude", [1e-160, 1e-200, 1e155, 1e200])
def test_constructor_rejects_amplitude_without_a_normal_square(amplitude):
    # 1e-160^2 is subnormal, 1e-200^2 is 0 and 1e155^2 overflows
    with pytest.raises(ValueError, match="amplitude\\^2"):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.01, amplitude=amplitude)
    for kept in (1e-150, 1e150):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.01, amplitude=kept)


@pytest.mark.parametrize("amplitude", [1e-153, 1e153, 1e154])
def test_constructor_rejects_amplitude_square_beyond_1e300(amplitude):
    # a normal square, but too near the ends of float64 for what the
    # outputs do with it: square envelopes larger than A, sum thousands
    with pytest.raises(ValueError, match="amplitude\\^2"):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.01, amplitude=amplitude)


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_constructor_rejects_nonpositive_pulse_width(width):
    # and a non-finite one: NaN would give an all-NaN continuum trajectory,
    # inf a misleading complaint about the mode frequencies
    with pytest.raises(ValueError, match="pulse_width"):
        ModelParams.create(OMEGA_Q, 0.01 * OMEGA_Q, 0.01, pulse_width=width)


def test_strong_coupling_warning_threshold():
    with pytest.warns(UserWarning):
        ModelParams.from_phase(OMEGA_Q, 0.2 * OMEGA_Q, 0.5)
    # the boundary case itself stays silent
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams.from_phase(OMEGA_Q, 0.1 * OMEGA_Q, 5.0)


def test_derived_quantities(weak_generic):
    p = weak_generic
    assert p.wavelength == pytest.approx(2.0 * np.pi * p.v_g / p.omega_q)
    assert p.phase_across(p.omega_q) == pytest.approx(p.qubit_phase)
    assert p.qubit_phase == pytest.approx(np.pi / 2, rel=1e-12)
    # Gamma = 4 pi g^2
    assert 4.0 * np.pi * p.coupling ** 2 == pytest.approx(p.gamma, rel=1e-12)


def test_with_drive_returns_detuned_copy(weak_generic):
    p = weak_generic.with_drive(1.01 * weak_generic.omega_q)
    assert p.omega_s == pytest.approx(1.01 * weak_generic.omega_q)
    assert weak_generic.omega_s == weak_generic.omega_q  # original untouched


def test_regime_classification(all_presets):
    expected = {
        "generic": Regime.GENERIC,
        "even": Regime.EVEN_PI,
        "odd": Regime.ODD_PI,
        "strong": Regime.ODD_PI,
    }
    for tag, params in all_presets.items():
        assert classify_regime(params) is expected[tag]


def test_regime_snap_tolerance():
    # 1e-12 rad off an odd multiple of pi still snaps; 1e-6 rad does not
    base = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 1.0)
    nudged = ModelParams.create(
        base.omega_q, base.gamma, base.distance * (1.0 + 1e-13))
    assert classify_regime(nudged) is Regime.ODD_PI
    pushed = ModelParams.create(
        base.omega_q, base.gamma, base.distance * (1.0 + 1e-6))
    assert classify_regime(pushed) is Regime.GENERIC


def test_collective_rates_sum_to_gamma():
    rng = np.random.default_rng(7)
    for phase in rng.uniform(0.1, 8.0, 40):
        p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase)
        r = collective_rates(p)
        total = r.gamma_plus + r.gamma_minus
        assert abs(total - p.gamma) <= 1e-12 * p.gamma
        assert abs(total.imag) <= 1e-12 * p.gamma


def test_pinned_regimes_have_exact_dark_channel(weak_even, weak_odd):
    r_even = collective_rates(weak_even)
    assert r_even.gamma_minus == 0.0
    assert r_even.gamma_plus == pytest.approx(weak_even.gamma, rel=1e-15)
    r_odd = collective_rates(weak_odd)
    assert r_odd.gamma_plus == 0.0
    assert r_odd.gamma_minus == pytest.approx(weak_odd.gamma, rel=1e-15)


def test_generic_rates_match_half_gamma_formula(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    gp, gm = r.gamma_plus, r.gamma_minus
    phase = np.exp(1j * p.qubit_phase)
    assert gp == pytest.approx(0.5 * p.gamma * (1.0 + phase), rel=1e-12)
    assert gm == pytest.approx(0.5 * p.gamma * (1.0 - phase), rel=1e-12)


def test_dark_channel_weight_finite_at_resonance(weak_even, weak_odd):
    # the dark channel's weight is a removable 0/0 at omega_s = Omega
    for p in (weak_even, weak_odd):
        regime = classify_regime(p)
        c_plus, c_minus = coupling_weights(p, p.omega_s)
        dark = c_minus if regime is Regime.EVEN_PI else c_plus
        assert np.isfinite(dark)
        # exact limit A g (i d / v_g)
        limit = p.amplitude * p.coupling * 1j * p.distance / p.v_g
        assert dark == pytest.approx(limit, rel=1e-9)


def test_dark_weight_sinc_matches_direct_quotient_off_resonance(weak_even):
    # away from resonance the sinc rewriting must equal the raw quotient
    p = weak_even
    omega = p.omega_q * (1.0 + 3e-4)
    c_plus, c_minus = coupling_weights(p, omega)
    a_g = p.amplitude * p.coupling
    # the raw quotient with the snapped carrier e^{i k_Omega d} = +1
    eps = (omega - p.omega_q) * p.distance / p.v_g
    raw = a_g * (1.0 - np.exp(1j * eps)) / (p.omega_q - omega)
    assert complex(c_minus) == pytest.approx(complex(raw), rel=1e-9)


def test_rates_and_weights_continuous_across_the_snap():
    # k_Omega*d just inside PHASE_SNAP_TOL of 2 pi is EvenPi, just outside
    # it Generic; the two pairs differ by 2e-11 rad in phase, and their
    # rates and weights by the snap: measured 5.05e-10 Gamma for the rates
    # and at most 5.1e-10 (bright) and 3.1e-9 (dark) relative for the
    # weights, at carriers 5 to 10 Gamma off resonance on either side
    carriers = np.array([0.9, 0.95, 1.05, 1.1]) * OMEGA_Q
    for side in (-1.0, 1.0):
        inside, outside = (
            ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q,
                                   2.0 + side * k * PHASE_SNAP_TOL / np.pi)
            for k in (0.99, 1.01))
        assert classify_regime(inside) is Regime.EVEN_PI
        assert classify_regime(outside) is Regime.GENERIC
        pinned, generic = collective_rates(inside), collective_rates(outside)
        for a, b in ((pinned.gamma_plus, generic.gamma_plus),
                     (pinned.gamma_minus, generic.gamma_minus)):
            assert abs(a - b) < 1e-9 * inside.gamma
        for a, b in zip(coupling_weights(inside, carriers),
                        coupling_weights(outside, carriers)):
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-8


def _same_bits(got, want):
    """Equal float views, signed zeros included."""
    got, want = (np.atleast_1d(np.asarray(x, dtype=complex)).view(float)
                 for x in (got, want))
    return np.array_equal(got, want) \
        and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("phase_over_pi, regime", [
    (0.5, Regime.GENERIC), (2.0, Regime.EVEN_PI), (1.0, Regime.ODD_PI),
    (5.0, Regime.ODD_PI), (2.0 + 3e-10 / np.pi, Regime.EVEN_PI)],
    ids=["generic", "even", "odd", "odd_5pi", "even_inside_snap"])
def test_model_matches_per_regime_writing_bit_for_bit(phase_over_pi, regime,
                                                      per_regime_model):
    # rates and weights built on the snapped P give the bits of the
    # per-regime writing of the parameters' own regime, at omega = Omega
    # and on a 2,000-carrier axis; the dark rate is an exact +0
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase_over_pi)
    assert classify_regime(p) is regime
    rates_ref, weights_ref = per_regime_model
    r = collective_rates(p)
    rates = (r.gamma_plus, r.gamma_minus)
    for got, want in zip(rates, rates_ref(p, regime)):
        assert _same_bits(got, want)
    for omega in (p.omega_q, np.linspace(0.8, 1.2, 2000) * p.omega_q):
        for got, want in zip(coupling_weights(p, omega),
                             weights_ref(p, regime, omega)):
            assert _same_bits(got, want)
    if regime is not Regime.GENERIC:
        assert _same_bits(rates[regime is Regime.EVEN_PI], 0j)


def test_regime_tag_prints_bare_value():
    assert str(Regime.EVEN_PI) == "EvenPi"
    assert str(Regime.GENERIC) == "Generic"
