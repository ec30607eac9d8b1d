"""Transmittance, reflectance, flux bookkeeping, and the exact-lattice forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import fields
from wqed.model import ModelParams, collective_rates

OMEGA_Q = 2.0 * np.pi * 5.0e9

gamma_ratios = st.floats(0.005, 0.1)
# k_Omega d / pi anywhere in (0, 6] (from 1e-6 up, so that d is no
# subnormal), or 1e-10 to 1e-6 rad either side of an n pi, where the
# regime snaps within 1e-9 rad and is Generic beyond
any_phase = st.floats(1e-6, 6.0)
near_n_pi = st.builds(
    lambda n, sign, log10_offset: n + sign * 10.0 ** log10_offset / np.pi,
    st.integers(1, 6), st.sampled_from([-1.0, 1.0]), st.floats(-10.0, -6.0))
phases = st.one_of(any_phase, near_n_pi)


def _params(gamma_ratio, phase_over_pi):
    with warnings.catch_warnings():
        # Gamma/Omega = 0.1 sits on the strong-coupling warning's edge
        warnings.simplefilter("ignore", UserWarning)
        return ModelParams.from_phase(OMEGA_Q, gamma_ratio * OMEGA_Q,
                                      phase_over_pi)


@pytest.mark.parametrize("phase_over_pi", [0.5, 1.0, 2.0, 5.0])
def test_resonance_is_a_perfect_mirror(phase_over_pi):
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase_over_pi)
    t_res, r_res = fields.markov_spectra(p.omega_q, p)
    assert abs(t_res) < 1e-12
    assert abs(r_res - 1.0) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gamma_ratio=gamma_ratios, phase=phases)
def test_resonance_is_a_perfect_mirror_at_any_phase(gamma_ratio, phase):
    # both the Markov and the exact-lattice forms, snapped or not
    p = _params(gamma_ratio, phase)
    for t_res, r_res in (fields.markov_spectra(p.omega_q, p),
                         fields.nonmarkov_spectra(p.omega_q, p)):
        assert abs(t_res) < 1e-12
        assert abs(r_res - 1.0) < 1e-12


def test_far_detuning_is_transparent(weak_generic):
    # 50 Gamma = Omega/2 either side; 100 Gamma below is omega = 0, which
    # the spectra refuse
    p = weak_generic
    for sign in (-1.0, 1.0):
        omega = p.omega_q + sign * 50.0 * p.gamma
        trans, refl = fields.markov_spectra(omega, p)
        assert abs(trans - 1.0) < 0.01
        assert abs(refl) < 0.01


@pytest.mark.parametrize("probe", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("spectra", [fields.markov_spectra,
                                     fields.nonmarkov_spectra],
                         ids=["markov", "nonmarkov"])
def test_spectra_refuse_probes_that_are_not_positive_and_finite(
        spectra, probe, weak_generic):
    # omega = -1 rad/s gave T = 1.00008 (Markov) and 0.9999 (lattice), and
    # NaN a NaN row, as if they were photons
    omega = np.array([weak_generic.omega_q, probe])
    with pytest.raises(ValueError, match="positive and finite"):
        spectra(omega, weak_generic)


def test_transmittance_accepts_arrays(weak_generic):
    p = weak_generic
    omega = np.linspace(0.99, 1.01, 101) * p.omega_q
    t_arr, r_arr = fields.markov_spectra(omega, p)
    assert t_arr.shape == omega.shape
    assert np.all((t_arr >= 0) & (t_arr <= 1.0 + 1e-12))
    assert np.all(r_arr >= 0)


def test_markov_flux_defect_scales_with_detuning(weak_generic):
    # the Markov T/R forms conserve flux exactly at resonance and leak
    # quadratically as the probe detunes; the leak stays below 1e-3 within
    # +-0.1% of Omega and below 2% over the figures' +-2% window
    p = weak_generic

    def leak(omega):
        trans, refl = fields.markov_spectra(omega, p)
        return trans + refl - 1.0

    near = np.linspace(0.999, 1.001, 201) * p.omega_q
    assert np.max(np.abs(leak(near))) < 1e-3
    wide = np.linspace(0.98, 1.02, 2001) * p.omega_q
    assert np.max(np.abs(leak(wide))) < 0.02
    assert abs(leak(np.array([p.omega_q]))[0]) < 1e-14


def test_exact_lattice_conserves_flux_identically(weak_generic, strong_odd):
    # the non-Markov forms come from a unitary scattering matrix, so their
    # flux sum is machine-exact at any coupling and any detuning
    for p in (weak_generic, strong_odd):
        omega = np.linspace(0.8, 1.2, 1001) * p.omega_q
        trans, refl = fields.nonmarkov_spectra(omega, p)
        total = trans + refl
        assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gamma_ratio=gamma_ratios, phase=any_phase, probe=st.floats(0.8, 1.2))
def test_exact_lattice_conserves_flux_at_any_parameters(gamma_ratio, phase,
                                                        probe):
    p = _params(gamma_ratio, phase)
    omega = probe * p.omega_q
    trans, refl = fields.nonmarkov_spectra(omega, p)
    total = trans + refl
    assert abs(total - 1.0) < 1e-12


def test_exact_lattice_resonance_values(weak_generic, strong_odd):
    for p in (weak_generic, strong_odd):
        trans, refl = fields.nonmarkov_spectra(p.omega_q, p)
        assert trans == 0.0
        assert abs(refl - 1.0) < 1e-12


def test_markov_matches_lattice_at_weak_coupling(weak_generic):
    p = weak_generic
    omega = np.linspace(0.98, 1.02, 2001) * p.omega_q
    (t_markov, r_markov), (t_exact, r_exact) = (
        fields.markov_spectra(omega, p), fields.nonmarkov_spectra(omega, p))
    diff_t = np.abs(t_markov - t_exact)
    diff_r = np.abs(r_markov - r_exact)
    assert max(diff_t.max(), diff_r.max()) < 0.02


def test_markov_departs_from_lattice_at_strong_retardation(strong_odd):
    p = strong_odd
    omega = np.linspace(0.8, 1.2, 2001) * p.omega_q
    diff_t = np.abs(fields.markov_spectra(omega, p)[0]
                    - fields.nonmarkov_spectra(omega, p)[0])
    assert diff_t.max() > 0.1


def test_reflectance_limit_matches_far_steady_field(weak_even):
    # |v|^2 far behind the first qubit must flatten onto the reflectance
    p = weak_even.with_drive(1.003 * weak_even.omega_q)
    r = collective_rates(p)
    grid = fields.space_time_grid(p, [-40.0 * p.distance], [5e-6])
    v = fields.backward_field(grid, r, p, branch="steady").v
    _, target = fields.markov_spectra(p.omega_s, p)
    assert abs(np.abs(v[0, 0]) ** 2 - target) < 5e-3
