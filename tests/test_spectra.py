"""Transmittance, reflectance, flux bookkeeping, and the exact-lattice forms."""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates

OMEGA_Q = 2.0 * np.pi * 5.0e9


@pytest.mark.parametrize("phase_over_pi", [0.5, 1.0, 2.0, 5.0])
def test_resonance_is_a_perfect_mirror(phase_over_pi):
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase_over_pi)
    r = collective_rates(p)
    t_res = fields.transmittance(p.omega_q, r, p)
    r_res = fields.reflectance(p.omega_q, r, p)
    assert abs(t_res) < 1e-12
    assert abs(r_res - 1.0) < 1e-12


def test_far_detuning_is_transparent(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    for sign in (-1.0, 1.0):
        omega = p.omega_q + sign * 100.0 * p.gamma
        assert abs(fields.transmittance(omega, r, p) - 1.0) < 0.01
        assert abs(fields.reflectance(omega, r, p)) < 0.01


def test_transmittance_accepts_arrays(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    omega = np.linspace(0.99, 1.01, 101) * p.omega_q
    t_arr = fields.transmittance(omega, r, p)
    r_arr = fields.reflectance(omega, r, p)
    assert t_arr.shape == omega.shape
    assert np.all((t_arr >= 0) & (t_arr <= 1.0 + 1e-12))
    assert np.all(r_arr >= 0)


def test_markov_flux_defect_scales_with_detuning(weak_generic):
    # the Markov T/R forms conserve flux exactly at resonance and leak
    # quadratically as the probe detunes; the leak stays below 1e-3 within
    # +-0.1% of Omega and below 2% over the figures' +-2% window
    p = weak_generic
    r = collective_rates(p)

    def leak(omega):
        return fields.transmittance(omega, r, p) \
            + fields.reflectance(omega, r, p) - 1.0

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
        total = fields.nonmarkov_transmittance(omega, p) \
            + fields.nonmarkov_reflectance(omega, p)
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_exact_lattice_resonance_values(weak_generic, strong_odd):
    for p in (weak_generic, strong_odd):
        assert fields.nonmarkov_transmittance(p.omega_q, p) == 0.0
        assert abs(fields.nonmarkov_reflectance(p.omega_q, p) - 1.0) < 1e-12


def test_markov_matches_lattice_at_weak_coupling(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    omega = np.linspace(0.98, 1.02, 2001) * p.omega_q
    diff_t = np.abs(fields.transmittance(omega, r, p)
                    - fields.nonmarkov_transmittance(omega, p))
    diff_r = np.abs(fields.reflectance(omega, r, p)
                    - fields.nonmarkov_reflectance(omega, p))
    assert max(diff_t.max(), diff_r.max()) < 0.02


def test_markov_departs_from_lattice_at_strong_retardation(strong_odd):
    p = strong_odd
    r = collective_rates(p)
    omega = np.linspace(0.8, 1.2, 2001) * p.omega_q
    diff_t = np.abs(fields.transmittance(omega, r, p)
                    - fields.nonmarkov_transmittance(omega, p))
    assert diff_t.max() > 0.1


def test_reflectance_limit_matches_far_steady_field(weak_even):
    # |v|^2 far behind the first qubit must flatten onto the reflectance
    p = weak_even.with_drive(1.003 * weak_even.omega_q)
    r = collective_rates(p)
    grid = fields.space_time_grid(p, [-40.0 * p.distance], [5e-6])
    v = fields.backward_field(grid, r, p, branch="steady").v
    target = fields.reflectance(p.omega_s, r, p)
    assert abs(np.abs(v[0, 0]) ** 2 - target) < 5e-3
