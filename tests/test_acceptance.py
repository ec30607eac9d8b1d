"""Acceptance gate: every headline guarantee of the package at full strength.

Each test prints exactly one PASS/FAIL line with the measured figure next
to its tolerance, so a transcript of this module is a complete scorecard.
The tolerances are the contract; nothing here is loosened for speed.
"""

import time

import numpy as np
import pytest

from wqed import fields, validation
from wqed.model import ModelParams
from wqed.oracle import continuum_evolve

OMEGA_Q = 2.0 * np.pi * 5.0e9


def _verdict(name, err, tol, extra=""):
    passed = err < tol
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"{tag} {name}: measured {err:.3e} vs tolerance {tol:.1e}{suffix}")
    assert passed, f"{name}: {err:.3e} exceeds {tol:.1e}"


def test_resonant_mirror_exactness():
    # perfect reflection at the qubit line for every interference regime
    worst = 0.0
    for phase in (0.5, 1.0, 2.0, 5.0):
        p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase)
        trans, refl = fields.markov_spectra(p.omega_q, p)
        worst = max(worst, abs(float(trans)), abs(float(refl) - 1.0))
    _verdict("resonant mirror exactness", worst, 1e-12)


def test_markov_lattice_agreement_and_departure():
    start = time.perf_counter()
    # weak coupling, quarter-wave: the two treatments nearly coincide
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5)
    omega = np.linspace(0.98, 1.02, 2001) * p.omega_q
    (t_markov, r_markov), (t_exact, r_exact) = (
        fields.markov_spectra(omega, p), fields.nonmarkov_spectra(omega, p))
    close = max(np.max(np.abs(t_markov - t_exact)),
                np.max(np.abs(r_markov - r_exact)))
    # strong coupling, long line: retardation splits them wide open
    p = ModelParams.from_phase(OMEGA_Q, 0.1 * OMEGA_Q, 5.0)
    omega = np.linspace(0.8, 1.2, 2001) * p.omega_q
    apart = np.max(np.abs(fields.markov_spectra(omega, p)[0]
                          - fields.nonmarkov_spectra(omega, p)[0]))
    elapsed = time.perf_counter() - start
    _verdict("weak-coupling agreement sup-norm", close, 0.02,
             f"departure sup-norm {apart:.3f} > 0.1, {elapsed:.2f} s")
    assert apart > 0.1
    assert elapsed < 1.0


def test_kernel_ensemble_against_quadrature(printed_kernel):
    # 200 random (kernel, x, t) samples across the three regimes; each
    # quadrature value is computed once and scores both writings of the
    # first exponential-integral argument: the rotated one (the engine's)
    # must pass, the printed one must fail in each direction.  The bound is
    # about ten times the measured 8.0e-10, so that the engine's kernel
    # scaled by 1 + 1e-5 fails it too
    tol = 1e-8
    start = time.perf_counter()
    worst = validation.kernel_errors(
        np.random.default_rng(20260822), 200,
        {"rotated": fields.closed_kernel, "printed": printed_kernel,
         "scaled": lambda s1, t, a: (1.0 + 1e-5) * fields.closed_kernel(
             s1, t, a)})
    elapsed = time.perf_counter() - start
    _verdict("kernel ensemble vs quadrature (200 samples)",
             max(worst["rotated", "fwd"], worst["rotated", "bwd"]), tol,
             f"printed writing {worst['printed', 'fwd']:.3e} forward, "
             f"{worst['printed', 'bwd']:.3e} backward, each must exceed "
             f"1e-3; {elapsed:.1f} s")
    assert min(worst["printed", "fwd"], worst["printed", "bwd"]) > 1e-3
    assert min(worst["scaled", "fwd"], worst["scaled", "bwd"]) > tol
    assert elapsed < 120.0


def test_qubit_amplitudes_vs_ode():
    cases = [ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase)
             for phase in (0.5, 2.0)]
    _verdict("qubit amplitudes vs Markov ODE",
             validation.amplitudes_vs_ode(cases), 1e-13)


def test_beating_spectrum_hits_the_detuning_bin():
    # the beat is |omega_s - Omega| / 2 pi, and a window of n_periods beats
    # has FFT bins 1/n_periods of it apart
    p0 = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 2.0)
    n_periods = 40
    worst_bins = 0.0
    periods = {}
    for detune in (0.01, 0.02):
        p = p0.with_drive((1.0 + detune) * p0.omega_q)
        _, _, peak = fields.beat_note_series(p, 2.0 * p.distance,
                                             n_periods=n_periods,
                                             n_samples=4096)
        beat = detune * p0.omega_q / (2.0 * np.pi)
        worst_bins = max(worst_bins, abs(peak - beat) / (beat / n_periods))
        periods[detune] = 1.0e9 / peak
    _verdict("beat peak offset in FFT bins", worst_bins, 1.0,
             f"periods {periods[0.01]:.1f} ns and {periods[0.02]:.1f} ns")
    assert periods[0.01] == pytest.approx(20.0, rel=0.05)
    assert periods[0.02] == pytest.approx(10.0, rel=0.05)


def test_reflection_exceeds_unity_then_relaxes():
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5)
    x = np.linspace(-6.0, -0.05, 1191) * p.distance
    peak = fields.reflected_resonance_peak(x, p)
    overshoot = float(np.max(peak))
    far = fields.reflected_resonance_peak(
        np.array([-200.0 * p.wavelength]), p)[0]
    _verdict("far-field relaxation |peak(200 lambda) - 1|",
             abs(far - 1.0), 0.01, f"max peak {overshoot:.4f} > 1")
    assert overshoot > 1.0


def test_continuum_norm_conservation():
    start = time.perf_counter()
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5,
                               pulse_width=0.005 * OMEGA_Q)
    res = continuum_evolve(p, 20.0 / p.gamma, n_modes=4096)
    drift = validation.norm_drift(res)
    elapsed = time.perf_counter() - start
    # measured 1.07e-13; a Chebyshev series cut where J_k < 1e-12 drifts
    # 6.0e-11
    _verdict("continuum norm drift over 20 lifetimes", drift, 1e-12,
             f"4096 modes, {elapsed:.1f} s")
    assert elapsed < 300.0


def test_special_function_suite():
    rng = np.random.default_rng(19)
    identity_err = validation.si_identities(rng, 1000)
    asymptotics = max(validation.si_ci_asymptotics(rng, 500),
                      validation.e1_asymptotics(rng, 300))
    _verdict("si reflection identity", identity_err, 1e-12)
    _verdict("large-argument asymptotics", asymptotics, 1e-4)
    _verdict("exponential-integral reference point",
             validation.e1_reference(), 1e-15)
