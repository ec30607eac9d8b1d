"""Closed forms against the brute-force oracles: the one table of checks.

Each comparison of an engine value with an oracle value is written once
here, as a function of its sample size or its cases that returns the
measured error.  ``checks`` lists the rows ``wqed oracle-check`` prints;
the tests call the same functions at their own sizes and parameters.
"""

from __future__ import annotations

import functools

import numpy as np

from . import amplitudes, fields, model, oracle, specfun

SEED = 20260822     # the one stream the rows draw from, in table order
_OMEGA_Q = 2.0 * np.pi * 5.0e9
_GAMMA = 0.01 * _OMEGA_Q


def _presets():
    """The three interference regimes, weak coupling, drive at 1.005 Omega."""
    return {tag: model.ModelParams.from_phase(_OMEGA_Q, _GAMMA, phase,
                                              omega_s=1.005 * _OMEGA_Q)
            for tag, phase in (("generic", 0.8), ("even", 2.0), ("odd", 5.0))}


def si_identities(rng, n):
    """Reflection si(x) + si(-x) = -pi."""
    x = rng.uniform(1.0e-3, 80.0, n)
    return np.max(np.abs(specfun.si_lower(x) + specfun.si_lower(-x) + np.pi))


def si_ci_asymptotics(rng, n):
    """si and Ci against their two-term expansions, O(1/x^3) off at x >= 30."""
    big = rng.uniform(30.0, 100.0, n)
    asym_si = -np.cos(big) / big - np.sin(big) / big ** 2
    asym_ci = np.sin(big) / big - np.cos(big) / big ** 2
    return max(np.max(np.abs(specfun.si_lower(big) - asym_si)),
               np.max(np.abs(specfun.cosine_integral(big) - asym_ci)))


def e1_asymptotics(rng, n):
    """E1 relative to e^{-z}/z (1 - 1/z) at |z| in [150, 400]."""
    z = rng.uniform(150.0, 400.0, n) * np.exp(1j * rng.uniform(-2.0, 2.0, n))
    asym = np.exp(-z) / z * (1.0 - 1.0 / z)
    return np.max(np.abs(specfun.exp_integral_e1(z) / asym - 1.0))


def e1_reference():
    """E1(1) against its tabulated value."""
    return abs(specfun.exp_integral_e1(1.0) - 0.21938393439552029)


def kernel_errors(rng, n, kernels):
    """Worst error of each kernel writing against quadrature, per direction.

    ``n`` random (s1, t, center) samples cycle through the three regimes,
    and through the forward then the backward kernels at the four centers:
    the collective poles Omega - i*gamma_+ and Omega - i*gamma_-, the
    drive and Omega.  Each quadrature value scores every ``kernels[name]``
    (called like ``fields.closed_kernel``) relative to max(|quadrature|,
    1e-3).  Returns {(name, "fwd" or "bwd"): error}.
    """
    presets = list(_presets().values())
    rates = [model.collective_rates(p) for p in presets]
    worst = {(name, way): 0.0 for name in kernels for way in ("fwd", "bwd")}
    for i in range(n):
        p, r = presets[i % 3], rates[i % 3]
        a = (p.omega_q - 1j * r.gamma_plus, p.omega_q - 1j * r.gamma_minus,
             p.omega_s, p.omega_q)[i % 4]
        way = "fwd" if i % 8 < 4 else "bwd"
        t = rng.uniform(0.2, 2.0) * 40.0 / p.gamma
        if way == "bwd":
            s1 = -rng.uniform(-4.0, -0.1) * p.distance / p.v_g
        else:
            s1 = rng.uniform(1.1, 5.0) * p.distance / p.v_g
        brute = oracle.quad_kernel(s1, t, a, p)
        scale = max(abs(brute), 1.0e-3)
        for name, kernel in kernels.items():
            err = abs(complex(kernel(s1, t, a)) - brute)
            worst[name, way] = max(worst[name, way], err / scale)
    return worst


def amplitudes_vs_ode(cases):
    """Qubit amplitudes vs the Markov ODE, relative to its largest |beta|."""
    worst = 0.0
    for p in cases:
        ode = oracle.markov_ode(p, 20.0 / p.gamma, keep_every=50)
        rates = model.collective_rates(p)
        state = amplitudes.qubit_amplitudes(rates, p, ode.t)
        err = max(np.max(np.abs(state.beta_1 - ode.beta_1)),
                  np.max(np.abs(state.beta_2 - ode.beta_2)))
        size = max(np.max(np.abs(ode.beta_1)), np.max(np.abs(ode.beta_2)))
        worst = max(worst, float(err / size))
    return worst


def peaks_vs_steady(cases):
    """Resonance-peak formulas against the steady energies at t = 5 us."""
    worst = 0.0
    for p in cases:
        rates = model.collective_rates(p)
        for field, name, peak, x_over_d in (
                (fields.backward_field, "v", fields.reflected_resonance_peak,
                 [-2.0, -4.0, -6.0]),
                (fields.forward_field, "u", fields.transmitted_resonance_peak,
                 [3.0, 5.0])):
            x = np.array(x_over_d) * p.distance
            grid = fields.space_time_grid(p, x, [5.0e-6])
            steady = getattr(field(grid, rates, p, branch="steady"), name)
            direct = np.abs(steady[0]) ** 2
            worst = max(worst, float(np.max(np.abs(direct - peak(x, p)))))
    return worst


def spectral_vs_quadrature(p, omegas, t):
    """Spectral amplitudes vs time quadrature, relative to its larger one."""
    rates = model.collective_rates(p)
    worst = 0.0
    for omega in omegas:
        spec = amplitudes.spectral_amplitudes(rates, p, np.asarray([omega]), t)
        fwd, bwd = oracle.quad_spectral(omega, t, rates, p)
        err = max(abs(spec.forward[0] - fwd), abs(spec.backward[0] - bwd))
        worst = max(worst, float(err / max(abs(fwd), abs(bwd))))
    return worst


def memory_vs_half_line(p):
    """Memory kernel at t = 400/Omega vs its limits, relative to Gamma/2."""
    self_c, cross_c = oracle.memory_kernel_coefficients(400.0 / p.omega_q, p)
    half, cross = oracle.half_line_limits(p)
    return max(abs(self_c.real - half) / half, abs(cross_c - cross) / half)


def norm_drift(res):
    """Largest departure of a continuum run's norm from its start."""
    return float(np.max(np.abs(res.norm - res.norm[0])))


def fluxes_vs_lattice(res, p):
    """Continuum fluxes against the packet-averaged exact lattice T and R."""
    omega = res.grid.omega
    weight = np.abs(oracle.gaussian_spectrum(p, omega)) ** 2 * res.grid.weights
    weight /= weight.sum()
    trans, refl = fields.nonmarkov_spectra(omega, p)
    t_bar = float(np.sum(weight * trans))
    r_bar = float(np.sum(weight * refl))
    return max(abs(res.transmitted_flux - t_bar),
               abs(res.reflected_flux - r_bar))


def checks(full=False):
    """(name, tolerance, measure) rows; ``measure(rng)`` returns the error.

    ``full`` doubles the kernel samples and adds the slow rows.
    """
    presets = _presets()
    n_kernels = 24 if full else 12
    rows = [
        ("si reflection identity", 1.0e-12,
         lambda rng: si_identities(rng, 400)),
        ("si/ci large-argument asymptotics", 1.0e-4,
         lambda rng: si_ci_asymptotics(rng, 200)),
        ("E1 large-argument asymptotics", 1.0e-4,
         lambda rng: e1_asymptotics(rng, 100)),
        ("E1(1) reference value", 1.0e-6, lambda rng: e1_reference()),
        (f"damped kernels vs quadrature ({n_kernels} samples)", 1.0e-3,
         lambda rng: max(kernel_errors(
             rng, n_kernels, {"closed": fields.closed_kernel}).values())),
        ("qubit amplitudes vs Markov ODE", 1.0e-6,
         lambda rng: amplitudes_vs_ode([presets["generic"], presets["even"]])),
        ("resonance peaks vs steady fields", 1.0e-8,
         lambda rng: peaks_vs_steady(
             [presets["generic"].with_drive(_OMEGA_Q)])),
    ]
    if not full:
        return rows
    # one packet launched at k_Omega d = 5 pi, run once for two rows
    pulse = model.ModelParams.from_phase(_OMEGA_Q, _GAMMA, 5.0,
                                         omega_s=_OMEGA_Q + 5.0 * _GAMMA,
                                         pulse_width=_GAMMA)
    launch = 8.0 / _GAMMA
    continuum = functools.cache(lambda: oracle.continuum_evolve(
        pulse, launch + 25.0 / _GAMMA, n_modes=4096, launch_delay=launch))
    return rows + [
        ("spectral amplitudes vs quadrature", 1.0e-9,
         lambda rng: spectral_vs_quadrature(
             presets["generic"], (0.995 * _OMEGA_Q, 1.01 * _OMEGA_Q),
             10.0 / _GAMMA)),
        ("memory kernel vs half-line limit", 5.0e-3,
         lambda rng: memory_vs_half_line(presets["odd"])),
        ("continuum norm drift", 1.0e-3,
         lambda rng: norm_drift(continuum())),
        ("continuum fluxes vs exact lattice T/R", 2.0e-3,
         lambda rng: fluxes_vs_lattice(continuum(), pulse)),
    ]
