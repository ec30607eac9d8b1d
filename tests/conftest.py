"""Shared fixtures: parameter presets spanning the three interference regimes.

All presets use the superconducting-circuit scale Omega/2pi = 5 GHz and a
3e8 m/s group velocity, so separations come out at centimeters and decay
times at nanoseconds.
"""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates
from wqed.oracle import (
    PANEL_ORDER,
    POINTS_PER_PERIOD,
    _kernel_center,
    _tail_inverse_omega,
    _tail_inverse_omega_sq,
)
from wqed.specfun import e1_scaled

OMEGA_Q = 2.0 * np.pi * 5.0e9


@pytest.fixture(scope="session")
def weak_generic():
    """Gamma/Omega = 0.01 at quarter-wave phase k_Omega*d = pi/2."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5)


@pytest.fixture(scope="session")
def weak_even():
    """Gamma/Omega = 0.01 at full-wave phase k_Omega*d = 2*pi (d = 6 cm)."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 2.0)


@pytest.fixture(scope="session")
def weak_odd():
    """Gamma/Omega = 0.01 at half-wave phase k_Omega*d = pi."""
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 1.0)


@pytest.fixture(scope="session")
def strong_odd():
    """Gamma/Omega = 0.1 at k_Omega*d = 5*pi, the retardation-dominated case."""
    return ModelParams.from_phase(OMEGA_Q, 0.1 * OMEGA_Q, 5.0)


@pytest.fixture(scope="session")
def all_presets(weak_generic, weak_even, weak_odd, strong_odd):
    return {
        "generic": weak_generic,
        "even": weak_even,
        "odd": weak_odd,
        "strong": strong_odd,
    }


def rates_for(params):
    """Collective channels for a preset, classified automatically."""
    return collective_rates(params)


def _printed_kernel(kernel_id, x_shift, t, rates, params):
    """``fields.closed_kernel`` with the launch term in its printed writing.

    The launch term e^{-iat} E1s(i a s1) of the closed kernel is swapped for
    e^{-iat + (i-1) a s1} E1s(a s1), which reads the first E1 argument as
    a*s1 instead of i*a*s1.  Only defined for s1 > 0: elsewhere that
    argument lands on the branch cut of E1.
    """
    s1 = (1.0 if kernel_id.startswith("fwd") else -1.0) * x_shift / params.v_g
    a = _kernel_center(kernel_id, params, rates)
    if np.any(s1 <= 0):
        raise ValueError("printed writing undefined for s1 <= 0 (E1 branch cut)")
    t = np.asarray(t, dtype=float)
    rotated = np.exp(-1j * a * t) * e1_scaled(1j * a * s1)
    printed = np.exp(-1j * a * t + (1j - 1.0) * a * s1) * e1_scaled(a * s1)
    return fields.closed_kernel(kernel_id, x_shift, t, rates, params) \
        - rotated + printed


@pytest.fixture(scope="session")
def printed_kernel():
    """The closed kernel in the printed writing, which quadrature rules out."""
    return _printed_kernel


def _per_node_quad_kernel(kernel_id, x_shift, t, params, rates=None):
    """``oracle.quad_kernel`` in its per-node writing, as a reference.

    Same panels, nodes, weights and analytic tail as the oracle at its
    default cutoff, but every node evaluates phi(omega - a, t) e^{i omega s2}
    with its own two complex exponentials instead of the factored phases.
    """
    s1 = (1.0 if kernel_id.startswith("fwd") else -1.0) * x_shift / params.v_g
    s2 = s1 - t
    a = _kernel_center(kernel_id, params, rates)
    cutoff = 20.0 * max(params.omega_q, params.omega_s, abs(a))
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * max(abs(s1), abs(s2), t))
    if a.imag < 0:
        h = min(h, -a.imag / 4.0)
    n_panels = int(np.ceil(cutoff / h))
    width = cutoff / n_panels
    ref_x, ref_w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    ref_x = 0.5 * (ref_x + 1.0)
    ref_w = 0.5 * ref_w * width
    total = 0.0 + 0.0j
    for start in range(0, n_panels, 32768):
        left = (np.arange(start, min(start + 32768, n_panels)) * width)[:, None]
        omega = left + ref_x[None, :] * width
        z = omega - a
        zt = z * t
        small = np.abs(zt) < 1e-8
        phi = np.where(small, 1j * t * (1.0 + 0.5j * zt),
                       (np.exp(1j * zt) - 1.0) / np.where(small, 1.0, z))
        total += np.sum(phi * np.exp(1j * omega * s2) * ref_w[None, :])
    tail = np.exp(-1j * a * t) * (_tail_inverse_omega(s1, cutoff)
                                  + a * _tail_inverse_omega_sq(s1, cutoff)) \
        - (_tail_inverse_omega(s2, cutoff)
           + a * _tail_inverse_omega_sq(s2, cutoff))
    return complex(total + tail)


@pytest.fixture(scope="session")
def per_node_quad_kernel():
    """The panel quadrature with two exponentials per node."""
    return _per_node_quad_kernel
