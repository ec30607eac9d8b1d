"""Shared fixtures: parameter presets spanning the three interference regimes.

All presets use the superconducting-circuit scale Omega/2pi = 5 GHz and a
3e8 m/s group velocity, so separations come out at centimeters and decay
times at nanoseconds.
"""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates
from wqed.oracle import _kernel_center
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
