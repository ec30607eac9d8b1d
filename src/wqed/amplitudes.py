"""Qubit excitation amplitudes and scattered spectral amplitudes.

After the incident photon hits, each qubit's excitation amplitude is a sum
of two damped collective oscillations beating against the drive carrier;
the mode amplitudes of the forward and backward continua follow from them
by one further time integral.  Both integrals are elementary and this
module evaluates the resulting closed forms, with care near the removable
z -> 0 point of (e^{izt}-1)/z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ModelParams, collective_rates, coupling_weights,
                    snapped_phase_factor)


@dataclass(frozen=True)
class QubitState:
    """Qubit amplitudes beta_1 (at x=0) and beta_2 (at x=d) on a time grid."""

    t: np.ndarray
    beta_1: np.ndarray
    beta_2: np.ndarray

    @property
    def population(self) -> np.ndarray:
        """Total excited-state population |beta_1|^2 + |beta_2|^2."""
        return np.abs(self.beta_1) ** 2 + np.abs(self.beta_2) ** 2


def phase_integral(z, t):
    """Stable (e^{i z t} - 1) / z, the elementary time-integral factor.

    Parameters
    ----------
    z : complex array_like
        Frequency argument; may pass through zero, where the function has
        the removable value i t.
    t : float
        Integration time, t >= 0.

    Returns
    -------
    complex ndarray
    """
    z = np.asarray(z, dtype=np.complex128)
    zt = z * t
    small = np.abs(zt) < 1e-6
    # Cubic Taylor term keeps the error below ~1e-26 at the crossover.
    series = 1j * t * (1.0 + 0.5j * zt + (1j * zt) ** 2 / 6.0)
    safe = np.where(small, 1.0, z)
    direct = (np.exp(1j * zt) - 1.0) / safe
    return np.where(small, series, direct)


def qubit_amplitudes(params: ModelParams, t) -> QubitState:
    """Closed-form qubit amplitudes after a delta-correlated kick.

    Parameters
    ----------
    params : ModelParams
    t : float or array_like
        Finite times >= 0 since the pulse arrival at the first qubit.

    Returns
    -------
    QubitState
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    rates = collective_rates(params)
    c_plus, c_minus = coupling_weights(params, params.omega_s)
    carrier = np.exp(1j * (params.omega_q - params.omega_s) * t)
    sym = c_plus * (np.exp(-rates.gamma_plus * t) - carrier)
    antisym = c_minus * (np.exp(-rates.gamma_minus * t) - carrier)
    beta_1 = 0.5 * (sym + antisym)
    beta_2 = 0.5 * (sym - antisym)
    return QubitState(t=t, beta_1=beta_1, beta_2=beta_2)


def channel_time_integrals(params: ModelParams, omega, t):
    """Time integrals D_pm of the two channel oscillations against e^{i(w-Omega)t}.

    D_pm(omega, t) = phi(omega - Omega + i gamma_pm, t) - phi(omega - omega_s, t)
    with phi(z, t) = (e^{izt} - 1)/z.  These are the building blocks of the
    scattered spectrum at finite time.  ``omega`` must be finite and > 0,
    ``t`` finite and >= 0.
    """
    omega = np.asarray(omega, dtype=float)
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(t))):
        raise ValueError("frequencies and time must be finite")
    if np.any(np.less(t, 0)):
        raise ValueError("time must be non-negative")
    if not np.all(omega > 0):
        raise ValueError("frequencies must be positive")
    rates = collective_rates(params)
    drive = phase_integral(omega - params.omega_s, t)
    return tuple(phase_integral(omega - params.omega_q + 1j * gamma, t) - drive
                 for gamma in (rates.gamma_plus, rates.gamma_minus))


def spectral_amplitudes(params: ModelParams, omega, t):
    """Scattered (forward, backward) continuum amplitudes at time t.

    ``forward`` is the scattered correction to the right-moving mode
    amplitude: the incident delta-spike at the carrier is kept analytic
    and added at the field level.  ``backward`` is the whole left-moving
    amplitude, which has no incident part.

    Parameters
    ----------
    params : ModelParams
    omega : float or array_like
        Mode frequencies (rad/s), finite and > 0.
    t : float
        One elapsed time since the kick, finite and >= 0.

    Returns
    -------
    (forward, backward) : complex ndarrays, one value per omega
    """
    if np.ndim(t) != 0:
        raise ValueError("time must be a scalar")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d_plus, d_minus = channel_time_integrals(params, omega, t)
    c_plus, c_minus = coupling_weights(params, params.omega_s)
    phase = snapped_phase_factor(params, omega)
    g = params.coupling
    # Forward modes pick up e^{-i k d} from the second qubit, backward
    # modes e^{+i k d}; the channel split turns those into 1 -+ phase.
    forward = -0.5 * g * ((1.0 + np.conj(phase)) * c_plus * d_plus
                          + (1.0 - np.conj(phase)) * c_minus * d_minus)
    backward = -0.5 * g * ((1.0 + phase) * c_plus * d_plus
                           + (1.0 - phase) * c_minus * d_minus)
    return forward, backward
