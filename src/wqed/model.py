"""Model parameters, interference regimes, and collective decay channels.

Two identical qubits sit in an open one-dimensional waveguide at x = 0 and
x = d and share a single photon.  Everything downstream is controlled by a
small set of numbers: the transition frequency Omega, the single-qubit
radiative rate Gamma, the separation d, the group velocity, and the drive
carrier.  The phase k_Omega*d picked up between the qubits decides how the
two emission channels interfere; when it is a multiple of pi one channel
decouples from the waveguide entirely, and several closed forms change
shape.  This module classifies that regime and builds the two collective
channels (their complex rates and their excitation weights) from one
snapped propagation factor P = e^{i k d}, which is exactly +-1 at Omega in
a pinned regime.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace

import numpy as np

# Phase distance from a multiple of pi below which the interference is
# treated as exactly even/odd.  Snapping makes the decoupled channel's rate
# an exact zero, so the degenerate closed forms come out exact instead of
# catastrophically cancelling.
PHASE_SNAP_TOL = 1e-9

# Above this Gamma/Omega the rotating-wave closed forms degrade noticeably.
_STRONG_COUPLING_RATIO = 0.1


class Regime(str, enum.Enum):
    """Interference regime of the two-qubit phase k_Omega * d."""

    GENERIC = "Generic"
    EVEN_PI = "EvenPi"     # k_Omega*d = 2n*pi: in-phase channel superradiant
    ODD_PI = "OddPi"       # k_Omega*d = (2n+1)*pi: roles swapped

    def __str__(self):  # keep CSV tags free of the enum class name
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the two-qubit waveguide system.

    Parameters
    ----------
    omega_q : float
        Qubit transition frequency Omega in rad/s.
    gamma : float
        Single-qubit radiative decay rate Gamma in rad/s.
    distance : float
        Qubit separation d in meters.
    v_g : float
        Group velocity of the guided mode in m/s.
    omega_s : float
        Carrier frequency of the incident photon in rad/s.
    amplitude : float
        Spectral amplitude A of the incident pulse.  For the
        delta-correlated drive used by the closed forms this is a free
        normalization; a Gaussian pulse of width ``pulse_width`` has
        A = (2 pi)^{1/4} sqrt(pulse_width).
    pulse_width : float or None
        Spectral width Delta of the incident Gaussian in rad/s.  Only the
        brute-force continuum evolution uses it; None means ideal
        monochromatic drive.
    """

    omega_q: float
    gamma: float
    distance: float
    v_g: float
    omega_s: float
    amplitude: float = 1.0
    pulse_width: float | None = None

    def __post_init__(self):
        optional = () if self.pulse_width is None else ("pulse_width",)
        for name in ("omega_q", "gamma", "distance", "v_g", "omega_s",
                     "amplitude") + optional:
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # the outputs divide by A^2 and square envelopes a few times A, and
        # a beat note sums thousands of them: keep A^2 well inside float64
        square = float(self.amplitude) * float(self.amplitude)
        if not 1e-300 <= square <= 1e300:
            raise ValueError("amplitude^2 must lie in [1e-300, 1e300], "
                             f"got amplitude {self.amplitude!r}")
        if self.gamma / self.omega_q > _STRONG_COUPLING_RATIO:
            warnings.warn(
                f"gamma/omega_q = {self.gamma / self.omega_q:.3g} exceeds "
                f"{_STRONG_COUPLING_RATIO}; the weak-coupling closed forms "
                "lose accuracy here",
                UserWarning,
                stacklevel=2,
            )

    # -- derived quantities ------------------------------------------------

    @property
    def coupling(self) -> float:
        """Qubit-waveguide coupling g, from Gamma = 4 pi g^2."""
        return float(np.sqrt(self.gamma / (4.0 * np.pi)))

    @property
    def wavelength(self) -> float:
        """Guided wavelength at the qubit frequency."""
        return 2.0 * np.pi * self.v_g / self.omega_q

    def phase_across(self, omega):
        """Propagation phase k_omega * d accumulated between the qubits."""
        return np.asarray(omega) * self.distance / self.v_g

    @property
    def qubit_phase(self) -> float:
        """k_Omega * d, the phase that sets the interference regime."""
        return self.omega_q * self.distance / self.v_g

    @property
    def drive_phase(self) -> float:
        """k_omega_s * d at the drive carrier."""
        return self.omega_s * self.distance / self.v_g

    def with_drive(self, omega_s) -> "ModelParams":
        """Copy of the parameters with a different drive carrier."""
        return replace(self, omega_s=float(omega_s))

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(cls, omega_q, gamma, distance, v_g=3.0e8, omega_s=None,
               amplitude=1.0, pulse_width=None) -> "ModelParams":
        """Build parameters, defaulting the drive to resonance."""
        if omega_s is None:
            omega_s = omega_q
        return cls(omega_q=float(omega_q), gamma=float(gamma),
                   distance=float(distance), v_g=float(v_g),
                   omega_s=float(omega_s), amplitude=float(amplitude),
                   pulse_width=pulse_width)

    @classmethod
    def from_phase(cls, omega_q, gamma, phase_over_pi, v_g=3.0e8,
                   omega_s=None, amplitude=1.0, pulse_width=None) -> "ModelParams":
        """Build parameters with the separation fixed by k_Omega*d/pi."""
        distance = float(phase_over_pi) * np.pi * v_g / omega_q
        return cls.create(omega_q, gamma, distance, v_g=v_g, omega_s=omega_s,
                          amplitude=amplitude, pulse_width=pulse_width)


def classify_regime(params: ModelParams) -> Regime:
    """Classify the interference regime of k_Omega * d.

    Within ``PHASE_SNAP_TOL`` (radians) of an even multiple of pi the
    antisymmetric channel is dark (EvenPi); within it of an odd multiple
    the symmetric channel is dark (OddPi); anything else is Generic.
    """
    kd = params.qubit_phase
    n = round(kd / np.pi)    # half to even, as np.round, but on a float
    if abs(kd - n * np.pi) <= PHASE_SNAP_TOL and n != 0:
        return Regime.EVEN_PI if n % 2 == 0 else Regime.ODD_PI
    return Regime.GENERIC


def snapped_phase_factor(params: ModelParams, omega):
    """Propagation factor e^{i k_omega d} with the resonant part snapped.

    In the pinned regimes the factor is written e^{i k_Omega d} * e^{i eps}
    with e^{i k_Omega d} replaced by its exact +-1, so that quantities
    which must vanish by interference vanish exactly instead of to ~1e-9.
    """
    regime = classify_regime(params)
    eps = np.asarray(omega - params.omega_q) * params.distance / params.v_g
    if regime is Regime.EVEN_PI:
        return np.exp(1j * eps)
    if regime is Regime.ODD_PI:
        return -np.exp(1j * eps)
    return np.exp(1j * params.phase_across(omega))


@dataclass(frozen=True)
class CollectiveRates:
    """The two collective decay channels of the qubit pair.

    ``gamma_plus``/``gamma_minus`` are the complex rates of the symmetric
    and antisymmetric superpositions, Gamma/2 * (1 +- e^{i k_Omega d});
    their real parts are radiative widths, their imaginary parts coherent
    shifts.  They do not depend on the drive.
    """

    gamma_plus: complex
    gamma_minus: complex


def collective_rates(params: ModelParams) -> CollectiveRates:
    """Complex collective rates Gamma/2 (1 +- P), P = e^{i k_Omega d} snapped.

    In a pinned regime P is exactly +-1, so the dark rate is an exact 0.
    The rates are the same for every drive.
    """
    half = 0.5 * params.gamma
    phase = snapped_phase_factor(params, params.omega_q)
    return CollectiveRates(complex(half * (1.0 + phase)),
                           complex(half * (1.0 - phase)))


def coupling_weights(params: ModelParams, omega):
    """Excitation weights (c_plus, c_minus) of the two channels at ``omega``.

    With P = e^{i k_omega d} from ``snapped_phase_factor``,
        c_pm = A g (1 +- P) / ((Omega - omega) - i gamma_pm).
    In a pinned regime the dark channel's weight is a removable 0/0: both
    the numerator 1 -+ P and the denominator Omega - omega vanish at
    resonance.  It is rewritten exactly as
        A g (i d / v_g) e^{i eps/2} sinc(eps/2),   eps = (omega-Omega) d/v_g,
    which is finite and smooth through resonance (for the odd regime the
    snapped carrier's -1 cancels the sign flip of the numerator, giving
    the same expression), and the quotient is never formed.
    """
    omega = np.asarray(omega, dtype=float)
    regime = classify_regime(params)
    a_g = params.amplitude * params.coupling
    rates = collective_rates(params)
    phase = snapped_phase_factor(params, omega)
    detune = params.omega_q - omega
    if regime is not Regime.GENERIC:
        eps = (omega - params.omega_q) * params.distance / params.v_g
        dark = a_g * (1j * params.distance / params.v_g) \
            * np.exp(0.5j * eps) * np.sinc(0.5 * eps / np.pi)
    c_plus = dark if regime is Regime.ODD_PI \
        else a_g * (1.0 + phase) / (detune - 1j * rates.gamma_plus)
    c_minus = dark if regime is Regime.EVEN_PI \
        else a_g * (1.0 - phase) / (detune - 1j * rates.gamma_minus)
    return c_plus, c_minus
