"""Single-photon scattering on a pair of distant qubits in a 1D waveguide.

The package evaluates the closed-form spatio-temporal photon field
produced when a single-photon pulse scatters on two identical two-level
qubits coupled to an open one-dimensional waveguide: qubit amplitudes,
forward/backward/inter-qubit field envelopes, transmittance and
reflectance spectra, and the steady-state resonance formulas.  The
``oracle`` module carries independent brute-force cross-checks
(oscillatory quadrature, ODE integration, a discretized-continuum
Schroedinger evolution) used by the validation suite, and ``cli``
exposes the scenario-driven CSV front end.
"""

from .version import __version__
from .model import (
    ModelParams,
    CollectiveRates,
    Regime,
    classify_regime,
    collective_rates,
)
from .specfun import (
    exp_integral_e1,
    e1_scaled,
    si_lower,
    cosine_integral,
)
from .amplitudes import (
    QubitState,
    phase_integral,
    qubit_amplitudes,
    channel_time_integrals,
    spectral_amplitudes,
)
from .fields import (
    Region,
    FieldBranch,
    SpaceTimeGrid,
    FieldSlice,
    space_time_grid,
    closed_kernel,
    incident_plane_wave,
    forward_field,
    backward_field,
    interqubit_field,
    drive_sweep,
    markov_spectra,
    nonmarkov_spectra,
    transmitted_resonance_peak,
    reflected_resonance_peak,
    interqubit_resonance_peak,
    beat_note_series,
)

__all__ = [
    "__version__",
    "ModelParams", "CollectiveRates", "Regime",
    "classify_regime", "collective_rates",
    "exp_integral_e1", "e1_scaled", "si_lower", "cosine_integral",
    "QubitState", "phase_integral",
    "qubit_amplitudes", "channel_time_integrals", "spectral_amplitudes",
    "Region", "FieldBranch", "SpaceTimeGrid", "FieldSlice",
    "space_time_grid", "closed_kernel",
    "incident_plane_wave", "forward_field", "backward_field",
    "interqubit_field", "drive_sweep",
    "markov_spectra", "nonmarkov_spectra",
    "transmitted_resonance_peak", "reflected_resonance_peak",
    "interqubit_resonance_peak", "beat_note_series",
]
