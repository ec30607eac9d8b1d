"""Far from the pair and late, the field reads the scattering spectra.

The steady envelopes are assembled from the kernels' long-time planes and
E1 reads, the spectra from the channel weights and the snapped phase
factor: two writings that share no algebra past the channel weights.  As
the distance from the pair grows, |u|^2/A^2 behind it must tend to the
transmittance and |v|^2/A^2 before it to the reflectance, with an error
that falls like 1/distance.
"""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates

OMEGA_Q = 2.0 * np.pi * 5.0e9
CARRIERS = np.array([0.995, 1.0, 1.003])
# distances from the pair in wavelengths of Omega
NEAR, FAR = 1e3, 1e4


def _far_errors(phase):
    """|energy - spectrum| behind and before the pair at NEAR and FAR.

    Returns {(side, L): errors over CARRIERS}, read from one steady drive
    sweep per side and distance at t = 5 max|x| / v_g + 10 us.
    """
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase)
    rates = collective_rates(p)
    omega = CARRIERS * OMEGA_Q
    wavelength = 2.0 * np.pi * p.v_g / p.omega_q
    spectrum = dict(zip("uv", fields.markov_spectra(omega, p)))
    errors = {}
    for side, envelope in (("behind", "u"), ("before", "v")):
        for L in (NEAR, FAR):
            x = p.distance + L * wavelength if side == "behind" \
                else -L * wavelength
            t = 5.0 * abs(x) / p.v_g + 10e-6
            grid = fields.space_time_grid(p, [x], [t])
            swept = dict(zip("uvw", fields.drive_sweep(
                grid, rates, p, omega, "steady")[1:]))
            energy = np.array([abs(z) ** 2 for z in swept[envelope][:, 0, 0]]
                              ) / p.amplitude ** 2
            errors[side, L] = np.abs(energy - spectrum[envelope])
    return errors


@pytest.mark.parametrize("phase", [0.3, 0.5, 1.0, 2.0],
                         ids=lambda v: f"kd={v:g}pi")
def test_far_field_energies_are_the_spectra(phase):
    errors = _far_errors(phase)
    for side in ("behind", "before"):
        near, far = errors[side, NEAR], errors[side, FAR]
        assert far.max() <= 1e-5, (side, far)
        # the 1/L approach: a tenfold distance takes a tenth of the error,
        # wherever the error is not already at the rounding level
        slow = near > 1e-7
        assert np.all(near[slow] >= 9.0 * far[slow]), (side, near, far)
