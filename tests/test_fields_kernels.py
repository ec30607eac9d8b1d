"""Closed-form field kernels against direct oscillatory quadrature.

Every closed kernel is the frequency integral of the mode phase against a
damped or sharp pole factor; the quadrature oracle evaluates that integral
with phase-resolved panels and an analytic tail.  These tests sweep all
eight kernels in the three interference regimes, exercise the wavefront
winding correction, and pin down which writing of the first
exponential-integral argument is the right one.
"""

import numpy as np
import pytest

from wqed import fields
from wqed.model import ModelParams, collective_rates
from wqed.oracle import KERNEL_IDS, quad_kernel

OMEGA_Q = 2.0 * np.pi * 5.0e9


def _preset(tag):
    phase = {"generic": 0.8, "even": 2.0, "odd": 5.0}[tag]
    return ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase,
                                  omega_s=1.005 * OMEGA_Q)


@pytest.mark.parametrize("tag", ["generic", "even", "odd"])
@pytest.mark.parametrize("kernel_id", KERNEL_IDS)
def test_closed_kernels_match_quadrature(tag, kernel_id):
    p = _preset(tag)
    r = collective_rates(p)
    rng = np.random.default_rng(hash((tag, kernel_id)) % 2 ** 32)
    t = rng.uniform(0.3, 1.5) * 40.0 / p.gamma
    if kernel_id.startswith("bwd"):
        x_shift = rng.uniform(-4.0, -0.1) * p.distance
    else:
        x_shift = rng.uniform(1.1, 5.0) * p.distance
    closed = fields.closed_kernel(kernel_id, x_shift, t, r, p)
    brute = quad_kernel(kernel_id, x_shift, t, p, r)
    scale = max(abs(brute), 1e-3)
    assert abs(complex(closed) - brute) / scale < 1e-3


def test_closed_kernels_tight_agreement_with_long_tail():
    # with a longer quadrature cutoff the oracle itself sharpens and the
    # agreement drops well below the routine tolerance
    p = _preset("generic")
    r = collective_rates(p)
    t = 20.0 / p.gamma
    worst = 0.0
    for kernel_id, x_over_d in (("fwd_decay_plus", 2.0), ("bwd_drive", -1.5)):
        x_shift = x_over_d * p.distance
        closed = fields.closed_kernel(kernel_id, x_shift, t, r, p)
        brute = quad_kernel(kernel_id, x_shift, t, p, r, cutoff_factor=40.0)
        worst = max(worst, abs(complex(closed) - brute) / abs(brute))
    assert worst < 1e-5


def test_kernel_winding_across_the_wavefront():
    # the retarded coordinate x - v_g t changes sign across the front and
    # the closed writing picks up a 2*pi*i winding there; sample both sides
    p = _preset("generic")
    r = collective_rates(p)
    x_shift = 2.0 * p.distance
    t_front = x_shift / p.v_g
    for t in (0.8 * t_front, 1.25 * t_front):
        closed = fields.closed_kernel("fwd_decay_plus", x_shift, t, r, p)
        brute = quad_kernel("fwd_decay_plus", x_shift, t, p, r)
        assert abs(complex(closed) - brute) / max(abs(brute), 1e-3) < 1e-3


def test_wavefront_jump_is_i_pi():
    # crossing the front turns on the 2*pi*i winding while the E1 branch
    # jump eats half of it, leaving a discontinuity of exactly i*pi times
    # a unit-modulus carrier; measure it by straddling the front tightly
    p = _preset("generic")
    r = collective_rates(p)
    x_shift = 3.0 * p.distance
    t_front = x_shift / p.v_g
    eps = 1e-5
    after = complex(fields.closed_kernel("fwd_decay_plus", x_shift,
                                         t_front * (1.0 + eps), r, p))
    before = complex(fields.closed_kernel("fwd_decay_plus", x_shift,
                                          t_front * (1.0 - eps), r, p))
    jump = after - before
    assert abs(jump - 1j * np.pi) < 0.01 * np.pi


def test_kernel_convention_flip_breaks_agreement(printed_kernel):
    # the rotated E1 argument i*a*s1 is the validated writing; the printed
    # one, a*s1, must disagree with quadrature far beyond the tolerance
    p = _preset("generic")
    r = collective_rates(p)
    x_shift = 2.3 * p.distance
    t = 18.0 / p.gamma
    ref = quad_kernel("fwd_decay_plus", x_shift, t, p, r)
    good = fields.closed_kernel("fwd_decay_plus", x_shift, t, r, p)
    bad = printed_kernel("fwd_decay_plus", x_shift, t, r, p)
    assert abs(complex(good) - ref) / abs(ref) < 1e-3
    assert abs(complex(bad) - ref) / abs(ref) > 1e-2


@pytest.mark.parametrize("kernel_id",
                         KERNEL_IDS + ("sideways", "fwd_", "up_drive"))
def test_engine_and_oracle_accept_the_same_kernel_ids(kernel_id):
    # both sides accept exactly the ids in KERNEL_IDS and refuse the rest
    p = _preset("generic")
    r = collective_rates(p)
    x_shift = 1.5 * p.distance
    t = 2.0 * x_shift / p.v_g
    if kernel_id in KERNEL_IDS:
        assert np.isfinite(fields.closed_kernel(kernel_id, x_shift, t, r, p))
        assert np.isfinite(quad_kernel(kernel_id, x_shift, t, p, r))
    else:
        with pytest.raises(ValueError, match="unknown kernel id"):
            fields.closed_kernel(kernel_id, x_shift, t, r, p)
        with pytest.raises(ValueError, match="unknown kernel id"):
            quad_kernel(kernel_id, x_shift, t, p, r)


def test_drive_kernel_matches_trig_writing():
    # the kernel at an array of real centers (the drive axis of a sweep)
    # against its sine/cosine-integral writing, center by center, in the
    # causal region s1 < t on both sides of the qubit: both read the same
    # E1, so this checks the algebra of the steady limit plus the front
    # term, and test_specfun pins the special functions against mpmath
    rng = np.random.default_rng(7)
    omega = np.linspace(0.9, 1.1, 9) * OMEGA_Q
    s1 = np.concatenate([rng.uniform(0.05, 5.0, 6),
                         -rng.uniform(0.05, 5.0, 6)]) * 1e-9
    t = 5e-9 * (1.0 + np.logspace(-3.0, 2.0, 6))[:, None]
    swept = fields._wave_kernel(s1, t, omega[:, None, None])
    assert swept.shape == (omega.size, t.size, s1.size)
    for k, center in enumerate(omega):
        trig = fields._wave_kernel_trig(s1, t, center)
        err = np.abs(swept[k] - trig) / np.maximum(np.abs(trig), 1.0)
        assert err.max() < 1e-11


def _hoist_grid():
    # 16 times x 200 positions behind the pair, transient throughout
    p = _preset("generic")
    x = np.linspace(1.1, 3.0, 200) * p.distance
    t = 3.5 * p.distance / p.v_g * np.linspace(1.01, 3.0, 16)
    return p, x, t


@pytest.mark.parametrize("center", ["decay", "drive", "resonant"])
def test_launch_term_evaluated_off_the_time_axis(center):
    # the kernel on a [time, position] broadcast, whose launch term takes
    # its E1 once per position and its phase once per time, equals the
    # kernel on the already-broadcast flat arrays, where every point takes
    # its own
    p, x, t = _hoist_grid()
    r = collective_rates(p)
    a = {"decay": p.omega_q - 1j * r.gamma_plus, "drive": p.omega_s,
         "resonant": p.omega_q}[center]
    for s1 in (x / p.v_g, -x / p.v_g):
        grid = fields._wave_kernel(s1[None, :], t[:, None], a)
        s1_flat, t_flat = np.broadcast_arrays(s1[None, :], t[:, None])
        flat = fields._wave_kernel(s1_flat.ravel(), t_flat.ravel(), a)
        np.testing.assert_allclose(grid.ravel(), flat, rtol=1e-13, atol=0)


def test_transient_field_takes_six_e1_arguments_per_point(monkeypatch):
    # six kernels per point: each evaluates its front E1 on the whole grid
    # and its launch E1 once per position
    p, x, t = _hoist_grid()
    grid = fields.space_time_grid(p, x, t)
    counted = []
    real_e1 = fields.e1_scaled

    def counting_e1(z):
        counted.append(np.size(z))
        return real_e1(z)

    monkeypatch.setattr(fields, "e1_scaled", counting_e1)
    fields.forward_field(grid, collective_rates(p), p, "transient")
    n_t, n_x = t.size, x.size
    assert sum(counted) <= 6 * (n_t * n_x + n_x)
