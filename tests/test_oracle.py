"""Self-consistency of the brute-force oracles and their physics checks.

The oracles earn their role as referees here: the ODE propagator is checked
against 30-digit mpmath and the RK4 it replaced, the oscillatory quadrature
by cutoff doubling, and the discretized continuum against a dense eigendecomposition and the
RK4 it replaced, by norm conservation and by scattering a real wavepacket
against the exact lattice transmittance.
"""

import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import oracle, validation
from wqed.model import ModelParams
from wqed.oracle import (
    CHUNK_NODES,
    CUTOFF_FACTOR,
    MAX_NODES,
    PANEL_ORDER,
    PHASE_FINE,
    POINTS_PER_PERIOD,
    TAIL_SWITCH,
    TAIL_TERMS,
    _tail_moments,
    continuum_evolve,
    gaussian_spectrum,
    make_continuum_grid,
    markov_ode,
    quad_kernel,
)

OMEGA_Q = 2.0 * np.pi * 5.0e9


def _mp_markov_ode(p, times):
    """(beta_1, beta_2) at each time from 30-digit mpmath.expm of the system.

    The matrix of ``markov_ode``'s three-component system, its entries
    formed in 30 digits from the float parameters.
    """
    with mpmath.workdps(30):
        half = mpmath.mpf(p.gamma) / 2
        cross = -half * mpmath.expj(mpmath.mpf(p.qubit_phase))
        amp = -1j * mpmath.mpf(p.coupling) * mpmath.mpf(p.amplitude)
        b = mpmath.matrix([
            [-half, cross, amp],
            [cross, -half, amp * mpmath.expj(mpmath.mpf(p.drive_phase))],
            [0, 0, -1j * (mpmath.mpf(p.omega_s) - mpmath.mpf(p.omega_q))]])
        columns = [mpmath.expm(b * mpmath.mpf(float(t))) for t in times]
        return np.array([[complex(e[0, 2]), complex(e[1, 2])]
                         for e in columns])


_ODE_CASES = {
    "generic": (0.01, 0.8, 1.005),
    "even": (0.01, 2.0, 1.005),
    "odd": (0.01, 5.0, 1.005),
    # resonant drive at k_Omega d = 2 pi: the dark rate and -i Delta both
    # vanish, so the matrix is nearly defective
    "even_resonant": (0.01, 2.0, 1.0),
    "strong": (0.1, 5.0, 1.3),
}


@pytest.mark.parametrize("lifetimes, tol", [(20.0, 1e-13), (400.0, 1e-12)],
                         ids=["20", "400"])
@pytest.mark.parametrize("case", list(_ODE_CASES))
def test_markov_ode_matches_mpmath_expm(case, lifetimes, tol):
    # measured 0.2e-15 to 8e-15 of max |beta| at 20/Gamma and 1.2e-13 to
    # 1.6e-13 at 400/Gamma, where the step propagator takes 4 to 6 squarings
    ratio, phase, drive = _ODE_CASES[case]
    p = ModelParams.from_phase(OMEGA_Q, ratio * OMEGA_Q, phase,
                               omega_s=drive * OMEGA_Q)
    ode = markov_ode(p, lifetimes / p.gamma)
    assert ode.t.shape == (oracle.ODE_SAMPLES + 1,)
    picks = [1, 7, oracle.ODE_SAMPLES // 2, oracle.ODE_SAMPLES]
    ref = _mp_markov_ode(p, ode.t[picks])
    got = np.stack([ode.beta_1[picks], ode.beta_2[picks]], axis=1)
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("phase", [0.8, 2.0, 5.0], ids=["generic", "even", "odd"])
def test_per_call_rk4_converges_on_the_propagator(phase, per_call_markov_ode):
    # the RK4 that the propagator replaced converges on it at fourth order:
    # measured 1.0e-12, 2.7e-12 and 2.5e-12 of max |beta| at 4,000 steps
    # over 20 lifetimes, and 16.0 times less at 8,000
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase,
                               omega_s=1.005 * OMEGA_Q)
    exact = markov_ode(p, 20.0 / p.gamma)
    size = max(np.max(np.abs(exact.beta_1)), np.max(np.abs(exact.beta_2)))
    errs = []
    for n_steps in (4000, 8000):
        rk4 = per_call_markov_ode(p, 20.0 / p.gamma, n_steps,
                                  keep_every=n_steps // oracle.ODE_SAMPLES)
        np.testing.assert_allclose(rk4.t, exact.t, rtol=1e-15, atol=0.0)
        errs.append(max(np.max(np.abs(rk4.beta_1 - exact.beta_1)),
                        np.max(np.abs(rk4.beta_2 - exact.beta_2))) / size)
    assert errs[0] <= 5e-12
    assert 14.0 <= errs[0] / errs[1] <= 18.0


def _dense_continuum(p, t, n_modes, launch_delay):
    """(beta_1, beta_2) at times t and the final (gamma, delta), by eigh.

    The Hermitian H that ``continuum_evolve`` describes, written out as a
    dense matrix on the same comb, and e^{-iHt} taken from its
    ``np.linalg.eigh`` decomposition.
    """
    grid = make_continuum_grid(p, n_modes=n_modes)
    omega, w = grid.omega, grid.weights
    rot = omega - p.omega_q
    coupling = p.coupling * np.sqrt(w)
    phase = np.exp(1j * omega * p.distance / p.v_g)
    size = 2 + 2 * n_modes
    h = np.zeros((size, size), dtype=complex)
    h[0, 2:] = np.concatenate([coupling, coupling])
    h[1, 2:] = np.concatenate([coupling * phase, coupling * phase.conj()])
    h[2:, :2] = h[:2, 2:].conj().T
    h[np.arange(2, size), np.arange(2, size)] = np.concatenate([rot, rot])
    energies, vectors = np.linalg.eigh(h)
    packet = gaussian_spectrum(p, omega) * np.exp(1j * omega * launch_delay)
    psi0 = np.concatenate([[0.0, 0.0], np.sqrt(w) * packet,
                           np.zeros(n_modes)])
    states = vectors @ (np.exp(-1j * np.outer(energies, t))
                        * (vectors.conj().T @ psi0)[:, None])
    back = np.exp(1j * rot * t[-1]) / np.sqrt(w)
    return (states[0], states[1], states[2:n_modes + 2, -1] * back,
            states[n_modes + 2:, -1] * back)


# (k_Omega d / pi, launch delay in lifetimes), with the drive at
# Omega + 2 Gamma and a pulse Gamma wide
_CONTINUUM_CASES = {"5pi_launched": (5.0, 3.0), "pi_2": (0.5, 0.0),
                    "3pi_2": (1.5, 0.0)}


def _continuum_case(case, ratio):
    phase, launch = _CONTINUUM_CASES[case]
    gam = ratio * OMEGA_Q
    p = ModelParams.from_phase(OMEGA_Q, gam, phase, omega_s=OMEGA_Q + 2.0 * gam,
                               pulse_width=gam)
    return p, launch / gam


@pytest.mark.parametrize("case", list(_CONTINUUM_CASES))
def test_continuum_propagator_matches_dense_eigh(case):
    # measured over 5 lifetimes at 512 modes: beta 1.8e-14 to 2.7e-14 of
    # max |beta|, the final fields 7.7e-14 to 9.5e-14 of their largest value
    p, launch = _continuum_case(case, 0.01)
    res = continuum_evolve(p, 5.0 / p.gamma, n_modes=512, launch_delay=launch)
    assert res.t.shape == (oracle.CONTINUUM_SAMPLES + 1,)
    beta_1, beta_2, gamma, delta = _dense_continuum(p, res.t, 512, launch)
    size = max(np.max(np.abs(beta_1)), np.max(np.abs(beta_2)))
    assert max(np.max(np.abs(res.beta_1 - beta_1)),
               np.max(np.abs(res.beta_2 - beta_2))) <= 3e-13 * size
    size = max(np.max(np.abs(gamma)), np.max(np.abs(delta)))
    assert max(np.max(np.abs(res.gamma_final - gamma)),
               np.max(np.abs(res.delta_final - delta))) <= 1e-12 * size


@pytest.mark.parametrize("case", list(_CONTINUUM_CASES))
def test_rhs_rk4_converges_on_the_propagator(case, rhs_continuum_evolve):
    # the RK4 that the propagator replaced converges on it at fourth order:
    # at Gamma/Omega = 0.1 over 2 lifetimes, its final state is measured
    # 6.7e-7 to 5.1e-6 of the largest field amplitude off at a step of
    # 0.04/max|omega - Omega|, and 16.0 times closer at half that step
    p, launch = _continuum_case(case, 0.1)
    exact = continuum_evolve(p, 2.0 / p.gamma, n_modes=512,
                             launch_delay=launch)
    size = max(np.max(np.abs(exact.gamma_final)),
               np.max(np.abs(exact.delta_final)))
    errs = []
    for step in (0.04, 0.02):
        rk4 = rhs_continuum_evolve(p, 2.0 / p.gamma, 512, launch_delay=launch,
                                   step=step)
        np.testing.assert_allclose(rk4.t[-1], exact.t[-1], rtol=1e-15,
                                   atol=0.0)
        errs.append(max(abs(rk4.beta_1[-1] - exact.beta_1[-1]),
                        abs(rk4.beta_2[-1] - exact.beta_2[-1]),
                        np.max(np.abs(rk4.gamma_final - exact.gamma_final)),
                        np.max(np.abs(rk4.delta_final - exact.delta_final)))
                    / size)
    assert errs[0] <= 1e-5
    assert 14.0 <= errs[0] / errs[1] <= 18.0


@pytest.mark.parametrize("t_final", [0.0, -1e-9, np.inf, np.nan])
def test_continuum_rejects_nonpositive_t_final(t_final, weak_generic):
    # an infinite or NaN t_final raised OverflowError or numpy's
    # NaN-to-integer error
    p = ModelParams.create(weak_generic.omega_q, weak_generic.gamma,
                           weak_generic.distance,
                           pulse_width=0.5 * weak_generic.gamma)
    with pytest.raises(ValueError, match="t_final"):
        continuum_evolve(p, t_final, n_modes=256)


def test_continuum_refuses_a_comb_too_coarse_for_its_pulse(weak_generic):
    # eight modes over [0.5, 1.5] Omega miss a pulse 0.5 Gamma wide
    p = ModelParams.create(weak_generic.omega_q, weak_generic.gamma,
                           weak_generic.distance,
                           pulse_width=0.5 * weak_generic.gamma)
    with pytest.raises(ValueError, match="refine the continuum grid"):
        continuum_evolve(p, 1.0 / p.gamma, n_modes=8)


@pytest.mark.parametrize("n_modes", [0, 1])
def test_continuum_grid_needs_two_modes(n_modes, weak_generic):
    with pytest.raises(ValueError, match="n_modes"):
        make_continuum_grid(weak_generic, n_modes=n_modes)


@pytest.mark.parametrize("phase", [0.8, 2.0, 5.0], ids=["generic", "even", "odd"])
def test_factored_quadrature_matches_per_node_writing(phase, per_node_quad_kernel,
                                                      kernel_centers,
                                                      with_node_column_sum):
    # the per-panel phase factoring regroups the products of the same
    # integrand on the same nodes, so only rounding may separate the two;
    # one real product per chunk sums the same node columns against the
    # same phases as a dot per node column, closer still (measured at
    # most 7.3e-13 over these 24 samples of the validation presets)
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase,
                               omega_s=1.005 * OMEGA_Q)
    rng = np.random.default_rng(int(phase * 10))
    for way in ("fwd", "bwd"):
        for center, a in kernel_centers(p).items():
            t = rng.uniform(0.2, 2.0) * 40.0 / p.gamma
            if way == "bwd":
                s1 = -rng.uniform(-4.0, -0.1) * p.distance / p.v_g
            else:
                s1 = rng.uniform(1.1, 5.0) * p.distance / p.v_g
            ref = per_node_quad_kernel(s1, t, a, p)
            got = quad_kernel(s1, t, a, p)
            assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-3), (way, center)
            column = with_node_column_sum(quad_kernel, s1, t, a, p)
            assert abs(got - column) <= 1e-12 * max(abs(column), 1e-3), \
                (way, center)


# s1 = 2 d/v_g is the forward kernel at x = 2 d, s1 = 1.5 d/v_g the
# backward one at x = -1.5 d
@pytest.mark.parametrize("center, x_over_d", [
    pytest.param("drive", 2.0, id="fwd_drive"),
    pytest.param("decay_plus", 1.5, id="bwd_decay_plus")])
def test_factored_quadrature_matches_per_node_writing_at_tiny_times(
        center, x_over_d, weak_generic, per_node_quad_kernel, kernel_centers):
    # at t = 1e-19 s every node below 1e11 rad/s has |(omega - a) t| < 1e-8,
    # so both writings take the first-order expansion of phi there
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    a = kernel_centers(p)[center]
    s1 = x_over_d * p.distance / p.v_g
    ref = per_node_quad_kernel(s1, 1e-19, a, p)
    got = quad_kernel(s1, 1e-19, a, p)
    assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-3)
    # |K| is only about 1e-9 here, far below the 1e-3 floor, so the
    # writings must also agree relative to K itself (measured 3.5e-7 at
    # the drive and 1.2e-7 at the collective pole)
    assert abs(got - ref) <= 1e-6 * abs(ref)


def _panel_width(s1, t, p):
    """The quadrature's panel width for a center no larger than Omega."""
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * max(abs(s1), abs(s1 - t), t))
    cutoff = CUTOFF_FACTOR * max(p.omega_q, p.omega_s)
    return cutoff / int(np.ceil(cutoff / h))


@pytest.mark.parametrize("place", [
    "panel_edge", "chunk_edge", "past_chunk_end", "all_in_reach"])
def test_near_panel_split_matches_per_node_writing(place, weak_generic,
                                                   per_node_quad_kernel,
                                                   with_node_column_sum):
    # only the panels within reach of a real center take the per-node sum;
    # wherever the center sits against the panels and the chunks, the
    # split must sum the same nodes as the per-node writing, and zero the
    # same columns of the product as the node-column writing skips (at the
    # chunk edge the window spans the last panels of one chunk and the
    # first of the next); t sets the panel width, so it scales with
    # 1/POINTS_PER_PERIOD to keep the chunk edge near 0.8 Omega
    p = weak_generic
    s1, t = 2.0 * p.distance / p.v_g, 640.0 / (POINTS_PER_PERIOD * p.gamma)
    width = _panel_width(s1, t, p)
    chunk = CHUNK_NODES // PANEL_ORDER
    if place == "panel_edge":
        a = round(0.9 * p.omega_q / width) * width
    elif place == "chunk_edge":
        a = chunk * width
    elif place == "past_chunk_end":
        # in the first panel of the second chunk, within reach of the
        # last panel of the first
        a = chunk * width + 0.5 * (2e-8 / t)
    else:
        # at 1 GHz the cutoff lies within reach of the center at 1e-19 s
        p = ModelParams.from_phase(2.0 * np.pi * 1.0e9, 2.0 * np.pi * 1.0e7,
                                   0.5)
        s1, t = 2.0 * p.distance / p.v_g, 1e-19
        a = p.omega_q
        assert CUTOFF_FACTOR * p.omega_q < a + 2e-8 / t
    assert a <= p.omega_q    # so the cutoff, and the width, are Omega's
    ref = per_node_quad_kernel(s1, t, a, p)
    got = quad_kernel(s1, t, a, p)
    assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-3)
    column = with_node_column_sum(quad_kernel, s1, t, a, p)
    assert abs(got - column) <= 1e-12 * max(abs(column), 1e-3)


def _at_density(points_per_period, fn, *args):
    """``fn(*args)`` with the oracle's panels at that many per period."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "POINTS_PER_PERIOD", points_per_period)
        return fn(*args)


@settings(max_examples=25, deadline=None)
@given(ratio=st.sampled_from([0.01, 0.1]),
       phase=st.sampled_from([0.8, 2.0, 5.0]),
       center=st.sampled_from(["decay_plus", "decay_minus", "drive",
                               "resonant"]),
       sign=st.sampled_from([1.0, -1.0]),
       shift=st.floats(0.1, 5.0),
       lapse=st.floats(1e-4, 1.0))
def test_quadrature_density_resolves_the_kernel(ratio, phase, center, sign,
                                                shift, lapse, kernel_centers):
    # the kernel at POINTS_PER_PERIOD against the same quadrature at four
    # times the density, from just past the light front to 60/Gamma; the
    # dense rule stays under MAX_NODES (about 1.2e6 nodes at Gamma = 0.01
    # Omega and t = 60/Gamma).  Measured at most 1.7e-10 over 4,500 draws,
    # so the bound leaves a margin of about 6.
    p = ModelParams.from_phase(OMEGA_Q, ratio * OMEGA_Q, phase,
                               omega_s=1.005 * OMEGA_Q)
    a = kernel_centers(p)[center]
    s1 = sign * shift * p.distance / p.v_g
    t = max(s1, 0.0) + lapse * 60.0 / p.gamma
    got = quad_kernel(s1, t, a, p)
    dense = _at_density(4 * POINTS_PER_PERIOD, quad_kernel, s1, t, a, p)
    assert abs(got - dense) <= 1e-9 * max(abs(dense), 1e-3)


@settings(max_examples=25, deadline=None)
@given(ratio=st.sampled_from([0.01, 0.1]),
       phase=st.sampled_from([0.8, 2.0, 5.0]),
       center=st.sampled_from(["decay_plus", "decay_minus", "drive",
                               "resonant"]),
       sign=st.sampled_from([1.0, -1.0]),
       shift=st.floats(0.1, 5.0),
       lapse=st.floats(1e-4, 1.0))
def test_quad_kernel_matches_the_multiprecision_kernel(ratio, phase, center,
                                                       sign, shift, lapse,
                                                       kernel_centers,
                                                       mp_kernel):
    # the quadrature against the closed kernel at 40 digits over the
    # density test's space.  Measured at most 6.2e-8 of max(|K|, 1e-3), on
    # a fine grid round the worst spot, where |K| dips just below the
    # floor; the largest absolute error on a 43,200-point grid of the
    # space, 8.2e-10, over the 1e-3 floor caps it at 8.2e-7 wherever |K|
    # dips, so the bound holds a margin of 16 over the measured worst and
    # 1.2 over that cap
    p = ModelParams.from_phase(OMEGA_Q, ratio * OMEGA_Q, phase,
                               omega_s=1.005 * OMEGA_Q)
    a = kernel_centers(p)[center]
    s1 = sign * shift * p.distance / p.v_g
    t = max(s1, 0.0) + lapse * 60.0 / p.gamma
    got = quad_kernel(s1, t, a, p)
    ref = complex(mp_kernel(s1, t, a))
    assert abs(got - ref) <= 1e-6 * max(abs(ref), 1e-3)


def test_tail_moments_match_mpmath():
    # I_k(s) = W^{1-k} E_k(-iWs) at 30 digits for every tail term, over
    # |Ws| from 1e-3 to 1e6 of both signs and on either side of the switch
    # from the recurrence to Gauss-Laguerre; I_k at -s is the conjugate
    # of I_k at s.  W is a power of two near the validation presets'
    # cutoff, so that W s is exact and the phase e^{iWs} takes no
    # rounding (measured at most 3.5e-13 relative, at the switch, so the
    # bound leaves a margin of about 4)
    cutoff = 2.0 ** 37
    ys = np.concatenate([np.geomspace(1e-3, 1e6, 28),
                         TAIL_SWITCH * np.array([1.0 - 1e-9, 1.0, 1.1])])
    worst = 0.0
    with mpmath.workdps(30):
        for y in ys:
            s = y / cutoff
            z = -1j * mpmath.mpf(cutoff) * mpmath.mpf(s)
            ref = np.array([complex(mpmath.mpf(cutoff) ** (1 - k)
                                    * mpmath.expint(k, z))
                            for k in range(1, TAIL_TERMS + 1)])
            for got, want in ((_tail_moments(s, cutoff), ref),
                              (_tail_moments(-s, cutoff), ref.conj())):
                worst = max(worst, np.max(np.abs(got - want) / np.abs(want)))
    assert worst <= 1.5e-12


@pytest.mark.parametrize("center", ["drive", "decay_plus"])
def test_product_sum_matches_node_column_writing_past_a_chunk_multiple(
        center, kernel_centers, with_node_column_sum):
    # a short last chunk of 5 panels takes its columns from the front of
    # the once-allocated buffers; 11 chunks are more panels than a
    # quarter line width of the collective pole asks for, so t sets them
    p = validation._presets()["generic"]
    a = kernel_centers(p)[center]
    target = 11 * (CHUNK_NODES // PANEL_ORDER) + 5
    cutoff = CUTOFF_FACTOR * max(p.omega_q, p.omega_s, abs(a))
    t = (target - 0.5) * 2.0 * np.pi / (POINTS_PER_PERIOD * cutoff)
    s1 = 0.3 * t    # so t is the fastest scale
    h = 2.0 * np.pi / (POINTS_PER_PERIOD * t)
    if a.imag < 0:
        h = min(h, -a.imag / 4.0)
    assert int(np.ceil(cutoff / h)) == target
    ref = with_node_column_sum(quad_kernel, s1, t, a, p)
    got = quad_kernel(s1, t, a, p)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-3)


def test_quad_kernel_memory_stays_within_its_buffers(weak_generic,
                                                     kernel_centers):
    # just under MAX_NODES at a decaying center, one call holds the
    # coarse and fine phase tables, the (16, chunk) column array, a few
    # chunk-long vectors, and the fine product's (16 x blocks, 4) result
    # with a copy of its columns for the coarse products; no panel phase
    # is written out, and never a (panels x nodes) array, which would
    # take 160 MB here (measured peak: 2.64 MB against a bound of
    # 2.69 MB)
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    a = kernel_centers(p)["decay_plus"]
    cutoff = CUTOFF_FACTOR * max(p.omega_q, p.omega_s, abs(a))
    n_panels = int(MAX_NODES // PANEL_ORDER) - 1000
    t = (n_panels - 0.5) * 2.0 * np.pi / (POINTS_PER_PERIOD * cutoff)
    chunk = CHUNK_NODES // PANEL_ORDER
    tables = 2 * 16 * (-(-n_panels // PHASE_FINE) + PHASE_FINE)
    columns = 8 * 2 * PANEL_ORDER * chunk
    vectors = 8 * 4 * chunk
    product = 2 * 8 * 4 * 2 * PANEL_ORDER * chunk // PHASE_FINE
    tracemalloc.start()
    try:
        quad_kernel(0.3 * t, t, a, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= tables + columns + vectors + product


def test_quad_kernel_sharpens_with_cutoff(weak_generic, kernel_centers,
                                         monkeypatch):
    # doubling the frequency cutoff must shrink the tail error, and the
    # two cutoffs must agree at the default one's accuracy (measured
    # 1.3e-10 here, where the doubled cutoff is 6.2e-12 off the closed
    # kernel; the bound leaves a margin of about 4)
    p = weak_generic.with_drive(1.005 * weak_generic.omega_q)
    a = kernel_centers(p)["decay_plus"]
    s1, t = 2.0 * p.distance / p.v_g, 15.0 / p.gamma
    short = quad_kernel(s1, t, a, p)
    monkeypatch.setattr(oracle, "CUTOFF_FACTOR", 2.0 * CUTOFF_FACTOR)
    long = quad_kernel(s1, t, a, p)
    assert abs(short - long) / abs(long) < 5e-10
    assert abs(short - long) > 0  # the tail is genuinely being integrated


def test_quad_kernel_refuses_unreachable_and_singular_points(weak_generic):
    p = weak_generic
    s1 = 2.0 * p.distance / p.v_g
    for t in (0.0, -1e-9):
        with pytest.raises(ValueError, match="t must be positive"):
            quad_kernel(s1, t, p.omega_s, p)
    # s1 = 0 (on a qubit) and s2 = s1 - t = 0 (on the light front)
    for s1_bad, t in ((0.0, 1e-9), (s1, s1)):
        with pytest.raises(ValueError, match="singular"):
            quad_kernel(s1_bad, t, p.omega_s, p)


@pytest.mark.parametrize("arg, value", [
    ("s1", np.nan), ("s1", np.inf), ("t", np.nan), ("t", np.inf),
    ("a", np.inf), ("a", complex(OMEGA_Q, np.nan))])
def test_quad_kernel_refuses_non_finite_arguments(arg, value, weak_generic):
    p = weak_generic
    args = {"s1": 2.0 * p.distance / p.v_g, "t": 40.0 / p.gamma,
            "a": p.omega_s}
    args[arg] = value
    with pytest.raises(ValueError, match="finite"):
        quad_kernel(args["s1"], args["t"], args["a"], p)


def test_quad_kernel_refuses_too_many_nodes_before_allocating(weak_generic):
    # t = 1 ms needs about 1.3e10 nodes; the refusal comes before the first
    # chunk of panel phases (128 KiB) is built (measured peak: 1.4 KiB)
    p = weak_generic
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="nodes"):
            quad_kernel(2.0 * p.distance / p.v_g, 1e-3, p.omega_s, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16384


@pytest.mark.parametrize("t_final", [0.0, -1e-9, np.inf, np.nan])
def test_markov_ode_rejects_nonpositive_t_final(t_final, weak_generic):
    with pytest.raises(ValueError, match="t_final"):
        markov_ode(weak_generic, t_final)


def test_gaussian_spectrum_needs_a_pulse_width(weak_generic):
    assert weak_generic.pulse_width is None
    with pytest.raises(ValueError, match="pulse_width"):
        gaussian_spectrum(weak_generic, [weak_generic.omega_q])


def _pulse(p):
    return ModelParams.create(p.omega_q, p.gamma, p.distance,
                              pulse_width=0.5 * p.gamma)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda p: oracle.quad_spectral(p.omega_q, np.nan, p),
                 "finite", id="quad_spectral_t_nan"),
    pytest.param(lambda p: oracle.quad_spectral(np.nan, 1e-9, p),
                 "finite", id="quad_spectral_omega_nan"),
    pytest.param(lambda p: oracle.quad_spectral(np.inf, 1e-9, p),
                 "finite", id="quad_spectral_omega_inf"),
    pytest.param(lambda p: oracle.quad_spectral(0.0, 1e-8, p),
                 "positive", id="quad_spectral_omega_zero"),
    pytest.param(lambda p: oracle.quad_spectral(-p.omega_q, 1e-8, p),
                 "positive", id="quad_spectral_omega_negative"),
    pytest.param(lambda p: oracle.quad_spectral(p.omega_q, -1e-9, p),
                 "non-negative", id="quad_spectral_t_negative"),
    pytest.param(lambda p: continuum_evolve(_pulse(p), 1.0 / p.gamma,
                                            n_modes=256, launch_delay=np.nan),
                 "launch_delay", id="launch_delay_nan"),
    pytest.param(lambda p: continuum_evolve(_pulse(p), 1.0 / p.gamma,
                                            n_modes=256, launch_delay=np.inf),
                 "launch_delay", id="launch_delay_inf")])
def test_oracles_refuse_non_finite_inputs(call, message, weak_generic):
    # t = NaN gave (0j, 0j) from quad_spectral, omega <= 0 amplitudes of
    # modes that do not exist, and launch_delay = NaN an all-NaN trajectory;
    # t < 0 was refused by the engine amplitudes the quadrature integrated,
    # and the matrix exponential would evolve backwards
    with pytest.raises(ValueError, match=message):
        call(weak_generic)


def test_continuum_refuses_a_nan_initial_norm(weak_generic, monkeypatch):
    # the norm check must fail on NaN, not only on a norm far from 1
    monkeypatch.setattr(oracle, "gaussian_spectrum",
                        lambda params, omega: np.full(np.shape(omega), np.nan))
    with pytest.raises(ValueError, match="norm nan"):
        continuum_evolve(_pulse(weak_generic), 1.0 / weak_generic.gamma,
                         n_modes=256)


def test_continuum_grid_covers_pulse_and_normalizes():
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5,
                               omega_s=1.4 * OMEGA_Q,
                               pulse_width=0.02 * OMEGA_Q)
    grid = make_continuum_grid(p, n_modes=2048)
    assert grid.omega[0] <= p.omega_s - 8.0 * p.pulse_width
    assert grid.omega[-1] >= p.omega_s + 8.0 * p.pulse_width
    # trapezoid end-weights
    step = grid.omega[1] - grid.omega[0]
    assert grid.weights[0] == pytest.approx(0.5 * step)
    assert grid.weights[-1] == pytest.approx(0.5 * step)
    assert grid.weights[1] == pytest.approx(step)
    # the discretized Gaussian is unit-norm on its own grid
    norm = np.sum(np.abs(gaussian_spectrum(p, grid.omega)) ** 2 * grid.weights)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_continuum_rejects_nonpositive_frequencies():
    p = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, 0.5,
                               omega_s=OMEGA_Q,
                               pulse_width=0.3 * OMEGA_Q)
    with pytest.raises(ValueError):
        make_continuum_grid(p)


def test_continuum_preserves_norm(weak_generic):
    p = ModelParams.create(weak_generic.omega_q, weak_generic.gamma,
                           weak_generic.distance,
                           pulse_width=0.5 * weak_generic.gamma)
    res = continuum_evolve(p, 5.0 / p.gamma, n_modes=1024)
    # measured 1.2e-14; a series cut where J_k falls below 1e-14 instead of
    # the float64 epsilon drifts 1.5e-13, and below 1e-12 5.2e-12
    assert validation.norm_drift(res) < 1e-13


def test_continuum_norm_fails_a_truncated_series(weak_generic, monkeypatch):
    # the Chebyshev coefficients below 1e-12 dropped: the series stops
    # there, and the norm drifts by 5.2e-12, past the 1e-13 bound of
    # test_continuum_preserves_norm, and the printed row's packet by
    # 4.6e-11, past the row's 1e-12 bound
    jv = oracle.special.jv
    cut = SimpleNamespace(jv=lambda k, x: np.where(
        np.abs(jv(k, x)) < 1e-12, 0.0, jv(k, x)))
    monkeypatch.setattr(oracle, "special", cut)
    p = ModelParams.create(weak_generic.omega_q, weak_generic.gamma,
                           weak_generic.distance,
                           pulse_width=0.5 * weak_generic.gamma)
    res = continuum_evolve(p, 5.0 / p.gamma, n_modes=1024)
    assert validation.norm_drift(res) > 1e-13
    rows = {name: (tol, measure)
            for name, tol, measure in validation.checks(full=True)}
    tol, measure = rows["continuum norm drift"]
    assert measure(np.random.default_rng(validation.SEED)) > tol


def test_continuum_scatters_onto_exact_lattice_fluxes():
    # launch a detuned Gaussian packet from upstream at k_Omega*d = 5*pi
    # (where the finite comb window is faithful) and compare the settled
    # transmitted and reflected fluxes with the packet-averaged exact
    # lattice transmittance and reflectance
    gam = 0.1 * OMEGA_Q
    p = ModelParams.from_phase(OMEGA_Q, gam, 5.0,
                               omega_s=OMEGA_Q + 5.0 * gam, pulse_width=gam)
    launch = 8.0 / gam
    res = continuum_evolve(p, launch + 15.0 / gam, n_modes=2048,
                           launch_delay=launch)
    assert validation.fluxes_vs_lattice(res, p) < 2e-3
    # the qubits have emptied out by the end of the run
    assert abs(res.beta_1[-1]) ** 2 + abs(res.beta_2[-1]) ** 2 < 1e-6
