"""Sine, cosine, and exponential integrals: identities, references, branches."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import specfun
from wqed.oracle import e1_scaled_quad


def test_si_lower_reflection_identity():
    rng = np.random.default_rng(17)
    x = rng.uniform(1e-3, 80.0, 1000)
    total = specfun.si_lower(x) + specfun.si_lower(-x)
    assert np.max(np.abs(total + np.pi)) < 1e-12


def test_si_lower_endpoints():
    assert abs(specfun.si_lower(0.0) + np.pi / 2) < 1e-15
    # si -> 0 from above as x -> +inf, -> -pi as x -> -inf
    assert abs(specfun.si_lower(300.0)) < 0.01
    assert abs(specfun.si_lower(-300.0) + np.pi) < 0.01


def test_si_ci_two_term_asymptotics():
    # si(x) ~ -cos(x)/x - sin(x)/x^2, ci(x) ~ sin(x)/x - cos(x)/x^2; the
    # truncation error is O(1/x^3), comfortably inside 1e-4 from x = 30 up.
    x = np.concatenate([[50.0], np.linspace(30.0, 100.0, 141)])
    si_ref = -np.cos(x) / x - np.sin(x) / x ** 2
    ci_ref = np.sin(x) / x - np.cos(x) / x ** 2
    assert np.max(np.abs(specfun.si_lower(x) - si_ref)) < 1e-4
    assert np.max(np.abs(specfun.cosine_integral(x) - ci_ref)) < 1e-4


def test_cosine_integral_small_argument_series():
    x = 1e-8
    ref = specfun.EULER_GAMMA + np.log(x)
    assert abs(specfun.cosine_integral(x) - ref) < 1e-12


def test_cosine_integral_rejects_nonpositive():
    with pytest.raises(ValueError):
        specfun.cosine_integral(0.0)
    with pytest.raises(ValueError):
        specfun.cosine_integral(-2.0)
    with pytest.raises(ValueError):
        specfun.cosine_integral(np.array([1.0, -0.5]))


def test_exp_integral_reference_value():
    assert abs(specfun.exp_integral_e1(1.0) - 0.2193839) < 1e-6


def test_exp_integral_rejects_origin_and_cut():
    with pytest.raises(ValueError):
        specfun.exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        specfun.exp_integral_e1(-3.0 + 0.0j)
    # just off the cut is fine
    specfun.exp_integral_e1(-3.0 + 1e-6j)


@pytest.mark.parametrize("fn, arg", [
    (specfun.exp_integral_e1, complex(np.inf, 1.0)),
    (specfun.e1_scaled, complex(np.nan, 1.0)),
    (specfun.si_lower, np.nan),
    (specfun.cosine_integral, np.array([1.0, np.inf])),
], ids=["E1", "E1s", "si", "Ci"])
def test_special_functions_refuse_non_finite_arguments(fn, arg):
    with pytest.raises(ValueError, match="must be finite"):
        fn(arg)


def test_exp_integral_asymptotic_form():
    # E1(z) ~ e^{-z}/z (1 - 1/z) at |z| = 50 across the principal sector
    rng = np.random.default_rng(23)
    z = 50.0 * np.exp(1j * rng.uniform(-2.2, 2.2, 60))
    ref = np.exp(-z) / z * (1.0 - 1.0 / z)
    assert np.max(np.abs(specfun.exp_integral_e1(z) / ref - 1.0)) < 1e-3


def test_exp_integral_imaginary_axis_is_cosine_integral():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 40.0, 300)
    val = specfun.exp_integral_e1(1j * x)
    assert np.max(np.abs(val.real + specfun.cosine_integral(x))) < 1e-9
    # and the imaginary part carries si(x) = Si(x) - pi/2
    assert np.max(np.abs(val.imag - specfun.si_lower(x))) < 1e-9


def test_scaled_exp_integral_against_quadrature():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        radius = rng.uniform(0.1, 30.0)
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        z = radius * np.exp(1j * angle)
        ref = e1_scaled_quad(z)
        worst = max(worst, abs(specfun.e1_scaled(z) - ref) / abs(ref))
    assert worst < 1e-8


def test_scaled_exp_integral_consistent_with_plain():
    rng = np.random.default_rng(77)
    z = rng.uniform(0.2, 5.0, 50) * np.exp(1j * rng.uniform(-2.5, 2.5, 50))
    lhs = specfun.e1_scaled(z)
    rhs = np.exp(z) * specfun.exp_integral_e1(z)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-12


def test_scaled_exp_integral_survives_huge_decay_arguments():
    # e^z and E1(z) overflow/underflow separately here; the product must not
    z = 4000.0 + 300.0j
    val = specfun.e1_scaled(z)
    ref = 1.0 / z * (1.0 - 1.0 / z + 2.0 / z ** 2)
    assert np.isfinite(val)
    assert abs(val / ref - 1.0) < 1e-8


def test_series_and_continued_fraction_overlap():
    # the two branches must agree in a window around the switch radius
    rng = np.random.default_rng(13)
    z = rng.uniform(5.0, 7.0, 100) * np.exp(1j * rng.uniform(-2.3, 2.3, 100))
    series = np.exp(z) * specfun._e1_series(z)
    fraction = specfun._e1s_continued_fraction(z)
    assert np.max(np.abs(series / fraction - 1.0)) < 1e-8


def _mp_e1_scaled(z):
    with mpmath.workdps(30):
        w = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(w) * mpmath.e1(w))


def _polar(log10_radius, angle):
    return complex(10.0 ** log10_radius * np.exp(1j * angle))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log10_radius=st.floats(-3.0, 5.0),
       angle=st.floats(-(np.pi / 2 + 0.1), np.pi / 2 + 0.1))
def test_scaled_exp_integral_against_mpmath(log10_radius, angle):
    z = _polar(log10_radius, angle)
    ref = _mp_e1_scaled(z)
    assert abs(specfun.e1_scaled(z) - ref) <= 1e-13 * abs(ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log10_radius=st.floats(-3.0, 5.0),
       angle=st.floats(-(np.pi - 0.05), np.pi - 0.05))
def test_scaled_exp_integral_is_right_or_raises(log10_radius, angle):
    # near the branch cut the continued fraction may give up, but it must
    # never hand back a value outside the tolerance
    z = _polar(log10_radius, angle)
    try:
        got = specfun.e1_scaled(z)
    except RuntimeError:
        return
    ref = _mp_e1_scaled(z)
    assert abs(got - ref) <= 1e-13 * abs(ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log10_x=st.floats(-3.0, 5.0))
def test_sine_and_cosine_integrals_against_mpmath(log10_x):
    x = 10.0 ** log10_x
    with mpmath.workdps(30):
        si_ref, ci_ref = mpmath.si(x), mpmath.ci(x)
        si_neg = -si_ref - mpmath.pi / 2
    assert abs(specfun.cosine_integral(x) - ci_ref) <= 1e-14 * max(abs(ci_ref), 1)
    assert abs(specfun.si_lower(-x) - si_neg) <= 1e-14 * max(abs(si_neg), 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(log10_x=st.floats(np.log10(6.0), 5.0, exclude_min=True))
def test_si_lower_keeps_its_accuracy_beyond_the_switch_radius(log10_x):
    # si(x) = Si(x) - pi/2 decays like 1/x; it must be as accurate as the
    # E1(ix) = -Ci(x) + i si(x) it is read from, not as pi/2 is
    x = 10.0 ** log10_x
    with mpmath.workdps(30):
        ref = mpmath.si(x) - mpmath.pi / 2
        scale = abs(mpmath.e1(mpmath.mpc(0, x)))
    assert abs(specfun.si_lower(x) - ref) <= 1e-14 * scale


@pytest.mark.parametrize("fn", [specfun.si_lower, specfun.cosine_integral])
def test_real_integrals_do_not_depend_on_the_batch(fn):
    # both E1 branches along the imaginary axis, and the switch between
    rng = np.random.default_rng(37)
    x = np.concatenate([10.0 ** rng.uniform(-4.0, 4.0, 200),
                        [specfun._SERIES_RADIUS, np.nextafter(6.0, 7.0)]])
    batch = fn(x)
    single = np.array([fn(v) for v in x])
    assert batch.tobytes() == single.tobytes()


@pytest.mark.parametrize("radius", [6.01, *specfun._CF_BANDS])
def test_continued_fraction_converges_where_it_always_did(radius):
    # a grid reaching towards the cut at the lower edge of every start-depth
    # band, where the recurrence needs its deepest passes (|z| = 6.01 at
    # angle 3.0 takes depth 2,304 of the 5,000 allowed); none may raise
    angles = np.array([0.0, np.pi / 2, np.pi / 2 + 0.1, 2.0, 2.5, 3.0])
    z = radius * np.exp(1j * angles)
    got = specfun.e1_scaled(z)
    ref = np.array([_mp_e1_scaled(v) for v in z])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-13


def _kernel_rays():
    # the field kernels take E1 within 0.1 of the imaginary axis
    radius = np.geomspace(6.0, 1e4, 400)
    angles = np.concatenate([np.linspace(np.pi / 2 - 0.1, np.pi / 2 + 0.1, 9),
                             np.linspace(-np.pi / 2 - 0.1, -np.pi / 2 + 0.1, 9)])
    return (radius[:, None] * np.exp(1j * angles[None, :])).ravel()


def test_start_depths_serve_the_kernel_rays_in_one_round(monkeypatch):
    # on the kernel rays every band's start depth meets the truncation
    # bound at once: no argument goes round again, so the continued
    # fraction makes one backward sweep, every argument at the start depth
    # of its |z| band and the deepest first
    z = _kernel_rays()
    sweeps = []
    real_backward = specfun._cf_backward

    def counting_backward(z, depth):
        sweeps.append(depth)
        return real_backward(z, depth)

    monkeypatch.setattr(specfun, "_cf_backward", counting_backward)
    specfun._e1s_continued_fraction(z)
    band = np.searchsorted(specfun._CF_BANDS, np.abs(z), side="right")
    (depth,) = sweeps
    assert np.array_equal(depth, np.sort(specfun._CF_DEPTHS[band])[::-1])


def _near_cut_grid():
    # the grid of test_continued_fraction_converges_where_it_always_did
    angles = np.array([0.0, np.pi / 2, np.pi / 2 + 0.1, 2.0, 2.5, 3.0])
    return np.concatenate([r * np.exp(1j * angles)
                           for r in (6.01, *specfun._CF_BANDS)])


def _random_arguments():
    rng = np.random.default_rng(53)
    n = 20000
    return 10.0 ** rng.uniform(-3.0, 4.0, n) \
        * np.exp(1j * rng.uniform(-2.9, 2.9, n))


@pytest.mark.parametrize("args", [_random_arguments, _near_cut_grid,
                                  _kernel_rays],
                         ids=["random", "near-cut", "kernel-rays"])
def test_e1_matches_the_band_loop_writing_bit_for_bit(args, band_loop_e1):
    # one sweep ordered by start depth takes every argument through the
    # steps of the band-by-band loop: the same bits, on both branches,
    # for E1 and for e^z E1, and argument by argument as in a batch
    z = args()
    with np.errstate(over="ignore", invalid="ignore"):
        for fn, scaled in ((specfun.e1_scaled, True),
                           (specfun.exp_integral_e1, False)):
            assert fn(z).tobytes() == band_loop_e1(z, scaled).tobytes()
    single = np.array([specfun.e1_scaled(v) for v in z[::97]])
    assert single.tobytes() == band_loop_e1(z[::97], True).tobytes()


@pytest.mark.parametrize("args", [_random_arguments, _near_cut_grid,
                                  _kernel_rays],
                         ids=["random", "near-cut", "kernel-rays"])
def test_real_step_matches_the_complex_step_writing(args, complex_step_e1):
    # the continued fraction steps on the parts of t with no complex
    # division; that rounds otherwise than one complex division per step,
    # but only in the last bits (measured at most 4.6e-16 for e^z E1 and
    # 4.5e-16 for E1 over these three sets)
    z = args()
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        for fn, scaled in ((specfun.e1_scaled, True),
                           (specfun.exp_integral_e1, False)):
            got, ref = fn(z), complex_step_e1(z, scaled)
            # E1 itself over- or underflows far out on these sets
            kept = np.isfinite(ref) & (np.abs(ref) >= tiny)
            assert kept.sum() >= 0.85 * z.size
            assert np.all(np.abs(got[kept] - ref[kept])
                          <= 1e-15 * np.abs(ref[kept]))


def _mp_reference(z, scaled):
    """e^z E1(z) or E1(z) in 60 digits, rounded to complex."""
    with mpmath.workdps(60):
        w = mpmath.mpc(z.real, z.imag)
        value = mpmath.e1(w)
        return complex(mpmath.exp(w) * value if scaled else value)


_HUGE_ANGLES = (np.pi / 2 - 0.1, np.pi / 2, np.pi / 2 + 0.1,
                -(np.pi / 2 - 0.1), -(np.pi / 2 + 0.1), 2.5)


@pytest.mark.parametrize("radius", [1e150, 1e200, 1e300, 1.7e308])
def test_e1_at_huge_arguments(radius):
    # past |z| of about 1.3e154 the squared modulus of the continued
    # fraction's t overflows; the step then drops a term below 1e-300 of
    # t, so e^z E1(z) is 1/(z + 1), and the final 1/t_0 must not
    # overflow either.  Where the value lies below the normal
    # range (|z| = 1.7e308) it is held to 1e-13 of the smallest normal.
    # E1 itself overflows with e^{-z} where Re z < 0 here, so it is
    # pinned where Re z >= 0: the kernel rays towards +-i, and the
    # imaginary axis, which the steady field forms read.
    tiny = np.finfo(float).tiny
    z = np.append(radius * np.exp(1j * np.array(_HUGE_ANGLES)),
                  [1j * radius, -1j * radius])
    got = specfun.e1_scaled(z)
    assert np.array_equal(got, [specfun.e1_scaled(v) for v in z])
    for v, g in zip(z, got):
        ref = _mp_reference(v, True)
        assert abs(g - ref) <= 1e-13 * max(abs(ref), tiny), v
        with mpmath.workdps(60):
            limit = complex(1 / (mpmath.mpc(v.real, v.imag) + 1))
        assert abs(g - limit) <= 1e-13 * max(abs(limit), tiny), v
    z = z[z.real >= 0]
    got = specfun.exp_integral_e1(z)
    for v, g in zip(z, got):
        ref = _mp_reference(v, False)
        assert abs(g - ref) <= 1e-13 * max(abs(ref), tiny), v


def test_series_region_against_mpmath():
    # dense polar grid over the series branch, |z| in [1e-3, 6] with
    # Re z <= 0.5; the outer ring reaches the worst corner |z| = 6,
    # Re z = 0.5, where the Horner term count is tightest
    angles = np.linspace(-np.pi + 0.01, np.pi - 0.01, 157)
    for radius in np.geomspace(1e-3, 6.0, 25):
        z = radius * np.exp(1j * angles)
        if radius > 0.5:
            corner = complex(0.5, np.sqrt(radius ** 2 - 0.25))
            z = np.append(z, [corner, corner.conjugate()])
        # drops Re z > 0.5, and points a rounding beyond |z| = 6
        z = z[specfun._takes_series(z)]
        assert z.size >= 50
        ref = np.array([_mp_e1_scaled(v) for v in z])
        got = specfun.e1_scaled(z)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13
        got = np.exp(z) * specfun.exp_integral_e1(z)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13


def test_series_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(31)
    z = rng.uniform(1e-3, 6.0, 256) * np.exp(1j * rng.uniform(-3.1, 3.1, 256))
    z = z[specfun._takes_series(z)]
    batch = specfun.e1_scaled(z)
    single = np.array([specfun.e1_scaled(v) for v in z])
    assert batch.tobytes() == single.tobytes()


def test_continued_fraction_raises_at_the_cut():
    with pytest.raises(RuntimeError, match="failed to converge"):
        specfun.e1_scaled(6.5 * np.exp(1j * (np.pi - 1e-4)))


def test_continued_fraction_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(29)
    z = rng.uniform(6.5, 400.0, 64) * np.exp(1j * rng.uniform(-2.5, 2.5, 64))
    batch = specfun._e1s_continued_fraction(z)
    single = np.array([specfun._e1s_continued_fraction(z[k:k + 1])[0]
                       for k in range(z.size)])
    assert batch.tobytes() == single.tobytes()
    # a field block's front call: 7,680 kernel-ray arguments in every
    # start-depth band in one sweep, against every 61st of them alone
    n = 7680
    z = 10.0 ** rng.uniform(np.log10(6.01), 5.0, n) * np.exp(1j * (
        rng.choice([-1.0, 1.0], n) * np.pi / 2 + rng.uniform(-0.1, 0.1, n)))
    batch = specfun._e1s_continued_fraction(z)
    sample = np.arange(0, n, 61)
    single = np.array([specfun._e1s_continued_fraction(z[k:k + 1])[0]
                       for k in sample])
    assert batch[sample].tobytes() == single.tobytes()
