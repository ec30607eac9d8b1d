"""The drive axis of the field engine against per-drive evaluation.

``drive_sweep`` evaluates one block over the outer product of drive
carriers and positions in a single call.  Each carrier's entry must equal
what the per-drive public field function gives at a single point, with
the drive's own ``ModelParams`` and collective rates, in every region,
interference regime and branch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import fields
from wqed.model import ModelParams, collective_rates

OMEGA_Q = 2.0 * np.pi * 5.0e9

# position ranges in units of d, clear of the 0.05 d exclusion zones
REGIONS = {"before": (-3.0, -0.1), "between": (0.1, 0.9),
           "behind": (1.1, 3.0)}
FIELD_FN = {fields.Region.BEFORE: fields.backward_field,
            fields.Region.BETWEEN: fields.interqubit_field,
            fields.Region.BEHIND: fields.forward_field}
# At t = 3.215e-5 s the tail gate min(omega_s, Omega) * lag > 1e6 holds
# for omega_s/Omega above about 0.99 only, so "auto" splits these two
# carriers between the transient and the steady branch.
STRADDLE = (0.985, 1.01)
AUTO_T = 3.215e-5

phases = st.one_of(st.floats(0.15, 0.85), st.sampled_from([1.0, 2.0, 3.0]))
branches = st.one_of(
    st.tuples(st.just("transient"), st.floats(2e-9, 5e-7)),
    st.tuples(st.just("steady"), st.floats(2e-6, 1e-5)),
    st.tuples(st.just("auto"), st.just(AUTO_T)))


def _check_against_points(params, x, omega, branch, t):
    rates = collective_rates(params)
    grid = fields.space_time_grid(params, x, [t])
    steady, *swept = fields.drive_sweep(grid, rates, params, omega,
                                        branch=branch)
    assert [steady.size] + [env.shape[0] for env in swept] \
        == [omega.size] * 4
    fn = FIELD_FN[grid.region]
    for k, carrier in enumerate(omega):
        drive = params.with_drive(carrier)
        drive_rates = collective_rates(drive)
        for j, xj in enumerate(x):
            point = fn(fields.space_time_grid(drive, [xj], [t]),
                       drive_rates, drive, branch=branch)
            assert point.branch is (fields.FieldBranch.STEADY if steady[k]
                                    else fields.FieldBranch.TRANSIENT)
            for name, env in zip(("u", "v", "w"), swept):
                got = env[k, 0, j]
                want = getattr(point, name)[0, 0]
                assert abs(got - want) <= 1e-12 * abs(want), (name, k, j)
    return steady


@settings(max_examples=30, deadline=None, derandomize=True)
@given(phase=phases, region=st.sampled_from(sorted(REGIONS)),
       x_cells=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
       extra=st.lists(st.floats(0.98, 1.02), max_size=2),
       branch_time=branches)
def test_drive_sweep_equals_per_point_fields(phase, region, x_cells, extra,
                                             branch_time):
    params = ModelParams.from_phase(OMEGA_Q, 0.01 * OMEGA_Q, phase)
    lo, hi = REGIONS[region]
    x = (lo + (hi - lo) * np.asarray(x_cells)) * params.distance
    omega = np.asarray(STRADDLE + tuple(extra)) * OMEGA_Q
    branch, t = branch_time
    steady = _check_against_points(params, x, omega, branch, t)
    if branch == "auto":
        assert steady[:2].tolist() == [False, True]


def test_one_drive_sweep_is_the_public_field(weak_even):
    # the public field functions are the one-drive case of the sweep
    p = weak_even.with_drive(1.004 * weak_even.omega_q)
    r = collective_rates(p)
    grid = fields.space_time_grid(p, np.array([0.2, 0.6]) * p.distance,
                                  [3e-8, 2e-7])
    for branch in ("transient", "steady"):
        whole = fields.interqubit_field(grid, r, p, branch=branch)
        _, *swept = fields.drive_sweep(grid, r, p, [p.omega_s], branch=branch)
        for name, env in zip(("u", "v", "w"), swept):
            np.testing.assert_array_equal(env[0], getattr(whole, name))


def test_drive_sweep_rejects_bad_carriers(weak_generic):
    p = weak_generic
    r = collective_rates(p)
    grid = fields.space_time_grid(p, [3 * p.distance], [5e-6])
    for bad in ([[p.omega_q]], [-p.omega_q], [np.nan]):
        with pytest.raises(ValueError):
            fields.drive_sweep(grid, r, p, bad)


def test_drive_sweep_refuses_carrier_phases_past_two_to_the_53(weak_generic):
    # the grid bounds the phases of its params' carriers only; past 2^53 a
    # phase omega t has no fractional bits
    p = weak_generic
    r = collective_rates(p)
    t = np.nextafter(2 ** 53 / p.omega_q, 0.0)
    grid = fields.space_time_grid(p, [3 * p.distance], [t])
    fields.drive_sweep(grid, r, p, [p.omega_q], "steady")
    with pytest.raises(ValueError, match=r"2\^53"):
        fields.drive_sweep(grid, r, p, [p.omega_q, 1.02 * p.omega_q],
                           "steady")
