"""The CSV writer's number cells are the bytes of '%.17g' % v, for every v.

``cli.write_csv`` formats numbers in numpy: a double-double product gives
the 17-digit significand and a slot layout gives the '%g' text, with
'%.17g' itself for the cells it leaves out.  These tests compare its
output with '%.17g' byte for byte, over arbitrary floats, random bit
patterns and the cases where the digits or the layout change, and bound
the writer's memory by one chunk of rows.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed import cli


def assert_formats_as_percent_g(values, directory):
    """``write_csv`` writes each value as '%.17g' does."""
    values = np.asarray(values, dtype=np.float64)
    path = directory / "cells.csv"
    cli.write_csv(path, [], ["v"], cli._table(["v"], [values]))
    got = path.read_text().split("\n")[1:-1]
    path.unlink()
    want = ["%.17g" % v for v in values.tolist()]
    if got != want:
        wrong = [(v.hex(), g, w)
                 for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(got)} lines for {len(want)} values, "
                    f"{len(wrong)} differ, first {wrong[:5]}")


def random_bits(rng, n, biased_exponents=(0, 2047)):
    """float64s of random bit patterns, the biased exponent drawn from the
    half-open range ``biased_exponents``."""
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    exponent = rng.integers(*biased_exponents, n).astype(np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52))
            | mantissa).view(np.float64)


def neighbours(values, ulps=2):
    """Each value and the ``ulps`` floats on either side of it."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), \
                math.nextafter(above, math.inf)
            out += [below, above]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats(values, tmp_path_factory):
    # nan, +-inf, +-0 and subnormals are all in st.floats()
    assert_formats_as_percent_g(values, tmp_path_factory.getbasetemp())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(cli._FAST_MIN, cli._FAST_MAX,
                                 exclude_max=True), min_size=1, max_size=64))
def test_any_floats_in_the_numpy_window(values, tmp_path_factory):
    assert_formats_as_percent_g(values, tmp_path_factory.getbasetemp())


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20261020)
    assert_formats_as_percent_g(random_bits(rng, 1 << 20), tmp_path)
    # the binary exponents of [1e-29, 1e29): the numpy path itself
    assert_formats_as_percent_g(
        random_bits(rng, 1 << 19, (1023 - 97, 1023 + 97)), tmp_path)


def test_window_edges(tmp_path):
    edges = [cli._FAST_MIN, cli._FAST_MAX]
    assert_formats_as_percent_g(
        neighbours(edges + [-v for v in edges]), tmp_path)


def test_powers_of_ten(tmp_path):
    powers = [float(f"1e{k}") for k in range(-40, 41)]
    assert_formats_as_percent_g(neighbours(powers, ulps=1), tmp_path)


def test_notation_switches(tmp_path):
    # '%g' writes a fixed point from 1e-4 up to 1e17 and an exponent
    # outside; a value next to a switch may round across it
    switches = [1e-5, 1e-4, 1e16, 1e17, 0.1, 1.0, 10.0]
    assert_formats_as_percent_g(
        neighbours(switches + [-v for v in switches], ulps=4), tmp_path)


def test_rounding_that_carries_into_the_next_decade(tmp_path):
    # doubles just below a power of ten that 17 digits round up to it
    carries = []
    for k in range(-40, 41):
        value = float(Fraction(10) ** k)
        for candidate in (value, math.nextafter(value, 0.0)):
            if Fraction(candidate) < Fraction(10) ** k \
                    and ("%.17g" % candidate).startswith("1e"):
                carries.append(candidate)
    assert 1e-14 in carries
    assert_formats_as_percent_g(
        carries + [99999999999999999.0, 9.9999999999999999e-5], tmp_path)


def test_exact_halfway_cases(tmp_path):
    # m / 2**q is exact, and for odd m with 18-digit m * 5**q its 17-digit
    # rounding is an exact tie, settled half to even by '%.17g'
    rng = np.random.default_rng(7)
    ties = []
    for q in range(2, 26):
        lo = -(-10 ** 17 // 5 ** q)
        hi = min(10 ** 18 // 5 ** q, 1 << 53)
        for m in {int(m) | 1 for m in rng.integers(lo, hi, 8000)}:
            if 10 ** 17 <= m * 5 ** q < 10 ** 18:
                ties.append(math.ldexp(m, -q))
    assert len(ties) > 100_000
    # numpy leaves every tie to '%.17g'
    assert cli._significands(np.array(ties))[2].all()
    assert_formats_as_percent_g(ties + [-v for v in ties[:1000]], tmp_path)


def test_write_csv_peak_memory_is_one_chunk_of_rows(tmp_path):
    # 60,000 rows of a text and 11 number columns take tens of chunks; the
    # writer's traced peak must stay that of about one chunk
    rng = np.random.default_rng(11)
    columns = ["curve"] + [f"c{i}" for i in range(11)]
    chunk_rows = cli._CHUNK_CELLS // len(columns)

    def peak(n_rows):
        labels = np.repeat(["line:x=0.5d", "scan:ws=1.01"],
                           [n_rows // 2, n_rows - n_rows // 2])
        table = cli._table(columns, [labels]
                           + list(rng.standard_normal((11, n_rows))))
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "big.csv", ["peak"], columns, table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(chunk_rows)
    many_chunks = peak(60_000)
    assert 60_000 >= 40 * chunk_rows
    assert many_chunks < 2 * one_chunk
