"""floattext.g17 and floattext.shortest: the exact texts of '%.17g' and of
json's repr (NaN, Infinity and -Infinity where repr is not a JSON number)
for every float64."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetoptics import floattext
from sheetoptics.codec import json_float
from sheetoptics.floattext import E_MAX, E_MIN, g17, shortest


def reference(values) -> list:
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def json_reference(values) -> list:
    return [json_float(v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def powers_of_ten_and_neighbours(exponents) -> list:
    values = []
    for k in exponents:
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    return values


EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308,
    # the switch between fixed and exponent form
    1e-5, 1e-4, 9.9999999999999991e-5, 1e16, 1e17, 99999999999999984.0,
    # exact ties at the 18th digit, and values that round up to 10**17
    1234567890123456.75, 1234567890123457.25, 0.12345678901234565, 99999999999999999.0,
    1e23, 9007199254740993.0, 123456789.0, 0.5, 1200.0, 2.5e-300,
    # within 1e-6 of a tie at the 18th digit but off it, by 2**-52 of the
    # 17th: the kernel's estimate lands on the wrong side of the tie (a
    # seeded search over scaled values 1/2 + k 2**-52 past a tie found it)
    2.2422607587866907e-07,
    # both edges of the table of powers: the last cells placed and the first not
    *powers_of_ten_and_neighbours([E_MIN, E_MIN + 1, E_MIN + 2, E_MAX - 1, E_MAX, E_MAX + 1]),
    # every power of ten of a float64, with both neighbours
    *powers_of_ten_and_neighbours(range(-323, 309)),
]


#: Edges of ``shortest``, the repr kernel.
REPR_EDGES = [
    # within 1e-6 of a tie between two candidates of 15 digits and of 16
    # (the last two with both of those inside the interval), found by a
    # seeded search
    0.1694236924132555, 4.808783014647425e-08, 0.0049453626410331155,
    0.09361635352504453, 97.64587600763357,
    # significands of exactly 2**52, whose interval is narrower below
    2.0, 2.0**-30, 2.0**60, 2.0**-1000, 2.0**1000, 9007199254740992.0,
    # repr's switch between fixed and exponent form
    1e15, 9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05,
    999999999999999.9, 12345678901234567.0,
    # integral values, written with ".0"
    123456789012345.0, 1234567890123456.0, 4503599627370497.0, 999999999999999.0, 100.0,
]


def test_edge_table():
    values = np.array(EDGES + REPR_EDGES)
    values = np.concatenate([values, -values])
    assert g17(values).tolist() == reference(values)
    assert shortest(values).tolist() == json_reference(values)


def test_result_type():
    out = g17(np.array([1.5, -2.0]))
    assert out.dtype == np.dtype("S24")
    assert out.tolist() == [b"1.5", b"-2"]
    assert g17(np.array([])).tolist() == []
    out = shortest(np.array([1.5, -2.0, 0.0, -0.0]))
    assert out.dtype == np.dtype("S24")
    assert out.tolist() == [b"1.5", b"-2.0", b"0.0", b"-0.0"]
    assert shortest(np.array([])).tolist() == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=300))
def test_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert g17(values).tolist() == reference(values)
    assert shortest(values).tolist() == json_reference(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=300))
def test_floats(values):
    assert g17(np.array(values, dtype=np.float64)).tolist() == reference(values)
    assert shortest(np.array(values, dtype=np.float64)).tolist() == json_reference(values)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_bit_patterns_and_scaled_normals(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-20, 20, 20_000)
    for values in (bits.view(np.float64), scaled):
        assert g17(values).tolist() == reference(values)
        assert shortest(values).tolist() == json_reference(values)


@pytest.mark.parametrize("shift", [-1, 1])
def test_misjudged_exponent(shift):
    """A log10 one off puts the scaled value outside [10**16, 10**17): the
    cell then goes through '%.17g' or json_float itself, so no output rests
    on log10."""
    rng = np.random.default_rng(2)
    values = rng.standard_normal(2000) * 10.0 ** rng.integers(-200, 200, 2000)
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
        assert g17(values).tolist() == reference(values)
        assert shortest(values).tolist() == json_reference(values)


def bits_of(value: float) -> int:
    return int(np.array(value, dtype=np.float64).view(np.uint64))


NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF]


@pytest.mark.parametrize("bits", [
    [bits_of(0.0), bits_of(-0.0), bits_of(0.0), bits_of(0.0), bits_of(-0.0), bits_of(-0.0)],
    NAN_BITS + NAN_BITS[::-1] + [bits_of(1.0)] * 3 + NAN_BITS,
    [bits_of(1.0)], [bits_of(np.nan)], [bits_of(-0.0)],
    [bits_of(1.0)] * 1000, [bits_of(-0.0)] * 1000, [bits_of(0.1)] * 1000, [NAN_BITS[3]] * 700,
], ids=["signed_zeros", "nans", "one_element", "one_nan", "one_negative_zero",
        "all_one", "all_negative_zero", "all_tenth", "all_nan"])
def test_runs_of_equal_looking_cells(bits):
    """Cells with equal text but other bits (+0 and -0, NaNs of either
    sign and any payload) next to each other, one-element arrays and
    arrays of one repeated value."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert g17(values).tolist() == reference(values)


cells = st.integers(0, 2**64 - 1) | st.floats().map(bits_of)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(cells, st.integers(1, 8)), max_size=100))
def test_runs(runs):
    """Arrays of runs: each drawn cell repeated 1 to 8 times, so equal
    neighbours are formatted once and copied along their run."""
    bits = np.array([cell for cell, _ in runs], dtype=np.uint64)
    values = np.repeat(bits, [count for _, count in runs]).view(np.float64)
    assert g17(values).tolist() == reference(values)


@pytest.mark.parametrize("shift", [-1, 1])
def test_misjudged_exponent_in_runs(shift):
    """As test_misjudged_exponent, on runs of repeated cells, exact powers
    of ten among them."""
    rng = np.random.default_rng(3)
    distinct = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-200, 200, 500),
                               [1.0, -10.0, 1e-5, 1e16, 1e22, 1e-200]])
    values = np.repeat(distinct, rng.integers(1, 9, distinct.size))
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
        assert g17(values).tolist() == reference(values)


#: The tables the kernels share, and those of both text layouts.
TABLES = {name: getattr(floattext, name) for name in (
    "_WORDS", "_LAST_DIGIT", "_EXPONENTS", "_EXPONENT_WORDS",
    "_POWER_HEAD", "_POWER_TAIL", "_POWER_LO")}
for text_layout in ("g17", "repr"):
    TABLES[f"{text_layout}_classes"], TABLES[f"{text_layout}_templates"] = (
        floattext._layout(text_layout))


@pytest.mark.parametrize("name", list(TABLES))
def test_tables_read_only(name):
    """Every table refuses writes, so no call can change another's texts."""
    cells = TABLES[name].reshape(-1)
    with pytest.raises(ValueError, match="read-only"):
        cells[0] = cells[0]
