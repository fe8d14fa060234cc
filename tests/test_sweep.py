"""solve_sweep: W evaluations of one layout in one batched pass, returned
as columns, each row equal to the same evaluation solved alone."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sheetoptics import LayerStack, Sheet, SheetParams, SingularStack, Slab
from sheetoptics.stack import (
    build_emission_ledger,
    element_matrices,
    solve_stack,
    solve_sweep,
)
from test_solve import assert_matches_oracle, stacks

mixed_scales = st.lists(
    st.one_of(st.sampled_from((1.0, 0.7, 1.3)), st.floats(min_value=0.3, max_value=3.0)),
    min_size=2, max_size=6)
thicknesses = st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=6)


def with_last_slab(stack, d):
    i = max(i for i, layer in enumerate(stack.layers) if isinstance(layer, Slab))
    layers = list(stack.layers)
    layers[i] = Slab(n=layers[i].n, d=d)
    return replace(stack, layers=tuple(layers))


def assert_rows_equal(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        assert got.t == want.t
        assert got.r == want.r
        assert np.array_equal(got.sheet_fields, want.sheet_fields)
        assert (got.R, got.T, got.A) == (want.R, want.T, want.A)
        assert got.R_emission_unclamped == want.R_emission_unclamped
        assert got.ledger == want.ledger


def assert_columns(sweep, stack):
    """The sweep's columns have their shapes and dtypes and equal its rows'
    values; its row view takes negative indices and stops at its length."""
    width, sheets = len(sweep), len(stack.sheets())
    for name, dtype in (("t", complex), ("r", complex), ("R", float), ("T", float),
                        ("A", float), ("R_emission_unclamped", float)):
        assert (getattr(sweep, name).shape, getattr(sweep, name).dtype) == ((width,), dtype)
    for name, dtype in (("sheet_fields", complex), ("b", complex), ("theta", float)):
        assert (getattr(sweep, name).shape, getattr(sweep, name).dtype) \
            == ((sheets, width), dtype)
    assert sweep.signs == tuple(sheet.sign for sheet in stack.sheets())
    for w, row in enumerate(sweep):
        assert (sweep.t[w], sweep.r[w]) == (row.t, row.r)
        assert (sweep.R[w], sweep.T[w], sweep.A[w]) == (row.R, row.T, row.A)
        assert sweep.R_emission_unclamped[w] == row.R_emission_unclamped
        assert np.array_equal(sweep.sheet_fields[:, w], row.sheet_fields)
        assert (tuple(sweep.b[:, w]), tuple(sweep.theta[:, w]), sweep.signs) \
            == (row.ledger.b, row.ledger.theta, row.ledger.signs)
    assert_rows_equal([sweep[-1], sweep[-width]], [sweep[width - 1], sweep[0]])
    for w in (width, -width - 1):
        with pytest.raises(IndexError):
            sweep[w]


def solve_each(pairs):
    """solve_stack on each (stack, scale), or None if any of them is singular."""
    try:
        return [solve_stack(stack, scale) for stack, scale in pairs]
    except SingularStack:
        return None


@settings(max_examples=150, deadline=None)
@given(stack=stacks, scales=mixed_scales)
def test_wavelength_rows_equal_single_solves(stack, scales):
    singles = solve_each([(stack, s) for s in scales])
    if singles is None:
        with pytest.raises(SingularStack):
            solve_sweep(stack, scales)
        return
    batch = solve_sweep(stack, scales)
    assert_rows_equal(batch, singles)
    assert_columns(batch, stack)
    for solution, s in zip(batch, scales):
        assert_matches_oracle(solution, stack, s)


@settings(max_examples=150, deadline=None)
@given(stack=stacks, scale=st.sampled_from((1.0, 0.7, 1.3)), ds=thicknesses)
def test_thickness_rows_equal_single_solves(stack, scale, ds):
    assume(any(isinstance(layer, Slab) for layer in stack.layers))
    singles = solve_each([(with_last_slab(stack, d), scale) for d in ds])
    if singles is None:
        with pytest.raises(SingularStack):
            solve_sweep(stack, [scale], last_slab_d=ds)
        return
    batch = solve_sweep(stack, [scale], last_slab_d=ds)
    assert_rows_equal(batch, singles)
    assert_columns(batch, stack)


def test_element_array_shapes():
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.1)), Slab(n=1.5, d=0.2)))
    assert element_matrices(stack, 1.0).shape == (4, 2, 2)
    assert element_matrices(stack, np.array([1.0, 2.0, 3.0])).shape == (4, 3, 2, 2)
    assert element_matrices(stack, 1.0, last_slab_d=np.array([0.1, 0.2])).shape \
        == (4, 2, 2, 2)


def test_one_singular_row_raises():
    # e^{2 pi Im(n) d / scale} overflows at scale 1 but not at scale 3; the
    # overflow is reported by SingularStack alone, without numpy warnings
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.02)),
                               Slab(n=3.882 + 0.019j, d=1.0e4)))
    solve_sweep(stack, [3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularStack):
            solve_sweep(stack, [3.0, 1.0])


def test_rejects_negative_thickness_and_scale():
    stack = LayerStack(layers=(Slab(n=1.5, d=0.2),))
    with pytest.raises(ValueError, match="slab thickness must be >= 0"):
        solve_sweep(stack, [1.0], last_slab_d=[0.1, -0.1])
    with pytest.raises(ValueError, match="wavelength_scale must be positive"):
        solve_sweep(stack, [1.0, 0.0])
    with pytest.raises(ValueError, match="needs a slab"):
        solve_sweep(LayerStack(), [1.0], last_slab_d=[0.1])


@pytest.mark.parametrize("scales, ds, message", [
    ([1.0], [np.nan], "last_slab_d must be finite, got nan"),
    ([1.0], [0.1, np.inf], "last_slab_d must be finite, got inf"),
    ([np.inf], None, "wavelength_scale must be finite, got inf"),
    ([1.0, np.nan], None, "wavelength_scale must be finite, got nan"),
    ([-np.inf], [0.1], "wavelength_scale must be finite, got -inf"),
], ids=["nan_thickness", "inf_thickness", "inf_scale", "nan_scale", "minus_inf_scale"])
def test_rejects_non_finite_scale_and_thickness(scales, ds, message):
    """A non-finite input is a ValueError naming it, as Slab(d=inf) is, not
    a SingularStack."""
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.1)), Slab(n=1.5, d=0.2)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_sweep(stack, scales, last_slab_d=ds)


def test_ledger_rows_in_sheet_order():
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.1)), Slab(n=1.5, d=0.2),
                               Sheet(params=SheetParams(cond=0.3), sign=1)))
    scales = [0.8, 1.0, 1.3]
    for solution, s in zip(solve_sweep(stack, scales), scales):
        assert solution.ledger == build_emission_ledger(stack, s)
        assert solution.ledger.signs == (-1, 1)
        assert [type(b) for b in solution.ledger.b] == [complex, complex]
        assert [type(theta) for theta in solution.ledger.theta] == [float, float]
