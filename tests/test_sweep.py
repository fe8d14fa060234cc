"""solve_sweep: W evaluations of one layout in one batched pass, each row
equal to the same evaluation solved alone."""

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
    assert_rows_equal(solve_sweep(stack, [scale], last_slab_d=ds), singles)


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


def test_ledger_rows_in_sheet_order():
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.1)), Slab(n=1.5, d=0.2),
                               Sheet(params=SheetParams(cond=0.3), sign=1)))
    scales = [0.8, 1.0, 1.3]
    for solution, s in zip(solve_sweep(stack, scales), scales):
        assert solution.ledger == build_emission_ledger(stack, s)
        assert solution.ledger.signs == (-1, 1)
        assert [type(b) for b in solution.ledger.b] == [complex, complex]
        assert [type(theta) for theta in solution.ledger.theta] == [float, float]
