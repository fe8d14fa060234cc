"""solve_stack against an explicit-product oracle, and the views built on it."""

import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetoptics import (
    LayerStack,
    Sheet,
    SheetParams,
    SingularStack,
    Slab,
    build_emission_ledger,
    local_fields,
    reflectance_with_emission,
    stack_absorbance,
    stack_coeffs,
)
from sheetoptics.stack import interface_matrix, sheet_matrix, solve_stack

TWO_PI = 2.0 * np.pi
TOL = 1e-14

unit = st.floats(min_value=0.0, max_value=1.0)
indices = st.builds(
    complex,
    st.floats(min_value=1.0, max_value=4.0),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
)
sheets = st.builds(
    Sheet,
    params=st.builds(
        SheetParams,
        cond=st.builds(complex, st.floats(min_value=0.0, max_value=3.0),
                       st.floats(min_value=-1.0, max_value=1.0)),
        branching=unit,
        f_sign=st.sampled_from((1, -1)),
    ),
    sign=st.sampled_from((1, -1)),
)
slabs = st.builds(Slab, n=indices, d=st.floats(min_value=0.0, max_value=2.0))
stacks = st.builds(
    LayerStack,
    layers=st.lists(st.one_of(sheets, slabs), max_size=10).map(tuple),
    ambient_in=st.one_of(st.just(1.0 + 0j), indices),
    ambient_out=indices,
)
scales = st.sampled_from((1.0, 0.7, 1.3))


def oracle(stack, scale):
    """Explicit product of tagged exit-to-entry factors, then a full
    back-propagation and the ledger sum, written out independently."""
    tagged = []
    current = complex(stack.ambient_in)
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            tagged.append((layer, sheet_matrix(layer.params)))
            continue
        if layer.n != current:
            tagged.append((layer, interface_matrix(layer.n, current)))
        phi = TWO_PI * complex(layer.n) * layer.d / scale
        tagged.append((layer, np.array(
            [[np.exp(-1j * phi), 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)))
        current = complex(layer.n)
    if complex(stack.ambient_out) != current:
        tagged.append((None, interface_matrix(stack.ambient_out, current)))

    m = reduce(np.matmul, [mat for _, mat in tagged], np.eye(2, dtype=complex))
    if abs(m[0, 0]) < TOL or not np.all(np.isfinite(m)):
        return None
    t = 1.0 / m[0, 0]
    r = m[1, 0] / m[0, 0]

    v = np.array([t, 0.0], dtype=complex)
    fields = []
    for layer, mat in reversed(tagged):
        if isinstance(layer, Sheet):
            fields.append(v[0] + v[1])
        v = mat @ v
    fields = np.array(fields[::-1], dtype=complex)

    phases, acc = [], 0.0 + 0.0j
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            phases.append(acc)
        else:
            acc = acc + TWO_PI * complex(layer.n) * layer.d / scale
    s = t + r
    direction = s / abs(s) if abs(s) >= TOL else 1j
    emitted = []
    for sheet, field, phi in zip(stack.sheets(), fields, phases):
        p = sheet.params
        amp = np.sqrt((p.branching / 2.0) * (complex(p.cond).real * abs(field) ** 2))
        damping = float(np.exp(-2.0 * phi.imag))
        b = -p.f_sign * amp * field * damping
        if abs(b) < TOL:
            emitted.append(np.exp(1j * 0.0) * b)
            continue
        target = (sheet.sign * direction * amp * abs(field) * damping
                  * np.exp(2j * phi.real))
        theta = float(np.angle(target / b) % TWO_PI)
        emitted.append(np.exp(1j * theta) * b)
    r_emission = float(abs(r + sum(emitted)) ** 2)
    return t, r, fields, r_emission


@settings(max_examples=200, deadline=None)
@given(stack=stacks, scale=scales)
def test_solve_stack_equals_explicit_product(stack, scale):
    expected = oracle(stack, scale)
    if expected is None:
        with pytest.raises(SingularStack):
            solve_stack(stack, scale)
        return
    t, r, fields, r_emission = expected
    solution = solve_stack(stack, scale)
    assert solution.t == t
    assert solution.r == r
    assert np.array_equal(solution.sheet_fields, fields)
    assert solution.R_emission_unclamped == r_emission
    ratio = complex(stack.ambient_out).real / complex(stack.ambient_in).real
    assert solution.R == abs(r) ** 2
    assert solution.T == ratio * abs(t) ** 2
    assert solution.A == 1.0 - abs(r) ** 2 - ratio * abs(t) ** 2


@settings(max_examples=50, deadline=None)
@given(stack=stacks, scale=scales)
def test_views_read_the_solution(stack, scale):
    try:
        solution = solve_stack(stack, scale)
    except SingularStack:
        return
    coeffs = stack_coeffs(stack, scale)
    assert (coeffs.t, coeffs.r) == (solution.t, solution.r)
    assert stack_absorbance(stack, scale) == solution.A
    assert np.array_equal(local_fields(stack, scale), solution.sheet_fields)
    assert build_emission_ledger(stack, scale) == solution.ledger
    signs = [sheet.sign for sheet in stack.sheets()]
    assert build_emission_ledger(stack, scale, signs) == solution.ledger
    if solution.R_emission_unclamped <= 1.0:
        assert reflectance_with_emission(stack, None, scale) == solution.R_emission
        assert reflectance_with_emission(stack, solution.ledger, scale) \
            == solution.R_emission


def test_clamped_emission_warns_only_when_read():
    stack = LayerStack(layers=(Sheet(params=SheetParams(cond=0.5)),))
    solution = replace(solve_stack(stack), R_emission_unclamped=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solution.R_emission_unclamped == 1.5
    with pytest.warns(UserWarning, match="clamped"):
        assert solution.R_emission == 1.0
