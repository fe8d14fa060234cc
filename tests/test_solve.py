"""solve_stack against a sequential-fold oracle, physics invariants, and the
views built on the solution."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sheetoptics import (
    LayerStack,
    Sheet,
    SheetParams,
    SingularStack,
    Slab,
    build_emission_ledger,
    local_fields,
    nlayer_replacement,
    reflectance_with_emission,
    stack_absorbance,
    stack_coeffs,
)
from sheetoptics.stack import (
    _scan,
    element_matrices,
    interface_matrix,
    sheet_matrix,
    solve_stack,
    solve_sweep,
    stack_from_dict,
)

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


EPS = np.finfo(float).eps

# Tolerance of the solver against the sequential-fold oracle, fixed from an
# error bound before it was measured.  Both compute t, r and the sheet
# fields from products of the K element matrices A_k, in different orders.
# To first order, a computed product of two 2x2 complex matrices is within
# 2 (1 + sqrt 5) eps ||A|| ||B|| < 6.5 eps ||A|| ||B|| of the exact one (2-norm;
# sqrt 5 eps per complex product, eps per sum, sqrt 2 per |A| against A),
# and every element has ||A_k|| >= 1: det 1 for a sheet, singular values 1
# and |n1/n2| for an interface, e^{+-Im phi} for a slab.  So every partial
# product either method forms is within 6.5 K eps prod ||A_k|| of the exact
# one, and the two methods are within 13 K eps prod ||A_k|| of each other.
# t = 1/M00 moves by |t|^2 |dM00|, r = M10/M00 by |t| sqrt(1 + |r|^2) |dM|
# and a sheet field f = t (S00 + S10) by |t| (|f| + sqrt 2) |dS|.  With
# |t| <= 2 and |r| <= 1 (passive stacks, ambient Re n in [1, 4]) and |f| up
# to 3.5, each stays within 64 K eps |t| prod ||A_k||.  A plain relative
# bound would not do: r can be ~1e-17 by cancellation.
BOUND_C = 64.0
# Quantities computed from t, r and the fields in a fixed number of
# operations (R, T, A, the ledger) differ from the oracle's formulas on the
# same inputs by rounding only.  An emission amplitude b is |f| times the
# square root of a product that can underflow, so it may also be off by
# |f| sqrt(smallest subnormal).
ROUNDING = 16 * EPS
UNDERFLOW = float(np.sqrt(np.finfo(float).smallest_subnormal))


def oracle_elements(stack, scale):
    """The stack's element matrices, each tagged with its layer (None for
    the exit interface), written out independently of the solver."""
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
    return tagged


def oracle(stack, scale):
    """t, r and the sheet fields from a sequential left-to-right product
    of the elements and a full back-propagation; None if singular."""
    tagged = oracle_elements(stack, scale)
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
    return t, r, fields


def oracle_ledger(stack, scale, t, r, fields):
    """Each sheet's b and theta and the emission-corrected reflectance for
    the given t, r and sheet fields, written out independently."""
    phases, acc = [], 0.0 + 0.0j
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            phases.append(acc)
        else:
            acc = acc + TWO_PI * complex(layer.n) * layer.d / scale
    s = t + r
    direction = s / abs(s) if abs(s) >= TOL else 1j
    bs, thetas, emitted = [], [], []
    for sheet, field, phi in zip(stack.sheets(), fields, phases):
        p = sheet.params
        amp = np.sqrt((p.branching / 2.0) * (complex(p.cond).real * abs(field) ** 2))
        damping = float(np.exp(-2.0 * phi.imag))
        b = -p.f_sign * amp * field * damping
        theta = 0.0
        if abs(b) >= TOL:
            target = (sheet.sign * direction * amp * abs(field) * damping
                      * np.exp(2j * phi.real))
            theta = float(np.angle(target / b) % TWO_PI)
        bs.append(complex(b))
        thetas.append(theta)
        emitted.append(np.exp(1j * theta) * b)
    r_emission = float(abs(r + sum(emitted)) ** 2)
    return r_emission, tuple(bs), tuple(thetas)


def fold_bound(stack, scale, t):
    """BOUND_C K eps |t| prod_k ||A_k||_2 over the stack's K elements."""
    mats = [mat for _, mat in oracle_elements(stack, scale)]
    norms = np.linalg.svd(np.array(mats), compute_uv=False)[:, 0] if mats else []
    return BOUND_C * max(len(mats), 1) * EPS * abs(t) * float(np.prod(norms))


def assert_matches_oracle(solution, stack, scale):
    """t, r and the sheet fields within the fold bound of the oracle's;
    R_emission, and the ledger, R, T and A, within rounding of the oracle's
    formulas on the solution's own t, r and fields."""
    t, r, fields = oracle(stack, scale)
    bound = fold_bound(stack, scale, t)
    assert abs(solution.t - t) <= bound
    assert abs(solution.r - r) <= bound
    assert np.all(np.abs(solution.sheet_fields - fields) <= bound)

    r_emission, b, theta = oracle_ledger(stack, scale, solution.t, solution.r,
                                         solution.sheet_fields)
    scale_em = (abs(solution.r) + sum(map(abs, b))) ** 2
    assert abs(solution.R_emission_unclamped - r_emission) \
        <= ROUNDING * (len(b) + 2) * scale_em + ROUNDING
    assert len(solution.ledger.b) == len(b)
    for got, want, field in zip(solution.ledger.b, b, solution.sheet_fields):
        assert abs(got - want) <= ROUNDING * abs(want) + UNDERFLOW * abs(field)
    for got, want in zip(solution.ledger.theta, theta):
        turn = abs(got - want) % TWO_PI
        assert min(turn, TWO_PI - turn) <= ROUNDING * TWO_PI
    ratio = complex(stack.ambient_out).real / complex(stack.ambient_in).real
    R, T = abs(solution.r) ** 2, ratio * abs(solution.t) ** 2
    assert abs(solution.R - R) <= ROUNDING * R
    assert abs(solution.T - T) <= ROUNDING * T
    assert abs(solution.A - (1.0 - R - T)) <= ROUNDING * (1.0 + R + T)


def sheets_of(*conds):
    return tuple(Sheet(params=SheetParams(cond=g)) for g in conds)


def vacuum_row(k):
    """k layers in vacuum, sheets and slabs in turn: k elements."""
    return LayerStack(layers=tuple(
        Slab(n=1.0, d=0.037 * i) if i % 2 else
        Sheet(params=SheetParams(cond=complex(0.1 * (i % 7), 0.05 * (i % 3 - 1))))
        for i in range(k)))


@settings(max_examples=200, deadline=None)
@given(stack=stacks, scale=scales)
@example(stack=LayerStack(), scale=1.0)  # K = 0
@example(stack=LayerStack(layers=sheets_of(0.3)), scale=1.0)  # K = 1
@example(stack=LayerStack(layers=sheets_of(0.3, 1 + 1j)), scale=1.0)  # K = 2
@example(stack=LayerStack(layers=sheets_of(0.3, 1 + 1j, 2.0)), scale=1.0)  # K = 3
@example(stack=LayerStack(layers=(Slab(n=1.5, d=0.3),)), scale=0.7)  # K = 3
@example(stack=LayerStack(layers=sheets_of(0.3) + (Slab(n=2 + 0.1j, d=0.4),),
                          ambient_out=1.46), scale=1.3)  # K = 4
# The scan carries an odd last matrix over at each level of odd length:
# K = 6, 7, 15 and 31 have one such level, K = 5 two, K = 9 three, K = 17
# four and K = 33 five (33, 17, 9, 5, 3); K = 8, 16 and 32 have none.
@example(stack=vacuum_row(5), scale=1.0)
@example(stack=vacuum_row(6), scale=0.7)
@example(stack=vacuum_row(7), scale=1.3)
@example(stack=vacuum_row(8), scale=1.0)
@example(stack=vacuum_row(9), scale=0.7)
@example(stack=vacuum_row(15), scale=1.3)
@example(stack=vacuum_row(16), scale=1.0)
@example(stack=vacuum_row(17), scale=0.7)
@example(stack=vacuum_row(31), scale=1.3)
@example(stack=vacuum_row(32), scale=1.0)
@example(stack=vacuum_row(33), scale=0.7)
def test_solve_stack_equals_explicit_product(stack, scale):
    """solve_stack agrees with the sequential fold within the bound above."""
    expected = oracle(stack, scale)
    if expected is None:
        with pytest.raises(SingularStack):
            solve_stack(stack, scale)
        return
    solution = solve_stack(stack, scale)
    assert_matches_oracle(solution, stack, scale)
    assert solution.ledger.signs == tuple(sheet.sign for sheet in stack.sheets())


def deep_stack(seed, n_layers):
    """A stack of n_layers random sheets and spacers of one common index,
    weak enough sheets and slabs that prod ||A_k|| stays below about e^10."""
    rng = np.random.default_rng(seed)
    n_spacer = complex(rng.uniform(1.0, 2.0), rng.choice([0.0, 1e-4]))
    layers = []
    for is_sheet in rng.random(n_layers) < 0.5:
        if is_sheet:
            cond = complex(rng.uniform(0.0, 0.03), rng.uniform(-0.01, 0.01))
            layers.append(Sheet(params=SheetParams(cond=cond, branching=rng.uniform()),
                                sign=int(rng.choice([1, -1]))))
        else:
            layers.append(Slab(n=n_spacer, d=rng.uniform(0.0, 1.0)))
    return LayerStack(layers=tuple(layers), ambient_in=complex(rng.uniform(1.0, 2.0)),
                      ambient_out=complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 0.1)))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.integers(2000, 2600), scale=scales)
def test_deep_stacks_match_oracle(seed, n_layers, scale):
    stack = deep_stack(seed, n_layers)
    assert_matches_oracle(solve_stack(stack, scale), stack, scale)


def test_hundred_thousand_elements():
    """10**5 sheets with no spacing, one element each (17 levels of scan),
    agree with the one sheet of 10**5 times the conductance within the fold
    bound; every sheet sees the same field, t."""
    k, g = 10**5, 1e-5
    stack, _ = stack_from_dict({"layers": [{"type": "sheet", "cond": g}] * k})
    solution = solve_stack(stack)
    merged = nlayer_replacement(k, g)
    norm = np.linalg.norm(sheet_matrix(SheetParams(cond=g)), 2)
    bound = BOUND_C * k * EPS * abs(merged.t) * norm ** k
    assert abs(solution.t - merged.t) <= bound
    assert abs(solution.r - merged.r) <= bound
    assert np.all(np.abs(solution.sheet_fields - merged.t) <= bound)


# The exact reference: the scan against the product, in exact rationals,
# of the same rounded element matrices A_0 ... A_{K-1}.  Its tolerance is
# derived for the scan's own arithmetic, never fitted to measured errors.
# u is the unit roundoff and gamma_n = n u / (1 - n u) (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3).
#
# One product of the scan, entry (i, j) of L R = L_i0 R_0j + L_i1 R_1j (or
# of A v for a suffix column), is two complex products, each within
# sqrt(2) gamma_2 |x| |y| of x y whatever contraction the loop uses (Lemma
# 3.5), and one complex sum within u of its value: within NODE (|L| |R|)_ij
# of the exact product of its computed inputs.  By induction over the
# product tree, a computed product of n factors, its two halves within
# (1 + NODE)^a - 1 and (1 + NODE)^b - 1 of theirs (a + b = n - 2), is
# within ((1 + NODE)^(n - 1) - 1) |A_0| ... |A_(n-1)| of the exact one,
# entry by entry.  Every product of the tree scales the whole product it
# joins, so the exponent counts the n - 1 products of each entry's tree,
# not the tree's depth ceil(log2 K): the scan's depth bounds the rounding
# of a pairwise sum, but a product of K slabs alone, K complex phases,
# meets K - 1 roundings in any order.
U = 2.0**-53


def gamma(n):
    return n * U / (1 - n * U)


NODE = math.sqrt(2) * gamma(2) + U * (1 + math.sqrt(2) * gamma(2))
# numpy divides complex numbers by Smith's method: with |c| >= |d|,
# q = d / c, (a + ib) / (c + id) = ((a + b q) + i (b - a q)) (1 / (c + d q)).
# c + d q sums two terms of one sign, so 1 / (c + d q) is within gamma_4 of
# 1 / (c (1 + q^2)), each numerator is within gamma_3 (|a| + |b| |q|) (and
# gamma_3 (|b| + |a| |q|)) of its value, which two terms in quadrature hold
# to gamma_3 |a + ib| (1 + |q|) <= gamma_3 sqrt 2 |a + ib| sqrt(1 + q^2).  So
# a quotient is within DIVIDE of its exact value, relatively.
DIVIDE = gamma(5) + math.sqrt(2) * gamma(3) * (1 + gamma(5))
# The bounds are evaluated in float arithmetic, whose own rounding, about
# (K + 10) u relatively for K <= 200 factors, is far inside this slack.
SLACK = 1 + 2.0**-30


def exact(z):
    """A complex float as a pair of exact rationals."""
    return Fraction(z.real), Fraction(z.imag)


def exact_suffixes(mats, column):
    """The exact suffix products A_s ... A_{K-1} e_column, s = 0 ... K - 1,
    of (K, 2, 2) complex matrices, as (re, im) Fraction pairs."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    v = [one, zero] if column == 0 else [zero, one]
    suffixes = []
    for mat in mats[::-1]:
        rows = []
        for i in range(2):
            re = im = Fraction(0)
            for j in range(2):
                (ar, ai), (vr, vi) = exact(complex(mat[i, j])), v[j]
                re += ar * vr - ai * vi
                im += ar * vi + ai * vr
            rows.append((re, im))
        v = rows
        suffixes.append(v)
    return suffixes[::-1]


def distance(z, reference):
    """|z - reference| for a complex float and an exact (re, im) pair."""
    return math.hypot(float(Fraction(z.real) - reference[0]),
                      float(Fraction(z.imag) - reference[1]))


def modulus(reference):
    return math.hypot(float(reference[0]), float(reference[1]))


def exact_quotient(numerator, denominator):
    """numerator / denominator of exact (re, im) pairs; None is 1."""
    nr, ni = (Fraction(1), Fraction(0)) if numerator is None else numerator
    dr, di = denominator
    norm = dr * dr + di * di
    return (nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm


def product_bound(n):
    """(1 + NODE)^(n - 1) - 1: a computed product of n factors."""
    return math.expm1((n - 1) * math.log1p(NODE))


EXACT_SEEDS = range(20)


def exact_reference_stack(seed):
    """A seeded stack of 1 to 50 sheet + slab pairs, spread geometrically
    over the seeds, the last slab left out of about half of them: 2 to 151
    elements.  Odd seeds draw from wide ranges (g in [0, 3] + i[-3, 3],
    n in [1, 4] + i[0, 0.05], d up to 50 wavelengths), where (|A_0| ...
    |A_{K-1}|)_00 can exceed |M00| by many orders; even seeds draw weak
    sheets and thin slabs, where the bound on t is close to the errors'
    own size."""
    rng = np.random.default_rng(seed)
    pairs = round(50.0 ** (seed / (len(EXACT_SEEDS) - 1)))
    wide = seed % 2
    g_re, g_im, n_im, d_max = (3.0, 3.0, 0.05, 50.0) if wide else (0.05, 0.01, 1e-3, 1.0)
    layers = []
    for _ in range(pairs):
        cond = [rng.uniform(0.0, g_re), rng.uniform(-g_im, g_im)]
        layers.append({"type": "sheet", "cond": cond})
        layers.append({"type": "slab", "n_re": rng.uniform(1.0, 4.0),
                       "n_im": rng.uniform(0.0, n_im), "d": rng.uniform(0.0, d_max)})
    if rng.random() < 0.5:  # end on a sheet: one pair is then 2 elements
        layers.pop()
    return stack_from_dict({"ambient_out": [rng.uniform(1.0, 4.0), 0.0],
                            "layers": layers})[0]


@pytest.mark.parametrize("seed", EXACT_SEEDS)
def test_scan_within_derived_bound_of_exact_product(seed):
    """The scan's stack matrix M and suffix columns, and t = 1/M00,
    r = M10/M00 and the sheet fields t (S00 + S10) that solve_sweep
    computes from them, lie within the derived bound of the exact product
    of the same rounded element matrices, at two wavelength scales."""
    stack = exact_reference_stack(seed)
    scales = [1.0, 0.77]
    entries = element_matrices(stack, scales).transpose(2, 3, 0, 1)
    m, suffix = _scan(entries)
    solution = solve_sweep(stack, scales)
    # numpy's quotients, as solve_sweep forms them
    assert np.array_equal(solution.t, 1.0 / m[0, 0])
    assert np.array_equal(solution.r, m[1, 0] / m[0, 0])
    k = entries.shape[2]
    assert 2 <= k <= 151
    for w in range(len(scales)):
        mats = entries[:, :, :, w].transpose(2, 0, 1)
        # |A_s| ... |A_{K-1}|, suffix by suffix, evaluated in floats
        abs_suffix = np.empty((k, 2, 2))
        acc = np.eye(2)
        for s in range(k - 1, -1, -1):
            acc = np.abs(mats[s]) @ acc
            abs_suffix[s] = acc
        exact_suffix = exact_suffixes(mats, 0)
        exact_m = [exact_suffix[0], exact_suffixes(mats, 1)[0]]  # M's columns

        for i in range(2):
            for j in range(2):
                bound = product_bound(k) * abs_suffix[0, i, j] * SLACK
                assert distance(m[i, j, w], exact_m[j][i]) <= bound
        for s in range(k):
            for i in range(2):
                bound = product_bound(k - s) * abs_suffix[s, i, 0] * SLACK
                assert distance(suffix[i, s, w], exact_suffix[s][i]) <= bound

        # 1/m00 against 1/M00, then the rounded quotient against 1/m00;
        # r likewise, from m10 M00 - M10 m00 = (m10 - M10) M00 - M10 (m00 - M00)
        t, r = solution.t[w], solution.r[w]
        m00, m10 = complex(m[0, 0, w]), complex(m[1, 0, w])
        exact00, exact10 = modulus(exact_m[0][0]), modulus(exact_m[0][1])
        far00, far10 = product_bound(k) * abs_suffix[0, :, 0]
        exact_t = exact_quotient(None, exact_m[0][0])
        tol_t = (DIVIDE + far00 / exact00) / abs(m00) * SLACK
        assert distance(t, exact_t) <= tol_t
        tol_r = (DIVIDE * abs(m10 / m00)
                 + (far10 * exact00 + exact10 * far00) / (abs(m00) * exact00)) * SLACK
        assert distance(r, exact_quotient(exact_m[0][1], exact_m[0][0])) <= tol_r
        # the bound binds: at least eight digits of t on every stack drawn
        assert tol_t < 1e-8 * abs(t)

        # a sheet field f = fl(t fl(u0 + u1)), or t itself for a sheet at the
        # exit, against t (S00 + S10) with S the exact suffix column after it
        for f, s in zip(solution.sheet_fields[:, w], stack._layout.after_sheets):
            if s == k:
                assert f == t
                continue
            u0, u1 = suffix[:, s, w]
            column_far = product_bound(k - s) * abs_suffix[s, :, 0].sum()
            tol_f = (tol_t * abs(u0 + u1)
                     + modulus(exact_t) * (column_far + U * (abs(u0) + abs(u1)))
                     + math.sqrt(2) * gamma(2) * abs(t) * abs(u0 + u1)) * SLACK
            (s0r, s0i), (s1r, s1i) = exact_suffix[s]
            exact_f = (exact_t[0] * (s0r + s1r) - exact_t[1] * (s0i + s1i),
                       exact_t[0] * (s0i + s1i) + exact_t[1] * (s0r + s1r))
            assert distance(f, exact_f) <= tol_f


lossless_stacks = st.builds(
    LayerStack,
    layers=st.lists(st.one_of(
        st.builds(Sheet, params=st.builds(SheetParams, cond=st.builds(
            complex, st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)))),
        st.builds(Slab, n=st.floats(min_value=1.0, max_value=4.0),
                  d=st.floats(min_value=0.0, max_value=2.0))), max_size=12).map(tuple),
    ambient_in=st.floats(min_value=1.0, max_value=4.0),
    ambient_out=st.floats(min_value=1.0, max_value=4.0),
)


@settings(max_examples=200, deadline=None)
@given(stack=lossless_stacks, scale=scales)
def test_energy_balance_lossless(stack, scale):
    """A = 1 - R - T vanishes with real indices and Re g = 0.  R moves by
    at most 2 |r| |dr| and T by 2 ratio |t| |dt| <= 4 |dt|, with |dr| and
    |dt| within half the bound, which covers two methods."""
    solution = solve_stack(stack, scale)
    assert abs(solution.A) <= 3 * fold_bound(stack, scale, solution.t) + 4 * EPS


real_ambient_stacks = st.builds(
    LayerStack,
    layers=stacks.map(lambda s: s.layers),
    ambient_in=st.floats(min_value=1.0, max_value=4.0),
    ambient_out=st.floats(min_value=1.0, max_value=4.0),
)


def reversed_stack(stack):
    """The same layers in reverse order, seen from the other side.

    A sheet's matrix is written for a sheet in the medium on its entry
    side, so each sheet is first followed by a zero-thickness slab of that
    medium (which changes nothing); reversed, that slab keeps the sheet in
    the same medium.
    """
    layers, medium = [], complex(stack.ambient_in)
    for layer in stack.layers:
        layers.append(layer)
        if isinstance(layer, Sheet):
            layers.append(Slab(n=medium, d=0.0))
        else:
            medium = complex(layer.n)
    return LayerStack(layers=tuple(layers[::-1]), ambient_in=stack.ambient_out,
                      ambient_out=stack.ambient_in)


@settings(max_examples=200, deadline=None)
@given(stack=real_ambient_stacks, scale=scales)
def test_reversal_keeps_transmittance(stack, scale):
    """Reciprocity: with real ambient indices, T is the same from both
    sides.  Each side's T = ratio |t|^2 moves by at most 2 ratio |t| |dt|
    <= 4 |dt| (ratio |t|^2 <= 1, ratio <= 4), and |dt| is within half the
    bound, which covers two methods."""
    reverse = reversed_stack(stack)
    forward, backward = solve_stack(stack, scale), solve_stack(reverse, scale)
    tol = 2 * (fold_bound(stack, scale, forward.t)
               + fold_bound(reverse, scale, backward.t)) + 4 * EPS
    assert abs(forward.T - backward.T) <= tol


@settings(max_examples=200, deadline=None)
@given(stack=real_ambient_stacks, scale=scales)
def test_reciprocity_of_amplitude(stack, scale):
    """Reciprocity of the amplitude, phase included: with real ambient
    indices, n_out t_forward = n_in t_reversed.  Each side moves by at most
    4 |dt| (indices <= 4), |dt| is within half the bound, and the products
    by n round to within 2 eps of |n t| <= 4 each."""
    reverse = reversed_stack(stack)
    forward, backward = solve_stack(stack, scale), solve_stack(reverse, scale)
    n_in, n_out = complex(stack.ambient_in).real, complex(stack.ambient_out).real
    tol = 2 * (fold_bound(stack, scale, forward.t)
               + fold_bound(reverse, scale, backward.t)) + 16 * EPS
    assert abs(n_out * forward.t - n_in * backward.t) <= tol


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=400),
       total=st.builds(complex, st.floats(min_value=0.0, max_value=4.0),
                       st.floats(min_value=-2.0, max_value=2.0)))
def test_zero_spacing_sheets_equal_closed_form(n, total):
    """N touching sheets of conductance g are one sheet of conductance N g;
    g = total / N keeps prod ||A_k|| below e^|total|."""
    cond = total / n
    stack = LayerStack(layers=sheets_of(*[cond] * n))
    solution, closed = solve_stack(stack), nlayer_replacement(n, cond)
    tol = fold_bound(stack, 1.0, closed.t) + 4 * EPS
    assert abs(solution.t - closed.t) <= tol
    assert abs(solution.r - closed.r) <= tol


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
