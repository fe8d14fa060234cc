"""Field profiles, polar/axial decomposition, surface and parity checks."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetoptics import (
    AsymmetricGrid,
    ContinuityViolation,
    FieldProfile,
    axial_at_surface,
    decompose,
    eval_a,
    eval_b,
    make_grid,
    parity_transform,
)
from sheetoptics.fields import _normalize_grid

amplitudes = st.floats(min_value=-1.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)


def reflections():
    return st.builds(complex, amplitudes.map(lambda v: v / 2),
                     amplitudes.map(lambda v: v / 2))


class TestGrid:
    def test_make_grid_has_pair(self):
        x, side = make_grid(3.0, 10)
        at_zero = x == 0.0
        assert list(side[at_zero]) == ["minus", "plus"]
        assert np.allclose(x, -x[::-1])

    def test_plain_array_grid(self):
        profile = eval_a(1.0, 0.0, np.linspace(-2, 2, 9))
        assert np.sum(profile.x == 0.0) == 2

    @pytest.mark.parametrize("grid", [
        [-1.0, np.nan, 1.0],
        [-np.inf, 1.0],
        [-1.0, np.inf],
        [1.0, 0.5, 2.0],
        [[-1.0, 1.0], [-0.5, 0.5]],
    ], ids=["nan", "-inf", "+inf", "decreasing", "2-D"])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError, match="grid must be"):
            eval_a(0.5, -0.5, np.array(grid))


class TestEvalA:
    def test_transparent(self):
        profile = eval_a(1.0, 0.0)
        assert np.all(profile.left_env == 0.0)
        assert np.all(profile.right_env == 1.0)
        assert profile.is_continuous()

    def test_decoupled_point(self):
        profile = eval_a(0.5, -0.5)
        total = profile.total()
        at_zero = profile.x == 0.0
        assert np.allclose(total[at_zero], 0.5)

    def test_graphene_surface_value(self):
        profile = eval_a(0.988667, -0.011333)
        minus = profile.total()[(profile.x == 0.0) & (profile.side == "minus")][0]
        assert minus == pytest.approx(0.988667, abs=1e-12)

    def test_rejects_discontinuous(self):
        with pytest.raises(ContinuityViolation):
            eval_a(0.8, 0.1)


class TestEvalB:
    def test_symmetric_continuous(self):
        profile = eval_b(0.3, 0.3)
        assert profile.is_continuous()
        value = profile.total()[(profile.x == 0.0) & (profile.side == "plus")][0]
        assert value == pytest.approx(0.3)

    def test_antisymmetric_discontinuous(self):
        profile = eval_b(0.3, -0.3)
        assert not profile.is_continuous()
        assert profile.continuity_gap() == pytest.approx(0.6)

    def test_zero(self):
        profile = eval_b(0.0, 0.0)
        assert np.all(profile.total() == 0.0)

    @given(amplitudes, amplitudes)
    def test_continuity_iff_symmetric(self, b_r, b_l):
        profile = eval_b(b_r, b_l)
        assert profile.is_continuous() == (abs(b_r - b_l) <= 1e-12)


class TestDecompose:
    def test_pure_right_mover(self):
        profile = eval_a(1.0, 0.0)
        dec = decompose(profile)
        phase = np.exp(1j * profile.k * profile.x)
        assert np.allclose(dec.polar_env, phase / 2.0)
        assert np.allclose(dec.axial_env, phase / 2.0)

    def test_reconstruction_exact(self):
        profile = eval_a(0.7 + 0.1j, -0.3 + 0.1j)
        dec = decompose(profile)
        phase = np.exp(1j * profile.k * profile.x)
        right = dec.polar_env + dec.axial_env
        left = dec.polar_env - dec.axial_env
        assert np.allclose(right, profile.right_env * phase, rtol=1e-15, atol=1e-15)
        assert np.allclose(left, profile.left_env / phase, rtol=1e-15, atol=1e-15)

    def test_a_profile_grouped_terms(self):
        # axial coefficient: uniform e^{ikx}/2 plus (r/2) e^{ikx} for x > 0,
        # e^{ikx}/2 minus (r/2) e^{-ikx} for x < 0
        t, r = 0.8, -0.2
        profile = eval_a(t, r)
        dec = decompose(profile)
        pos = profile.x > 0.0
        neg = profile.x < 0.0
        e_plus = np.exp(1j * profile.x)
        e_minus = np.exp(-1j * profile.x)
        assert np.allclose(dec.axial_env[pos],
                           e_plus[pos] / 2.0 + (r / 2.0) * e_plus[pos])
        assert np.allclose(dec.axial_env[neg],
                           e_plus[neg] / 2.0 - (r / 2.0) * e_minus[neg])

    def test_symmetric_b_axial_vanishes_at_surface(self):
        dec = decompose(eval_b(0.4, 0.4))
        assert abs(axial_at_surface(dec).value) <= 1e-15

    def test_antisymmetric_b_axial_and_polar(self):
        # one-half of the right/left difference: axial = b/2, polar averages 0
        b = 0.1
        dec = decompose(eval_b(b, -b))
        at_zero = dec.x == 0.0
        assert np.allclose(dec.axial_env[at_zero], b / 2.0)
        assert dec.polar_env[at_zero].sum() == pytest.approx(0.0, abs=1e-15)
        assert axial_at_surface(dec).value == pytest.approx(b / 2.0, abs=1e-15)


class TestAxialAtSurface:
    @given(reflections())
    def test_vanishes_for_scattering_profiles(self, r):
        profile = eval_a(1.0 + r, r)
        assert abs(axial_at_surface(decompose(profile)).value) <= 1e-12

    def test_vanishes_on_parameter_grid(self):
        for r in np.linspace(-0.95, 0.95, 100):
            profile = eval_a(1.0 + r, r)
            assert abs(axial_at_surface(decompose(profile)).value) <= 1e-12

    @given(amplitudes, amplitudes)
    def test_nonzero_iff_asymmetric(self, b_r, b_l):
        surf = axial_at_surface(decompose(eval_b(b_r, b_l)))
        assert abs(surf.value) == pytest.approx(abs(b_r - b_l) / 4.0, abs=1e-15)

    def test_jump_diagnostic(self):
        surf = axial_at_surface(decompose(eval_b(0.3, 0.1)))
        # jump = (b_r + b_l)/2 across the surface
        assert surf.jump == pytest.approx(0.2, abs=1e-15)


class TestParity:
    def test_involution(self):
        profile = eval_a(0.6 + 0.2j, -0.4 + 0.2j)
        back = parity_transform(parity_transform(profile))
        assert np.allclose(back.right_env, profile.right_env)
        assert np.allclose(back.left_env, profile.left_env)

    def test_pure_right_mover_mirrors(self):
        profile = eval_b(0.5, 0.0)
        image = parity_transform(profile)
        assert np.all(image.right_env == 0.0)
        mirror_left = -profile.right_env[::-1]
        assert np.allclose(image.left_env, mirror_left)

    def test_symmetric_b_stays_symmetric(self):
        profile = eval_b(0.3, 0.3)
        image = parity_transform(profile)
        right = image.right_env[image.x > 0]
        left = image.left_env[image.x < 0]
        assert np.allclose(right, -0.3)
        assert np.allclose(left, -0.3)

    def test_axial_even_polar_odd(self):
        for profile in (eval_a(0.7, -0.3), eval_b(0.2, -0.5), eval_b(0.1j, 0.4)):
            dec = decompose(profile)
            dec_p = decompose(parity_transform(profile))
            assert np.allclose(dec_p.axial_env, dec.axial_env[::-1], atol=1e-12)
            assert np.allclose(dec_p.polar_env, -dec.polar_env[::-1], atol=1e-12)

    def test_rejects_asymmetric_grid(self):
        profile = eval_a(0.8, -0.2, np.array([-2.0, -1.0, 1.0]))
        with pytest.raises(AsymmetricGrid):
            parity_transform(profile)



# Reference constructions: the labels as one Python string per sample and
# every 0-/0+ lookup as a mask over the whole grid.

def reference_grid(grid):
    x = np.asarray(grid, dtype=float)
    x = x[x != 0.0]
    neg, pos = x[x < 0.0], x[x > 0.0]
    side = np.array(["bulk"] * neg.size + ["minus", "plus"] + ["bulk"] * pos.size)
    return np.concatenate([neg, [0.0, 0.0], pos]), side


def reference_make_grid(x_max, n_bulk):
    half = max(1, n_bulk // 2)
    right = np.linspace(0.0, x_max, half + 1)[1:]
    side = np.array(["bulk"] * half + ["minus", "plus"] + ["bulk"] * half)
    return np.concatenate([-right[::-1], [0.0, 0.0], right]), side


def reference_at_zero(x, side, values):
    return (values[(x == 0.0) & (side == "minus")][0],
            values[(x == 0.0) & (side == "plus")][0])


def reference_profile(grid, right_env, left_env):
    """(x, side, right_env, left_env) of a step profile; each env is its
    (left, right) pair of values."""
    x, side = reference_grid(grid)
    left_region = (x < 0.0) | (side == "minus")
    return (x, side, np.where(left_region, *map(complex, right_env)),
            np.where(left_region, *map(complex, left_env)))


def reference_decompose(x, side, right_env, left_env, k=1.0):
    """(polar, axial, incident_right, incident_left, axial value, axial jump)."""
    phase = np.exp(1j * k * x)
    right, left = right_env * phase, left_env / phase
    axial = (right - left) / 2.0
    inc_r = reference_at_zero(x, side, right_env)[0]
    inc_l = reference_at_zero(x, side, left_env)[1]
    minus, plus = reference_at_zero(x, side, axial)
    return ((right + left) / 2.0, axial, inc_r, inc_l,
            (plus + minus) / 2.0 - (inc_r - inc_l) / 2.0, plus - minus)


def assert_same(got, want):
    """Same type, dtype, shape and bytes (signed zeros included)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def increasing_grids(draw):
    """Strictly increasing finite grids: with or without a sample at 0
    (or -0), on both sides or one, of any size from none up."""
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=12, unique=True))
    values = [v for v in values if v != 0.0]
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    values += [] if zero is None else [zero]
    keep = draw(st.sampled_from(["both", "negative", "positive"]))
    if keep != "both":
        values = [v for v in values if (v <= 0.0) == (keep == "negative")]
    return np.array(sorted(values), dtype=float)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(increasing_grids(), reflections(), amplitudes, amplitudes)
    def test_profiles_equal_reference(self, grid, r, b_r, b_l):
        for got, want in zip(_normalize_grid(grid), reference_grid(grid)):
            assert_same(got, want)
        for profile, envs in ((eval_a(1.0 + r, r, grid), ((1.0, 1.0 + r), (r, 0.0))),
                              (eval_b(b_r, b_l, grid), ((0.0, b_r), (b_l, 0.0)))):
            want = reference_profile(grid, *envs)
            for got, expected in zip((profile.x, profile.side, profile.right_env,
                                      profile.left_env), want):
                assert_same(got, expected)
            dec = decompose(profile)
            surf = axial_at_surface(dec)
            for got, expected in zip((dec.polar_env, dec.axial_env, dec.incident_right,
                                      dec.incident_left, surf.value, surf.jump),
                                     reference_decompose(*want)):
                assert_same(got, expected)

    @pytest.mark.parametrize("n_bulk", [0, 1, 2, 3, 200, 201])
    @pytest.mark.parametrize("x_max", [3.0, 5.0, 1e300])
    def test_make_grid_equals_reference(self, x_max, n_bulk):
        for got, want in zip(make_grid(x_max, n_bulk), reference_make_grid(x_max, n_bulk)):
            assert_same(got, want)

    @pytest.mark.parametrize("x_max", [np.inf, np.nan, -np.inf, 0.0, -1.0])
    def test_make_grid_rejects_bad_x_max(self, x_max):
        with pytest.raises(ValueError, match="x_max must be positive and finite"):
            make_grid(x_max)

    def test_grid_whose_differences_overflow(self):
        # strictly increasing and finite, though x[1] - x[0] overflows
        grid = np.array([-1e300, 1.7976931348623157e308])
        for got, want in zip(_normalize_grid(grid), reference_grid(grid)):
            assert_same(got, want)

    def test_make_grid_rejects_collapsed_points(self):
        # a subnormal x_max rounds the half-line points together at 0
        with pytest.raises(ValueError, match="strictly increasing"):
            make_grid(5e-324, 4)

    def test_first_pair_of_repeated_zero_samples(self):
        # labels at x != 0 and a bulk sample at x = 0 are not the surface
        x = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        side = np.array(["minus", "bulk", "plus", "minus", "minus", "plus", "plus"])
        right_env = np.arange(7) + 0.5j
        left_env = np.arange(7) * 1j - 3.0
        profile = FieldProfile(x=x, side=side, right_env=right_env, left_env=left_env)
        assert_same(profile._at_zero(right_env), (right_env[3], right_env[2]))
        assert_same(profile._at_zero(right_env), reference_at_zero(x, side, right_env))
        dec = decompose(profile)
        want = reference_decompose(x, side, right_env, left_env)
        assert_same(dec.incident_right, right_env[3])
        assert_same(dec.incident_left, left_env[2])
        surf = axial_at_surface(dec)
        assert_same((surf.value, surf.jump), want[4:])

    def test_missing_pair(self):
        x = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="both 0- and 0\\+ samples"):
            FieldProfile(x=x, side=np.array(["bulk", "minus", "bulk"]),
                         right_env=np.zeros(3, complex), left_env=np.zeros(3, complex))

    def test_unequal_shapes(self):
        x, side = make_grid(1.0, 4)
        with pytest.raises(ValueError, match="profile arrays must share one shape"):
            FieldProfile(x=x, side=side, right_env=np.zeros(x.size, complex),
                         left_env=np.zeros(x.size - 1, complex))

    def test_parity_rejects_unknown_label(self):
        profile = eval_a(0.8, -0.2)
        side = profile.side.copy()
        side[0] = side[-1] = "edge"
        odd = FieldProfile(x=profile.x, side=side, right_env=profile.right_env,
                           left_env=profile.left_env)
        with pytest.raises(AsymmetricGrid, match="side tags"):
            parity_transform(odd)

    @given(st.lists(st.sampled_from(["bulk", "minus", "plus"]), min_size=4, max_size=4))
    def test_parity_label_check_equals_reference(self, outer):
        x = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])
        side = np.array(outer[:2] + ["minus", "plus"] + outer[2:])
        profile = FieldProfile(x=x, side=side, right_env=np.ones(6, complex),
                               left_env=np.zeros(6, complex))
        swap = {"minus": "plus", "plus": "minus", "bulk": "bulk"}
        if all(swap[s] == m for s, m in zip(side[::-1], side)):
            assert_same(parity_transform(profile).side, side)
        else:
            with pytest.raises(AsymmetricGrid, match="side tags"):
                parity_transform(profile)
