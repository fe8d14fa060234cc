"""Field profiles, polar/axial decomposition, surface and parity checks."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from sheetoptics import (
    AsymmetricGrid,
    ContinuityViolation,
    axial_at_surface,
    decompose,
    eval_a,
    eval_b,
    make_grid,
    parity_transform,
)

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

