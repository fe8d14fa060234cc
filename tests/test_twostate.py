"""Two-state coupling, decoupling phase, level energies, corrected reflection."""

import numpy as np
import pytest

from sheetoptics import (
    DegenerateDecoupling,
    ScatterCoeffs,
    SheetParams,
    TwoStateSystem,
    corrected_reflection,
    decouple,
    decoupling_phase,
    emission_amplitude,
    level_energies,
    offdiagonal,
    orthogonalize,
    solve_single_sheet,
    spin_matrix,
)
from sheetoptics.twostate import cross_element


def graphene_system(branching=1.0, **kwargs):
    p = SheetParams(cond=0.0229253, branching=branching)
    c = solve_single_sheet(p)
    b = emission_amplitude(p, c).b_r
    return TwoStateSystem(coeffs=c, b=b, **kwargs)


def random_systems(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) / 2.0
        t = 1.0 + r
        b = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(t + r) < 1e-6 or abs(b) < 1e-6:
            continue
        out.append(TwoStateSystem(coeffs=ScatterCoeffs(t=t, r=r), b=b))
    return out


class TestSystem:
    def test_rejects_large_overlap(self):
        c = ScatterCoeffs(t=1.0, r=0.0)
        with pytest.raises(ValueError):
            TwoStateSystem(coeffs=c, b=0.1, overlap=1.0)

    def test_rejects_bad_energy_unit(self):
        with pytest.raises(ValueError):
            TwoStateSystem(coeffs=ScatterCoeffs(t=1.0, r=0.0), b=0.1, energy_unit=0.0)


class TestOffdiagonal:
    def test_zero_when_decoupled(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3 + 0.1j)
        assert offdiagonal(sys_) == 0.0

    def test_zero_without_emission(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.9, r=-0.1), b=0.0)
        assert offdiagonal(sys_) == 0.0

    def test_graphene_value(self):
        # frozen from direct evaluation of conj(b) * (t + r)
        assert offdiagonal(graphene_system()) == pytest.approx(-0.102279, abs=2e-6)

    def test_energy_unit_scales(self):
        sys1 = graphene_system(energy_unit=1.0)
        sys3 = graphene_system(energy_unit=3.0)
        assert offdiagonal(sys3) == pytest.approx(3.0 * offdiagonal(sys1))


class TestDecouplingPhase:
    def test_real_negative_b(self):
        # b < 0 real, t + r > 0 real: conj(t+r) b is negative real
        sys_ = graphene_system()
        theta_plus, theta_minus = decoupling_phase(sys_)
        assert theta_plus == pytest.approx(np.pi, abs=1e-12)
        assert theta_minus == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_b(self):
        # frozen by phase arithmetic: conj(t+r) b = i|..|, the positive-real
        # branch needs e^{i theta} = -i
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.9, r=-0.1), b=0.2j)
        theta_plus, theta_minus = decoupling_phase(sys_)
        assert theta_plus == pytest.approx(3 * np.pi / 2, abs=1e-12)
        assert theta_minus == pytest.approx(np.pi / 2, abs=1e-12)

    def test_degenerate_raises(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3)
        with pytest.raises(DegenerateDecoupling):
            decoupling_phase(sys_)

    def test_defining_conditions(self):
        for sys_ in random_systems(50):
            theta_plus, theta_minus = decoupling_phase(sys_)
            z = np.conj(sys_.t_plus_r) * sys_.b
            assert abs(np.imag(np.exp(1j * theta_plus) * z)) <= 1e-12
            assert np.real(np.exp(1j * theta_plus) * z) > 0
            assert np.real(np.exp(1j * theta_minus) * z) < 0
            assert abs(cross_element(offdiagonal(sys_), theta_plus)) <= 1e-12


class TestLevelEnergies:
    def test_zero_without_emission(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.9, r=-0.1), b=0.0)
        assert level_energies(sys_, 0.3) == (0.0, 0.0)

    def test_zero_when_decoupled(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3)
        assert level_energies(sys_, 1.2) == (0.0, 0.0)

    def test_graphene_value(self):
        sys_ = graphene_system()
        theta_plus, _ = decoupling_phase(sys_)
        e_plus, e_minus = level_energies(sys_, theta_plus)
        # frozen: 2 |t+r| |b|
        assert e_plus == pytest.approx(0.204558, abs=2e-6)
        assert e_minus == -e_plus

    def test_antisymmetric_and_magnitude(self):
        for sys_ in random_systems(50, seed=1):
            theta_plus, _ = decoupling_phase(sys_)
            e_plus, e_minus = level_energies(sys_, theta_plus)
            assert e_plus + e_minus == 0.0
            assert e_plus == pytest.approx(
                2.0 * abs(sys_.t_plus_r) * abs(sys_.b), abs=1e-12
            )


class TestCorrectedReflection:
    def test_no_correction(self):
        sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=0.9, r=-0.1), b=0.0)
        r_plus, r_minus = corrected_reflection(sys_)
        assert r_plus == r_minus == -0.1

    def test_graphene_values(self):
        r_plus, r_minus = corrected_reflection(graphene_system())
        assert r_minus.real == pytest.approx(-0.115985, abs=2e-6)
        assert r_plus.real == pytest.approx(0.093319, abs=2e-6)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDecoupling):
            corrected_reflection(
                TwoStateSystem(coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3)
            )

    def test_mean_is_uncorrected(self):
        for sys_ in random_systems(20, seed=2):
            r_plus, r_minus = corrected_reflection(sys_)
            assert (r_plus + r_minus) / 2.0 == pytest.approx(
                sys_.coeffs.r, abs=1e-15
            )


class TestSpinMatrix:
    def test_zero_coupling(self):
        m = spin_matrix(TwoStateSystem(coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3))
        assert np.all(m == 0.0)
        assert np.allclose(np.linalg.eigvalsh(m), [0.0, 0.0])

    def test_eigenvalues(self):
        for sys_ in random_systems(50, seed=3):
            h = offdiagonal(sys_)
            vals = np.linalg.eigvalsh(spin_matrix(sys_))
            assert np.allclose(sorted(vals), [-abs(h), abs(h)], atol=1e-12)

    def test_eigenvector_phase_matches_decoupling(self):
        for sys_ in random_systems(20, seed=4):
            theta_plus, _ = decoupling_phase(sys_)
            vals, vecs = np.linalg.eigh(spin_matrix(sys_))
            v_plus = vecs[:, np.argmax(vals)]
            # basis order (emission, scattering): component ratio carries theta
            phase = np.angle(v_plus[0] / v_plus[1]) % (2 * np.pi)
            assert phase == pytest.approx(theta_plus, abs=1e-10)


class TestOrthogonalize:
    def test_identity_for_zero_overlap(self):
        result = orthogonalize(graphene_system(overlap=0.0))
        assert np.allclose(result.basis_matrix, np.eye(2))

    def test_new_basis_is_orthogonal(self):
        result = orthogonalize(graphene_system(overlap=0.1))
        assert abs(result.gram[0, 1]) <= 1e-12
        assert abs(result.gram[1, 0]) <= 1e-12

    def test_complex_overlap_gram(self):
        result = orthogonalize(graphene_system(overlap=0.1 + 0.2j))
        s = 0.1 + 0.2j
        expected = np.array([[1.0, 0.0], [0.0, 1.0 - abs(s) ** 2]])
        assert np.allclose(result.gram, expected, atol=1e-15)

    def test_decoupled_stays_decoupled(self):
        sys_ = TwoStateSystem(
            coeffs=ScatterCoeffs(t=0.5, r=-0.5), b=0.3, overlap=0.1
        )
        result = orthogonalize(sys_)
        assert np.all(result.hamiltonian == 0.0)


class TestDecoupleBundle:
    def test_matches_pieces(self):
        sys_ = graphene_system()
        pair = decouple(sys_)
        theta_plus, theta_minus = decoupling_phase(sys_)
        assert pair.theta == theta_plus
        assert pair.theta_minus == theta_minus
        assert pair.energy_plus == -pair.energy_minus
        r_plus, r_minus = corrected_reflection(sys_)
        assert pair.reflection_plus == r_plus
        assert pair.reflection_minus == r_minus
