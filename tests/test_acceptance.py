"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every check here is an independent re-derivation, not a
comparison against the library's own cached numbers.
"""

import time

import numpy as np
import pytest

from sheetoptics import (
    FINE_STRUCTURE,
    GRAPHENE_COND,
    LayerStack,
    ScatterCoeffs,
    Sheet,
    SheetParams,
    Slab,
    TwoStateSystem,
    absorbance,
    axial_at_surface,
    build_emission_ledger,
    corrected_reflection,
    decompose,
    decoupling_layer_number,
    decoupling_phase,
    emission_amplitude,
    eval_a,
    eval_b,
    level_energies,
    nlayer_replacement,
    offdiagonal,
    parity_transform,
    reflectance_with_emission,
    solve_boundary_system,
    solve_single_sheet,
    spin_matrix,
    stack_coeffs,
)
from sheetoptics.twostate import cross_element


def report(number, label, ok):
    print("criterion {}: {} -- {}".format(number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion {} failed: {}".format(number, label)


def sheet_stack(n, cond, spacing=0.0):
    layers = []
    for i in range(n):
        if i > 0 and spacing > 0.0:
            layers.append(Slab(n=1.0, d=spacing))
        layers.append(Sheet(params=SheetParams(cond=cond)))
    return LayerStack(layers=layers)


class TestCriterion1:
    def test_single_sheet_dual_route(self):
        g = np.pi * FINE_STRUCTURE
        p = SheetParams(cond=g)
        t_ref = 2.0 / (2.0 + g)
        r_ref = -g / (2.0 + g)
        start = time.perf_counter()
        closed = solve_single_sheet(p)
        linear = solve_boundary_system(p)
        elapsed = time.perf_counter() - start
        ok = (
            abs(closed.t - t_ref) <= 1e-12
            and abs(closed.r - r_ref) <= 1e-12
            and abs(linear.t - t_ref) <= 1e-12
            and abs(linear.r - r_ref) <= 1e-12
            and abs(closed.t - linear.t) <= 1e-12
            and abs(closed.r - linear.r) <= 1e-12
            and elapsed < 1e-3
        )
        report(1, "single-sheet coefficients by two routes", ok)


class TestCriterion2:
    def test_conservation_grid(self):
        worst = 0.0
        for g in np.linspace(0.0, 10.0, 1000):
            c = solve_single_sheet(SheetParams(cond=g))
            worst = max(
                worst,
                abs(1.0 - abs(c.r) ** 2 - abs(c.t) ** 2 - g * abs(c.t) ** 2),
            )
        report(2, "conservation identity on 1000-point grid", worst <= 1e-12)


class TestCriterion3:
    def test_decoupled_point_and_layer_scan(self):
        c = solve_single_sheet(SheetParams(cond=2.0))
        point_ok = abs(c.t - 0.5) <= 1e-15 and abs(c.r + 0.5) <= 1e-15
        sys_ = TwoStateSystem(coeffs=c, b=0.3)
        zero_ok = offdiagonal(sys_) == 0.0

        start = time.perf_counter()
        search = decoupling_layer_number(GRAPHENE_COND)
        elapsed = time.perf_counter() - start
        residuals = []
        for n in range(1, 176):
            merged = nlayer_replacement(n, GRAPHENE_COND)
            residuals.append(abs(merged.t + merged.r))
        scan_best = int(np.argmin(residuals)) + 1
        search_ok = (
            abs(search.n_exact - 2.0 / GRAPHENE_COND) <= 1e-12
            and abs(search.n_exact - 87.24) < 0.01
            and search.n_int == 87
            and scan_best == 87
            and elapsed < 1e-2
        )
        report(3, "decoupled point and layer-number scan", point_ok and zero_ok and search_ok)


class TestCriterion4:
    def test_replacement_oracle_and_continuum_limit(self):
        g = GRAPHENE_COND
        worst = 0.0
        for n in range(1, 201):
            product = stack_coeffs(sheet_stack(n, g))
            merged = nlayer_replacement(n, g)
            worst = max(worst, abs(product.t - merged.t), abs(product.r - merged.r))
        zero_ok = worst <= 1e-10

        merged = nlayer_replacement(20, g)
        deviations = []
        for d in (1e-2, 1e-3, 1e-4):
            spaced = stack_coeffs(sheet_stack(20, g, spacing=d))
            deviations.append(abs(spaced.t - merged.t) + abs(spaced.r - merged.r))
        monotone_ok = deviations[0] > deviations[1] > deviations[2]
        report(4, "zero-spacing replacement and continuum limit", zero_ok and monotone_ok)


class TestCriterion5:
    def test_random_two_state_suite(self):
        rng = np.random.default_rng(42)
        checked = 0
        ok = True
        while checked < 100:
            r = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) / 2.0
            t = 1.0 + r
            b = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if abs(t + r) < 1e-3 or abs(b) < 1e-3:
                continue
            sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=t, r=r), b=b)
            theta_plus, _ = decoupling_phase(sys_)
            e_plus, e_minus = level_energies(sys_, theta_plus)
            h = offdiagonal(sys_)
            vals = np.sort(np.linalg.eigvalsh(spin_matrix(sys_)))
            ok = ok and e_plus == -e_minus
            ok = ok and abs(e_plus - 2.0 * abs(t + r) * abs(b)) <= 1e-12
            ok = ok and np.allclose(vals, [-abs(h), abs(h)], atol=1e-12, rtol=0.0)
            ok = ok and abs(cross_element(h, theta_plus)) <= 1e-12
            checked += 1
        report(5, "two-state suite on 100 random triples", ok)


class TestCriterion6:
    def test_corrected_reflection_matches_stack(self):
        p = SheetParams()
        c = solve_single_sheet(p)
        b = emission_amplitude(p, c).b_r
        r_plus, r_minus = corrected_reflection(TwoStateSystem(coeffs=c, b=b))
        value_ok = (
            abs(r_minus.real + 0.11598) < 5e-6 and abs(r_plus.real - 0.09332) < 5e-6
        )

        stack = LayerStack(layers=[Sheet(params=p)])
        r_em = reflectance_with_emission(stack, build_emission_ledger(stack))
        stack_ok = abs(r_em - abs(r_minus) ** 2) <= 1e-10
        report(6, "corrected reflection vs stack emission pathway", value_ok and stack_ok)


class TestCriterion7:
    def test_field_gauge_suite(self):
        ok = True
        for r in np.linspace(-0.45, 0.45, 40):
            surf = axial_at_surface(decompose(eval_a(1.0 + r, r)))
            ok = ok and abs(surf.value) <= 1e-12
        for b in np.linspace(-1.0, 1.0, 21):
            ok = ok and abs(axial_at_surface(decompose(eval_b(b, b))).value) <= 1e-12
        for b_r, b_l in ((0.3, -0.3), (0.5, 0.1), (-0.2, 0.7)):
            surf = axial_at_surface(decompose(eval_b(b_r, b_l)))
            ok = ok and abs(surf.value) > 1e-12

        for profile in (eval_a(0.7 + 0.1j, -0.3 + 0.1j), eval_b(0.4, -0.2)):
            back = parity_transform(parity_transform(profile))
            ok = ok and np.allclose(back.right_env, profile.right_env,
                                    atol=1e-12, rtol=0.0)
            ok = ok and np.allclose(back.left_env, profile.left_env,
                                    atol=1e-12, rtol=0.0)
            dec = decompose(profile)
            dec_p = decompose(parity_transform(profile))
            ok = ok and np.allclose(dec_p.axial_env, dec.axial_env[::-1],
                                    atol=1e-12, rtol=0.0)
        report(7, "surface axial and parity suite", ok)


class TestCriterion8:
    def test_thickness_sweep_interference_minima(self):
        n_slab = 1.46
        period = 1.0 / (2.0 * n_slab)
        thicknesses = np.linspace(0.0, 3.0 * period, 601)
        reflectances = []
        for d in thicknesses:
            stack = LayerStack(
                layers=[Sheet(params=SheetParams()), Slab(n=n_slab, d=d)],
                ambient_out=3.882 + 0.019j,
            )
            c = stack_coeffs(stack)
            reflectances.append(abs(c.r) ** 2)
        reflectances = np.array(reflectances)

        ok = True
        for k in range(3):
            window = (thicknesses >= k * period) & (thicknesses < (k + 1) * period)
            values = reflectances[window]
            interior = np.where(
                (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
            )[0]
            ok = ok and len(interior) >= 1
        report(8, "reflectance minimum per half-wave period", ok)
