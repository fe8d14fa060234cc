"""Transfer-matrix stack optics, N-layer closed forms, emission reflectance."""

import json
import math
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sheetoptics import (
    EmissionLedger,
    GRAPHENE_COND,
    LayerStack,
    LedgerMismatch,
    Sheet,
    SheetParams,
    SingularStack,
    Slab,
    TwoStateSystem,
    build_emission_ledger,
    corrected_reflection,
    decoupling_layer_number,
    emission_amplitude,
    interface_matrix,
    local_fields,
    nlayer_replacement,
    reflectance_with_emission,
    sheet_matrix,
    solve_single_sheet,
    stack_absorbance,
    stack_coeffs,
)
from sheetoptics import stack as stack_mod
from sheetoptics.stack import (
    element_matrices,
    load_stack,
    solve_stack,
    stack_from_dict,
    stack_to_dict,
    substrate_index,
)
from test_solve import stacks


def sheet_stack(n, cond=GRAPHENE_COND, spacing=0.0, **sheet_kwargs):
    layers = []
    for i in range(n):
        if i and spacing:
            layers.append(Slab(n=1.0, d=spacing))
        layers.append(Sheet(params=SheetParams(cond=cond), **sheet_kwargs))
    return LayerStack(layers=tuple(layers))


def exhaustive_decoupling_scan(cond):
    """Minimize |t_N + r_N| over every N in [1, max(2, ceil(4/cond))], ties
    toward smaller N; returns (N, residual)."""
    n_max = max(2, int(np.ceil(2.0 * (2.0 / cond))))
    best_n, best = 1, np.inf
    for n in range(1, n_max + 1):
        c = nlayer_replacement(n, cond)
        residual = abs(c.t + c.r)
        if residual < best:
            best_n, best = n, residual
    return best_n, float(best)


class TestElementMatrices:
    def test_sheet_identity_at_zero(self):
        assert np.allclose(sheet_matrix(SheetParams(cond=0.0)), np.eye(2))

    def test_sheet_entries(self):
        g = 0.4
        m = sheet_matrix(SheetParams(cond=g))
        assert np.allclose(m, [[1.2, 0.2], [-0.2, 0.8]])

    def test_sheet_extraction_matches_solver(self):
        p = SheetParams(cond=GRAPHENE_COND)
        c = stack_coeffs(LayerStack(layers=(Sheet(params=p),)))
        ref = solve_single_sheet(p)
        assert abs(c.t - ref.t) <= 1e-12
        assert abs(c.r - ref.r) <= 1e-12

    def test_sheet_extraction_strong(self):
        c = stack_coeffs(LayerStack(layers=(Sheet(params=SheetParams(cond=2.0)),)))
        assert c.t == pytest.approx(0.5, abs=1e-15)
        assert c.r == pytest.approx(-0.5, abs=1e-15)

    @staticmethod
    def slab_element(n, d):
        """The one element of a slab between ambients of its own index."""
        (m,) = element_matrices(LayerStack(layers=(Slab(n=n, d=d),),
                                           ambient_in=n, ambient_out=n))
        return m

    def test_propagation_identity(self):
        assert np.allclose(self.slab_element(1.5, 0.0), np.eye(2))

    def test_propagation_half_wave(self):
        assert np.allclose(self.slab_element(1.0, 0.5), -np.eye(2), atol=1e-15)

    def test_propagation_quarter_wave(self):
        # exit to entry: diag(e^{-i phi}, e^{i phi}) at phi = pi/2
        m = self.slab_element(1.46, 0.25 / 1.46)
        assert np.allclose(m, [[-1j, 0.0], [0.0, 1j]], atol=1e-15)

    def test_interface_identity(self):
        assert np.allclose(interface_matrix(1.3, 1.3), np.eye(2))

    @pytest.mark.parametrize("n1, n2", [(-1.0, 1.0), (1.0, 0.0), (1j, 1.0)])
    def test_interface_rejects_index_without_positive_real_part(self, n1, n2):
        with pytest.raises(ValueError, match="interface indices must have Re\\(n\\) > 0"):
            interface_matrix(n1, n2)

    def test_interface_round_trip(self):
        m = interface_matrix(1.0, 1.5) @ interface_matrix(1.5, 1.0)
        assert np.allclose(m, np.eye(2), atol=1e-15)

    def test_interface_argument_order(self):
        """interface_matrix(n1, n2) maps the n1 side to the n2 side; a stack
        passes its exit (right) index first.  From n = 1 into n = 1.5 the
        Fresnel amplitudes are t = 0.8 and r = -0.2."""
        step = interface_matrix(1.5, 1.0)
        assert np.allclose(step @ [0.8, 0.0], [1.0, -0.2], rtol=0.0, atol=1e-15)
        (element,) = element_matrices(LayerStack(ambient_out=1.5))
        assert np.array_equal(element, step)

    def test_bare_interface_fresnel(self):
        c = stack_coeffs(LayerStack(layers=(), ambient_out=1.5))
        assert c.r == pytest.approx(-0.2, abs=1e-15)
        assert c.t == pytest.approx(0.8, abs=1e-15)

    def test_composition_associativity(self):
        stk = LayerStack(
            layers=(
                Sheet(params=SheetParams(cond=0.1)),
                Slab(n=1.46, d=0.2),
                Sheet(params=SheetParams(cond=0.05)),
                Slab(n=2.0, d=0.13),
            ),
            ambient_out=3.0,
        )
        mats = element_matrices(stk)
        left = np.eye(2, dtype=complex)
        for m in mats:
            left = left @ m
        right = np.eye(2, dtype=complex)
        for m in reversed(mats):
            right = m @ right
        assert np.allclose(left, right, atol=1e-12)
        c = stack_coeffs(stk)
        assert c.t == pytest.approx(1.0 / left[0, 0], abs=1e-12)
        assert c.r == pytest.approx(left[1, 0] / left[0, 0], abs=1e-12)

    def test_sheet_slots(self):
        stk = LayerStack(
            layers=(
                Sheet(params=SheetParams(cond=0.1)),
                Slab(n=1.46, d=0.2),
                Sheet(params=SheetParams(cond=0.05)),
                Slab(n=1.46, d=0.1),
                Sheet(params=SheetParams(cond=0.2)),
            ),
            ambient_out=3.0,
        )
        mats = element_matrices(stk, 1.0)
        # sheet, interface + slab, sheet, slab (same index), sheet, exit interface
        assert len(mats) == 7
        for slot, sheet in zip([0, 3, 5], stk.sheets()):
            assert np.array_equal(mats[slot], sheet_matrix(sheet.params))


class TestStackCoeffs:
    def test_empty_vacuum(self):
        c = stack_coeffs(LayerStack())
        assert c.t == 1.0
        assert c.r == 0.0

    def test_zero_spacing_matches_replacement(self):
        for n in (2, 3, 10, 87, 200):
            c = stack_coeffs(sheet_stack(n))
            ref = nlayer_replacement(n, GRAPHENE_COND)
            assert abs(c.t - ref.t) <= 1e-10
            assert abs(c.r - ref.r) <= 1e-10

    def test_continuum_limit_monotone(self):
        ref = nlayer_replacement(5, GRAPHENE_COND)
        errors = []
        for d in (1e-2, 1e-3, 1e-4):
            c = stack_coeffs(sheet_stack(5, spacing=d))
            errors.append(abs(c.t - ref.t) + abs(c.r - ref.r))
        assert errors[0] > errors[1] > errors[2]

    def test_half_wave_slab_is_transparent(self):
        stk = LayerStack(layers=(Slab(n=1.0, d=0.5),))
        c = stack_coeffs(stk)
        assert abs(c.r) <= 1e-15
        assert abs(c.t) == pytest.approx(1.0, abs=1e-15)

    def test_lossy_slab_is_passive(self):
        stk = LayerStack(layers=(Slab(n=2.0 + 0.5j, d=0.3),))
        a = stack_absorbance(stk)
        assert 0.0 < a < 1.0

    def test_energy_bookkeeping_sheets_in_vacuum(self):
        stk = sheet_stack(4, cond=0.3, spacing=0.17)
        a = stack_absorbance(stk)
        fields = local_fields(stk)
        assert a == pytest.approx(
            sum(0.3 * abs(f) ** 2 for f in fields), abs=1e-8
        )

    def test_passive_absorbance_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            layers = []
            for _ in range(rng.integers(1, 5)):
                if rng.random() < 0.5:
                    layers.append(Sheet(params=SheetParams(cond=rng.uniform(0, 2))))
                else:
                    layers.append(
                        Slab(n=rng.uniform(1, 3) + 1j * rng.uniform(0, 0.3),
                             d=rng.uniform(0, 1))
                    )
            stk = LayerStack(layers=tuple(layers),
                             ambient_out=rng.uniform(1.0, 3.0))
            a = stack_absorbance(stk)
            assert -1e-12 <= a <= 1.0


class TestNLayer:
    def test_single(self):
        c = nlayer_replacement(1, 0.7)
        ref = solve_single_sheet(SheetParams(cond=0.7))
        assert c == ref

    def test_decoupled_product(self):
        c = nlayer_replacement(4, 0.5)
        assert c.t == pytest.approx(0.5, abs=1e-15)
        assert c.r == pytest.approx(-0.5, abs=1e-15)

    def test_graphene_87(self):
        c = nlayer_replacement(87, 0.0229253)
        assert c.t == pytest.approx(0.500688, abs=1e-6)
        assert c.r == pytest.approx(-0.499312, abs=1e-6)
        assert abs(c.t + c.r) == pytest.approx(0.001377, abs=1e-6)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            nlayer_replacement(0, 0.5)

    @pytest.mark.parametrize("cond", [1e308, 1e308 + 1j, 1j * 1e308])
    def test_overflowing_product_names_both(self, cond):
        with pytest.raises(ValueError, match=r"^n_layers \* cond overflows: n_layers 2, cond "):
            nlayer_replacement(2, cond)

    def test_non_finite_cond_is_named(self):
        with pytest.raises(ValueError, match="cond must be finite, got inf"):
            nlayer_replacement(2, np.inf)


class TestDecouplingSearch:
    def test_exact_single_layer(self):
        found = decoupling_layer_number(2.0)
        assert found.n_exact == 1.0
        assert found.n_int == 1
        assert found.residual == 0.0

    def test_exact_division(self):
        found = decoupling_layer_number(0.5)
        assert found.n_exact == 4.0
        assert found.n_int == 4
        assert found.residual <= 1e-15

    def test_graphene(self):
        found = decoupling_layer_number(GRAPHENE_COND)
        assert found.n_exact == pytest.approx(2.0 / GRAPHENE_COND)
        assert found.n_exact == pytest.approx(87.24, abs=0.01)
        assert found.n_int == 87

    def test_scan_is_global_minimum(self):
        for g in (0.013, 0.21, 1.7):
            found = decoupling_layer_number(g)
            residuals = {}
            for n in range(1, int(np.ceil(2 * found.n_exact)) + 1):
                c = nlayer_replacement(n, g)
                residuals[n] = abs(c.t + c.r)
            best = min(residuals, key=lambda n: (residuals[n], n))
            assert found.n_int == best

    def test_closed_form_matches_exhaustive_scan(self):
        for g in np.logspace(-4, np.log10(3.0), 25):
            g = float(g)
            found = decoupling_layer_number(g)
            n_int, residual = exhaustive_decoupling_scan(g)
            assert found.n_int == n_int, g
            assert found.residual == residual, g

    def test_subnormal_cond(self):
        """2/g still fits a float just below the normal range, and one sheet
        at N g = 2 meets t + r = 0 exactly."""
        found = decoupling_layer_number(1.5e-308)
        assert found.n_exact == 2.0 / 1.5e-308
        assert found.n_int == int(found.n_exact)
        assert found.residual == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decoupling_layer_number(0.0)

    def test_rejects_underflowing_cond(self):
        with pytest.raises(ValueError):
            decoupling_layer_number(5e-324)


class TestLocalFields:
    def test_single_sheet(self):
        fields = local_fields(sheet_stack(1))
        ref = solve_single_sheet(SheetParams(cond=GRAPHENE_COND))
        assert fields.shape == (1,)
        assert fields[0] == pytest.approx(ref.t, abs=1e-12)

    def test_no_sheets(self):
        assert local_fields(LayerStack(layers=(Slab(n=1.2, d=0.3),))).size == 0

    def test_half_wave_spacer_preserves_magnitude(self):
        p = SheetParams(cond=GRAPHENE_COND)
        stk = LayerStack(layers=(Slab(n=1.0, d=0.5), Sheet(params=p)))
        fields = local_fields(stk)
        ref = solve_single_sheet(p)
        assert abs(fields[0]) == pytest.approx(abs(ref.t), abs=1e-12)


class TestEmissionReflectance:
    def test_no_branching_is_bare_reflectance(self):
        stk = sheet_stack(3, cond=0.4, spacing=0.1)
        layers = tuple(
            Sheet(params=SheetParams(cond=0.4, branching=0.0), sign=l.sign)
            if isinstance(l, Sheet) else l
            for l in stk.layers
        )
        quiet = LayerStack(layers=layers)
        c = stack_coeffs(quiet)
        assert reflectance_with_emission(quiet) == pytest.approx(
            abs(c.r) ** 2, abs=1e-15
        )

    def test_single_sheet_matches_twostate(self):
        p = SheetParams(cond=GRAPHENE_COND, branching=1.0)
        c = solve_single_sheet(p)
        b = emission_amplitude(p, c).b_r
        _, r_minus = corrected_reflection(TwoStateSystem(coeffs=c, b=b))
        stk = LayerStack(layers=(Sheet(params=p, sign=-1),))
        assert reflectance_with_emission(stk) == pytest.approx(
            abs(r_minus) ** 2, abs=1e-10
        )
        r_plus, _ = corrected_reflection(TwoStateSystem(coeffs=c, b=b))
        stk_plus = LayerStack(layers=(Sheet(params=p, sign=1),))
        assert reflectance_with_emission(stk_plus) == pytest.approx(
            abs(r_plus) ** 2, abs=1e-10
        )

    def test_degenerate_stack_sign_invariant(self):
        # exact decoupling: 87 sheets of conductance 2/87, t + r = 0; the
        # branch sign then cannot matter (small branching keeps R below 1)
        g = 2.0 / 87.0

        def build(sign):
            params = SheetParams(cond=g, branching=0.01)
            return LayerStack(
                layers=tuple(Sheet(params=params, sign=sign) for _ in range(87))
            )

        minus, plus = build(-1), build(1)
        c = stack_coeffs(minus)
        assert abs(c.t + c.r) <= 1e-13
        assert reflectance_with_emission(minus) == pytest.approx(
            reflectance_with_emission(plus), abs=1e-12
        )

    def test_ledger_mismatch(self):
        stk = sheet_stack(2)
        with pytest.raises(LedgerMismatch):
            reflectance_with_emission(stk, EmissionLedger())
        with pytest.raises(LedgerMismatch):
            reflectance_with_emission(
                stk, EmissionLedger(b=(0.1, 0.1), theta=(0.0,), signs=(-1, -1)))

    def test_ledger_alignment(self):
        stk = sheet_stack(3, cond=0.2, spacing=0.21)
        ledger = build_emission_ledger(stk)
        assert len(ledger.b) == len(ledger.theta) == 3
        assert ledger.signs == (-1, -1, -1)

    def test_clamp_warns(self):
        # handcrafted ledger pushing |r + sum| past 1 triggers the clamp
        stk = sheet_stack(1, cond=0.0)
        ledger = EmissionLedger(b=(1.5,), theta=(0.0,), signs=(-1,))
        with pytest.warns(UserWarning):
            r = reflectance_with_emission(stk, ledger)
        assert r == 1.0


class TestStackIO:
    def test_round_trip(self, tmp_path):
        stk = LayerStack(
            layers=(
                Sheet(params=SheetParams(cond=0.023, branching=0.5, f_sign=-1),
                      sign=1),
                Slab(n=1.46, d=0.3),
            ),
            ambient_out=3.882 + 0.019j,
        )
        data = stack_to_dict(stk, wavelength_nm=633.0)
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(data))
        loaded, wavelength = load_stack(path)
        assert wavelength == 633.0
        assert loaded == stk

    def test_schema_field_names(self):
        data = {
            "ambient_in": 1.0,
            "ambient_out": [3.882, 0.019],
            "layers": [
                {"type": "sheet", "cond": 0.0229253, "branching": 1.0,
                 "f_sign": 1, "sign": -1},
                {"type": "slab", "n_re": 1.46, "n_im": 0.0, "d": 0.25},
            ],
            "wavelength_nm": 633,
        }
        stk, wavelength = stack_from_dict(data)
        assert wavelength == 633.0
        assert isinstance(stk.layers[0], Sheet)
        assert isinstance(stk.layers[1], Slab)
        assert stk.ambient_out == 3.882 + 0.019j

    @settings(max_examples=300, deadline=None)
    @given(stack=stacks, wavelength_nm=st.none() | st.floats(100.0, 2000.0))
    def test_dict_round_trip(self, stack, wavelength_nm):
        """A stack read from its description equals the stack built from
        layer objects and solves to the same numbers."""
        loaded, wavelength = stack_from_dict(stack_to_dict(stack, wavelength_nm))
        assert wavelength == wavelength_nm
        solutions = []
        for s in (stack, loaded):
            try:
                solutions.append(solve_stack(s))
            except SingularStack:
                solutions.append(None)
        assert loaded == stack
        assert hash(loaded) == hash(stack)
        built, read = solutions
        assert (built is None) == (read is None)
        if built is not None:
            assert (built.t, built.r, built.R, built.T, built.A) == (read.t, read.r, read.R,
                                                                     read.T, read.A)
            assert np.array_equal(built.sheet_fields, read.sheet_fields)
            assert built.R_emission_unclamped == read.R_emission_unclamped
            assert built.ledger == read.ledger

    CLEAN = {"ambient_out": [1.46, 0.0], "layers": [
        {"type": "sheet", "cond": [0.05, 0.02], "branching": 0.5, "f_sign": -1, "sign": 1},
        {"type": "slab", "n_re": 2.0, "n_im": 0.0, "d": 1.0},
        {"type": "sheet", "cond": 1.0, "branching": 1.0, "f_sign": 1, "sign": 1}]}

    @pytest.mark.parametrize("layer, fields", [
        (1, {"n_re": 2, "n_im": 0, "d": 1}),
        (2, {"cond": True, "branching": True, "f_sign": True, "sign": 1.0}),
        (0, {"cond": [0.05, 0.02], "f_sign": -1.0, "sign": 1.0}),
        (2, {"cond": [1, 0]}),
    ], ids=["ints", "bools", "converted_signs", "int_pair"])
    def test_converted_fields_read_as_clean_ones(self, layer, fields):
        data = json.loads(json.dumps(self.CLEAN))
        data["layers"][layer].update(fields)
        clean, converted = stack_from_dict(self.CLEAN)[0], stack_from_dict(data)[0]
        assert converted == clean
        assert np.array_equal(solve_stack(converted).sheet_fields,
                              solve_stack(clean).sheet_fields)

    @pytest.mark.parametrize("fields", [
        {"cond": 0, "branching": True, "f_sign": 1.0, "sign": True},
        {"cond": (0.05, 0.02), "branching": np.int64(1), "f_sign": np.float64(-1.0)},
        {"cond": [1, 0], "branching": Fraction(1, 2), "sign": Decimal("-1")},
    ], ids=["json_conversions", "tuple_and_numpy", "fraction_and_decimal"])
    def test_reading_builds_no_layer_objects(self, monkeypatch, fields):
        """Every valid description is read as columns: the per-layer
        checks, which build Sheet, Slab and SheetParams, run only on the
        way to an error."""
        def refuse(*args, **kwargs):
            raise AssertionError("a layer object was built")

        for name in ("Sheet", "Slab", "SheetParams"):
            monkeypatch.setattr(stack_mod, name, refuse)
        data = json.loads(json.dumps(self.CLEAN))
        data["layers"][0].update(fields)
        data["layers"][1].update(n_re=2, n_im=False, d=1)
        stk, _ = stack_from_dict(data)
        assert isinstance(vars(stk)["_columns"], stack_mod._Columns)

    @pytest.mark.parametrize("cond, message", [
        ([10 ** 400, "x"], "layers[0].cond must be a number or an [re, im] pair"),
        ([10 ** 400, 0], "layers[0].cond must be finite, got [1"),
        (np.complex128(0.05 + 0.02j), "layers[0].cond must be a number or an [re, im] pair"),
    ], ids=["text_outranks_overflow", "overflow", "numpy_complex"])
    def test_conductance_messages(self, cond, message):
        """A part that is not a number is named so even next to an int too
        large for a float; numpy's complex scalars, which would convert to
        their real part, are not numbers."""
        with pytest.raises(ValueError) as caught:
            stack_from_dict({"layers": [{"type": "sheet", "cond": cond}]})
        assert str(caught.value).startswith(message)

    def test_no_bad_field_is_one_generic_error(self):
        """A description the column read refuses but whose fields each pass
        on their own, here a number that fails only its first conversion,
        gives one ValueError."""
        class FirstConversionFails:
            calls = 0

            def __float__(self):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise TypeError("first conversion")
                return 0.5

        with pytest.raises(ValueError, match="^layers could not be read"):
            stack_from_dict({"layers": [{"type": "sheet", "branching": FirstConversionFails()}]})

    def test_read_stack_api(self):
        stk, _ = stack_from_dict(self.CLEAN)
        assert [type(layer) for layer in stk.layers] == [Sheet, Slab, Sheet]
        assert stk.sheets() == [stk.layers[0], stk.layers[2]]
        assert stack_to_dict(stk) == stack_to_dict(stack_from_dict(self.CLEAN)[0])
        shorter = replace(stk, layers=stk.layers[:2])
        assert shorter == LayerStack(layers=stk.layers[:2], ambient_out=1.46)
        assert len(solve_stack(shorter).sheet_fields) == 1

    def test_construction(self):
        with pytest.raises(TypeError, match=r"layers\[1\]"):
            LayerStack(layers=(Slab(n=1.5, d=0.1), 1))
        stk, _ = stack_from_dict(self.CLEAN)
        with pytest.raises(FrozenInstanceError):
            stk.layers = ()
        moved, built = replace(stk, ambient_out=2.0), LayerStack(stk.layers, ambient_out=2.0)
        assert moved == built
        assert solve_stack(moved).T == solve_stack(built).T

    def test_rejects_unknown_layer_type(self):
        with pytest.raises(ValueError):
            stack_from_dict({"layers": [{"type": "mirror"}]})

    def test_substrate_presets(self):
        assert substrate_index("SiO2") == 1.46
        assert substrate_index("Si") == 3.882 + 0.019j
        with pytest.raises(ValueError):
            substrate_index("GaAs")


class TestValidation:
    def test_slab_rejects_gain(self):
        with pytest.raises(ValueError):
            Slab(n=1.5 - 0.1j, d=0.1)

    def test_slab_rejects_negative_thickness(self):
        with pytest.raises(ValueError):
            Slab(n=1.5, d=-0.1)

    def test_sheet_sign(self):
        with pytest.raises(ValueError):
            Sheet(params=SheetParams(), sign=0)

    def test_ambient_validation(self):
        with pytest.raises(ValueError):
            LayerStack(ambient_in=-1.0)

    @pytest.mark.parametrize("build", [
        lambda: SheetParams(cond=float("nan")),
        lambda: SheetParams(cond=complex(0.1, float("inf"))),
        lambda: Slab(n=complex(float("nan"), 0.0), d=0.1),
        lambda: Slab(n=1.5, d=float("inf")),
        lambda: LayerStack(ambient_in=float("nan")),
        lambda: LayerStack(ambient_out=complex(1.0, float("inf"))),
    ], ids=["nan_cond", "inf_cond_imag", "nan_slab_index", "inf_thickness",
            "nan_ambient_in", "inf_ambient_out"])
    def test_rejects_non_finite(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


#: Values that no field may hold: text, null, an int too large for a
#: float, infinities, NaN and a list.
BAD_VALUES = st.sampled_from(["0.5", "1", None, 10 ** 400, math.inf, -math.inf, math.nan,
                              [0.1]])
SIGNS = st.sampled_from([1, -1, 1.0, -1.0, True, np.int64(-1), np.float64(1.0), Fraction(1),
                         Decimal("-1")])


def python_forms(x: float):
    """x as a JSON number and as the number types a Python caller may pass."""
    forms = [x, np.float64(x), Fraction(x), Decimal(repr(x))]
    if x.is_integer():
        forms += [int(x), np.int64(int(x))]
    if x == 1.0:
        forms.append(True)
    return st.sampled_from(forms)


@st.composite
def field_values(draw, low, high, pair=False):
    """A field's value: mostly a number in [low, high] in one of its forms,
    an [re, im] list or tuple for a complex field; now and then a value
    out of range or one that is not a number at all."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(BAD_VALUES)
    if kind == 1:
        return draw(st.floats(-3.0, 3.0))
    x = draw(st.sampled_from([v for v in (low, high, 0.0, 1.0) if low <= v <= high])
             | st.floats(low, high))
    value = draw(python_forms(x))
    if pair and kind < 8:
        value = draw(st.sampled_from([list, tuple]))(
            [value, draw(st.floats(-1.0, 1.0).flatmap(python_forms))])
    return value


@st.composite
def layer_entries(draw):
    kind = draw(st.integers(0, 29))
    if kind == 0:
        return draw(st.sampled_from([3, None, {"type": "mirror"}, {}]))
    if kind < 15:
        fields = {"cond": field_values(0.0, 2.0, pair=True), "branching": field_values(0.0, 1.0),
                  "f_sign": SIGNS | BAD_VALUES, "sign": SIGNS | st.sampled_from([0, 2, 1.5])}
        entry = {"type": "sheet"}
    else:
        fields = {"n_re": field_values(0.5, 3.0), "n_im": field_values(0.0, 0.5),
                  "d": field_values(0.0, 2.0)}
        entry = {"type": "slab"}
    for name, values in fields.items():
        if name == "d" or draw(st.booleans()):
            entry[name] = draw(values)
    return entry


def respellings(value, is_complex: bool) -> list:
    """Other JSON spellings of a clean value, which every reader must read
    as the value itself: 0.05 <-> [0.05, 0], 0.0 <-> 0, 1 <-> 1.0 <-> true."""
    if is_complex and type(value) is list and len(value) == 2 and type(value[1]) is int \
            and value[1] == 0:
        return [value[0]]
    if type(value) not in (int, float, bool) or not abs(value) <= 2 ** 53:
        return []
    x = float(value)
    forms = [x] + [int(x)] * x.is_integer() + [bool(x)] * (x in (0.0, 1.0))
    if is_complex:
        forms.append([value, 0])
    return [form for form in forms if not (type(form) is type(value) and form == value)]


@st.composite
def respelled_descriptions(draw):
    """A description of JSON and Python values and a copy of it with one
    clean field respelled."""
    doc = {"layers": draw(st.lists(layer_entries(), max_size=5))}
    for name in ("ambient_in", "ambient_out"):
        if draw(st.booleans()):
            doc[name] = draw(field_values(1.0, 4.0, pair=True))
    if draw(st.booleans()):
        doc["wavelength_nm"] = draw(field_values(100.0, 1000.0))
    # (layer index or None, field name, whether the field is complex)
    fields = [(None, name, name.startswith("ambient")) for name in doc if name != "layers"]
    fields += [(i, name, name == "cond") for i, entry in enumerate(doc["layers"])
               if isinstance(entry, dict) for name in entry if name != "type"]
    respelled = dict(doc, layers=[dict(entry) if isinstance(entry, dict) else entry
                                  for entry in doc["layers"]])

    def holder(d, i):
        return d if i is None else d["layers"][i]

    # a wavelength that is not positive is quoted in its message as written
    choices = [(i, name, spelling) for i, name, is_complex in fields
               for spelling in respellings(holder(doc, i)[name], is_complex)
               if name != "wavelength_nm" or spelling > 0]
    assume(choices)
    i, name, spelling = draw(st.sampled_from(choices))
    holder(respelled, i)[name] = spelling
    return doc, respelled


def read(doc):
    """The stack and wavelength of a description, or its error message."""
    try:
        return stack_from_dict(doc)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(respelled_descriptions())
@example(({"layers": [{"type": "sheet", "cond": 0.0, "branching": np.int64(1)}]},
          {"layers": [{"type": "sheet", "cond": 0, "branching": np.int64(1)}]}))
@example(({"layers": [{"type": "sheet", "cond": 0.05, "branching": Fraction(1, 2)}]},
          {"layers": [{"type": "sheet", "cond": [0.05, 0], "branching": Fraction(1, 2)}]}))
@example(({"layers": [{"type": "slab", "n_re": 1.0, "d": Decimal("0.5")}]},
          {"layers": [{"type": "slab", "n_re": True, "d": Decimal("0.5")}]}))
def test_respelled_field_reads_the_same(pair):
    """Respelling one clean field leaves the stack, or the message naming
    the first bad field, as it was, whatever Python values the other
    fields hold."""
    before, after = map(read, pair)
    assert before == after
    assert "no field is bad on its own" not in str(before)
