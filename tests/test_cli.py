"""CLI behavior: outputs, determinism, exit codes, sweeps, round trips."""

import argparse
import contextlib
import csv
import io
import json
import os
import string
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheetoptics import cli
from sheetoptics import stack as stack_mod
from sheetoptics import surface, twostate
from sheetoptics.cli import (
    _checked_args,
    _csv,
    _json_chunks,
    build_parser,
    main,
    run,
)
from sheetoptics.codec import encode_complex
from sheetoptics.fields import decompose, eval_a, eval_b

GRAPHENE = "0.0229253"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def reference_table(header, rows) -> str:
    """Row-by-row CSV: floats to 17 significant digits, None empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else f"{v:.17g}" if isinstance(v, float)
                         else str(v) for v in row])
    return buf.getvalue()


PROFILE_HEADER = ["x", "re_right", "im_right", "re_left", "im_left",
                  "re_polar", "im_polar", "re_axial", "im_axial", "side"]


def reference_profile_csv(profile) -> str:
    """A profile and its decomposition, one row per grid point."""
    dec = decompose(profile)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PROFILE_HEADER)
    for i in range(profile.x.size):
        row = [profile.x[i],
               profile.right_env[i].real, profile.right_env[i].imag,
               profile.left_env[i].real, profile.left_env[i].imag,
               dec.polar_env[i].real, dec.polar_env[i].imag,
               dec.axial_env[i].real, dec.axial_env[i].imag]
        writer.writerow([f"{v:.17g}" for v in row] + [profile.side[i]])
    return buf.getvalue()


def reference_sweep_rows(variable, values, cond, branching, f_sign, stack_path):
    """The sweep header and rows, one evaluation per row."""
    def re_im(z):
        z = complex(z)
        return [z.real, 0.0 if z.imag == 0.0 else z.imag]

    rows = []
    for v in values:
        if variable == "cond":
            params = surface.SheetParams(cond=v, branching=branching, f_sign=f_sign)
            c = surface.solve_single_sheet(params)
            rows.append([v, c.t.real, c.t.imag, c.r.real, c.r.imag,
                         surface.absorbance(c, params), abs(c.t + c.r)])
        elif variable == "n_layers":
            n = int(round(v))
            c = stack_mod.nlayer_replacement(n, cond)
            rows.append([n, c.t.real, c.t.imag, c.r.real, c.r.imag, abs(c.t + c.r)])
        else:
            stk, reference_nm = stack_mod.load_stack(stack_path)
            if variable == "wavelength_nm":
                s = stack_mod.solve_stack(stk, v / reference_nm)
            else:
                s = stack_mod.solve_sweep(stk, [1.0], last_slab_d=[v])[0]
            rows.append([v, *re_im(s.t), *re_im(s.r), s.R, s.T, s.A, s.R_emission])
    if variable == "cond":
        header = ["cond", "t_re", "t_im", "r_re", "r_im", "A", "abs_t_plus_r"]
    elif variable == "n_layers":
        header = ["n_layers", "t_re", "t_im", "r_re", "r_im", "abs_t_plus_r"]
    else:
        header = [variable, "t_re", "t_im", "r_re", "r_im", "R", "T", "A", "R_emission"]
    return header, rows


NO_REFERENCE_STACK = {"layers": [{"type": "sheet", "cond": 0.1},
                                 {"type": "slab", "n_re": 1.5, "d": 0.2}]}
#: A stack that a wavelength and a thickness sweep both accept.
OVERFLOW_SWEEP_STACK = ('{"wavelength_nm": 633.0, "layers": [{"type": "sheet", "cond": 0.1}, '
                        '{"type": "slab", "n_re": 1.5, "d": 0.2}]}')


@pytest.mark.parametrize("argv, file_text, message", [
    (["coeffs", "--cond", "nan"], None, "--cond must be finite"),
    (["coeffs", "--cond", "inf", "--format", "csv"], None, "--cond must be finite"),
    (["decouple", "--cond", "inf"], None, "--cond must be finite"),
    (["twostate", "--overlap", "nan"], None, "--overlap must be finite"),
    (["profile", "--k", "nan"], None, "--k must be finite"),
    (["profile", "--which", "b", "--b-r=-inf"], None, "--b-r must be finite"),
    (["stack", "--wavelength-nm", "inf", "--stack", "{file}"], '{"layers": []}',
     "--wavelength-nm must be finite"),
    (["sweep", "--sweep", "cond:nan:1:3"], None, "sweep start and stop must be finite"),
    (["sweep", "--sweep", "cond:0:inf:3"], None, "sweep start and stop must be finite"),
    (["coeffs", "--cond", "-inf"], None, "--cond must be finite"),
    (["coeffs", "--cond", "abc"], None, "invalid float value"),
    (["stack", "--stack", "{file}"],
     '{"layers": [{"type": "slab", "n_re": NaN, "d": 0.1}]}', "layers[0].n_re must be finite"),
    (["stack", "--stack", "{file}"],
     '{"layers": [{"type": "slab", "n_re": 1.5, "d": Infinity}]}', "layers[0].d must be finite"),
    (["stack", "--stack", "{file}"],
     '{"layers": [{"type": "sheet", "sign": -Infinity}]}', "layers[0].sign must be finite"),
    (["stack", "--stack", "{file}"],
     '{"layers": [{"type": "sheet", "cond": [0.1, NaN]}]}', "layers[0].cond must be finite"),
    (["stack", "--stack", "{file}"], '{"ambient_out": NaN}', "ambient_out must be finite"),
    (["stack", "--stack", "{file}"], '{"wavelength_nm": NaN}', "wavelength_nm must be finite"),
    (["twostate", "--coeffs", "{file}"], '{"t": 1, "r": 0, "b": [0, NaN]}', "b must be finite"),
    (["sweep", "--sweep", "cond:-1e308:1e308:3"], None, "stop - start overflows"),
    (["sweep", "--sweep", "wavelength_nm:-1e308:1e308:3", "--stack", "{file}"],
     OVERFLOW_SWEEP_STACK, "stop - start overflows"),
    (["sweep", "--sweep", "thickness:-1e308:1e308:3", "--stack", "{file}"],
     OVERFLOW_SWEEP_STACK, "stop - start overflows"),
    (["sweep", "--sweep", "n_layers:-1e308:1e308:3", "--cond", "0.1"], None,
     "stop - start overflows"),
    (["sweep", "--sweep", "n_layers:1:2:2", "--cond", "1e308"], None,
     "n_layers * cond overflows: n_layers 2, cond 1e+308"),
], ids=["coeffs_nan", "coeffs_inf_csv", "decouple_inf", "overlap_nan", "profile_k_nan",
        "profile_b_r_inf", "stack_wavelength_inf", "sweep_start_nan", "sweep_stop_inf",
        "cond_minus_inf", "not_a_number", "file_index_nan", "file_thickness_inf", "file_sign_inf",
        "file_cond_nan", "file_ambient_nan", "file_wavelength_nan", "coeffs_file_b_nan",
        "sweep_cond_range_overflow", "sweep_wavelength_range_overflow",
        "sweep_thickness_range_overflow", "sweep_n_layers_range_overflow",
        "sweep_n_layers_cond_overflow"])
def test_non_finite_input_is_config_error(capsys, tmp_path, argv, file_text, message):
    if file_text is not None:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        argv = [str(path) if a == "{file}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


class TestCoeffs:
    def test_graphene(self, capsys):
        doc = run_json(capsys, "coeffs", "--cond", GRAPHENE)
        assert doc["t"] == pytest.approx(0.988667, abs=1e-6)
        assert doc["r"] == pytest.approx(-0.011333, abs=1e-6)
        assert doc["A"] == pytest.approx(0.022409, abs=1e-6)

    def test_transparent(self, capsys):
        doc = run_json(capsys, "coeffs", "--cond", "0")
        assert doc["t"] == 1.0
        assert doc["r"] == 0.0
        assert doc["A"] == 0.0

    def test_provenance_header(self, capsys):
        doc = run_json(capsys, "coeffs", "--cond", "0.5")
        assert doc["tool_version"]
        assert doc["config_echo"]["command"] == "coeffs"
        assert doc["config_echo"]["cond"] == 0.5

    def test_csv_format(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--cond", "0", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.split(",")[:3] == ["t", "r", "A"]
        assert row.split(",")[0] == "1"

    def test_deterministic(self, capsys):
        outs = [run_cli(capsys, "coeffs", "--cond", GRAPHENE)[1] for _ in range(2)]
        assert outs[0] == outs[1]

    def test_rejects_gain(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--cond", "-1")
        assert code == 1
        assert "error" in err


class TestDecouple:
    def test_graphene(self, capsys):
        doc = run_json(capsys, "decouple", "--cond", GRAPHENE)
        assert doc["n_exact"] == pytest.approx(87.24, abs=0.01)
        assert doc["n_int"] == 87

    def test_config_error(self, capsys):
        code, _, err = run_cli(capsys, "decouple", "--cond", "0")
        assert code == 1

    def test_subnormal_cond(self, capsys):
        """2/g overflows no integer conversion: N g = 2 is met exactly."""
        def reject(constant):
            raise ValueError(f"non-finite JSON value {constant}")

        code, out, err = run_cli(capsys, "decouple", "--cond", "1.5e-308")
        assert code == 0, err
        doc = json.loads(out, parse_constant=reject)
        assert doc["n_exact"] == 2.0 / 1.5e-308
        assert doc["residual"] == 0.0


class TestConfigEcho:
    """The provenance block: command, input path, output path and format,
    then the other options in the order the parser adds them."""

    @staticmethod
    def assert_echo(doc, expected):
        # json text tells key order and 1 from 1.0 apart
        assert json.dumps(doc["config_echo"]) == json.dumps(expected)

    def test_coeffs(self, capsys):
        self.assert_echo(run_json(capsys, "coeffs", "--cond", "0.5"), {
            "command": "coeffs", "input_path": None, "output_path": None,
            "format": "json", "cond": 0.5, "branching": 1.0, "f_sign": 1})

    def test_twostate(self, capsys):
        doc = run_json(capsys, "twostate", "--overlap", "0.1", "--f-sign", "-1")
        self.assert_echo(doc, {
            "command": "twostate", "input_path": None, "output_path": None,
            "format": "json", "cond": surface.GRAPHENE_COND, "branching": 1.0,
            "f_sign": -1, "overlap": 0.1, "energy_unit": 1.0, "coeffs_json": None})

    def test_stack_wavelength(self, capsys, tmp_path):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
            {"type": "sheet", "cond": 0.1}]}))
        doc = run_json(capsys, "stack", "--stack", str(path), "--wavelength-nm", "500",
                       "--format", "json")
        self.assert_echo(doc, {
            "command": "stack", "input_path": str(path), "output_path": None,
            "format": "json", "wavelength_nm": 500.0})

    def test_decouple_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "decouple", "--cond", "0.25", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        self.assert_echo(json.loads(path.read_text()), {
            "command": "decouple", "input_path": None, "output_path": str(path),
            "format": "json", "cond": 0.25, "branching": 1.0, "f_sign": 1})


class TestTwostate:
    def test_graphene(self, capsys):
        doc = run_json(capsys, "twostate", "--cond", GRAPHENE)
        assert doc["offdiagonal"] == pytest.approx(-0.102279, abs=2e-6)
        assert doc["e_plus"] == pytest.approx(0.204558, abs=2e-6)
        assert doc["e_minus"] == -doc["e_plus"]
        assert doc["r_minus"] == pytest.approx(-0.115985, abs=2e-6)

    def test_degenerate(self, capsys):
        doc = run_json(capsys, "twostate", "--cond", "2")
        assert doc["degenerate"] is True
        assert doc["offdiagonal"] == 0.0
        assert doc["e_plus"] == 0.0

    def test_degenerate_csv(self, capsys):
        code, out, _ = run_cli(capsys, "twostate", "--cond", "2", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(","), strict=True))
        assert cells["degenerate"] == "True"
        assert cells["theta_plus"] == cells["r_minus"] == ""
        assert cells["e_plus"] == "0"

    def test_round_trip_through_coeffs_json(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        code, _, err = run_cli(
            capsys, "coeffs", "--cond", GRAPHENE, "--out", str(path)
        )
        assert code == 0
        direct = run_json(capsys, "twostate", "--cond", GRAPHENE)
        via_file = run_json(capsys, "twostate", "--coeffs", str(path))
        for key in ("offdiagonal", "theta_plus", "e_plus", "r_plus", "r_minus"):
            assert via_file[key] == direct[key]

    def test_one_phase_solve_per_run(self, capsys, monkeypatch):
        """decouple() keeps both phases, so the command solves for them once."""
        calls = []
        original = twostate.decoupling_phase

        def counting(sys_):
            calls.append(sys_)
            return original(sys_)

        monkeypatch.setattr(twostate, "decoupling_phase", counting)
        doc = run_json(capsys, "twostate", "--cond", GRAPHENE)
        assert len(calls) == 1
        assert [doc["theta_plus"], doc["theta_minus"]] == list(original(calls[0]))

    def test_coupling_element_computed_once_per_run(self, capsys, monkeypatch):
        """h is computed once, for the printed element (the phase self-check
        takes its own, scaled one); t + r once for it, once when the system
        is scaled and once each for the degeneracy checks of the phases and
        of the corrected reflection."""
        offdiagonal, t_plus_r = [], []
        original_h, original_s = twostate.offdiagonal, twostate.TwoStateSystem.t_plus_r

        def counting_h(sys_):
            offdiagonal.append(sys_)
            return original_h(sys_)

        def counting_s(sys_):
            t_plus_r.append(sys_)
            return original_s.fget(sys_)

        monkeypatch.setattr(twostate, "offdiagonal", counting_h)
        monkeypatch.setattr(twostate.TwoStateSystem, "t_plus_r", property(counting_s))
        doc = run_json(capsys, "twostate", "--cond", GRAPHENE)
        assert (len(offdiagonal), len(t_plus_r)) == (1, 4)
        assert doc["degenerate"] is False

    def test_huge_energy_unit_stays_finite(self, capsys):
        """e = 2|h| is finite whenever it fits, however large u is."""
        def reject(constant):
            raise ValueError(f"non-finite JSON value {constant}")

        code, out, err = run_cli(capsys, "twostate", "--energy-unit", "1e308", "--cond", "3")
        assert (code, err) == (0, "")
        doc = json.loads(out, parse_constant=reject)
        assert doc["e_plus"] == pytest.approx(2 * abs(doc["offdiagonal"]), rel=4e-16)
        assert doc["e_minus"] == -doc["e_plus"]

    def test_coeffs_file_missing_key(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"r": 0.1, "b": 0.2}))
        code, _, err = run_cli(capsys, "twostate", "--coeffs", str(path))
        assert code == 1
        assert "'t'" in err

    def test_coeffs_file_numeric_string_pair(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"t": ["0.9", "0"], "r": 0.1, "b": 0.2}))
        assert run_cli(capsys, "twostate", "--coeffs", str(path)) == \
            (1, "", "sheetoptics: config error: t must be a number or an [re, im] pair\n")

    def test_coeffs_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps([0.9, 0.1, 0.2]))
        code, _, err = run_cli(capsys, "twostate", "--coeffs", str(path))
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize("depth", [1500, 5000])
    def test_coeffs_file_nests_too_deeply(self, capsys, tmp_path, depth):
        path = tmp_path / "coeffs.json"
        path.write_text("[" * depth)
        assert run_cli(capsys, "twostate", "--coeffs", str(path)) == \
            (1, "", "sheetoptics: config error: --coeffs file nests too deeply\n")


@pytest.mark.parametrize("argv", [
    ["decouple", "--branching", "5"], ["decouple", "--branching", "-3"],
    ["sweep", "--sweep", "n_layers:1:2:2", "--branching", "7"],
    ["sweep", "--stack", "{stack}", "--sweep", "thickness:0:0.5:3", "--branching", "1.5"],
    ["sweep", "--stack", "{stack}", "--sweep", "wavelength_nm:500:700:3", "--branching", "-0.1"],
    ["sweep", "--sweep", "cond:0:1:3", "--branching", "2"],
    ["coeffs", "--branching", "1.01"], ["twostate", "--branching", "-1e-3"],
    ["profile", "--branching", "3"],
], ids=" ".join)
def test_branching_out_of_range(capsys, tmp_path, argv):
    """Every command with --branching rejects a value outside [0, 1] in the
    same words, whether or not it uses the value."""
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
        {"type": "sheet", "cond": 0.02}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
    argv = [str(path) if token == "{stack}" else token for token in argv]
    assert run_cli(capsys, *argv) == \
        (1, "", "sheetoptics: config error: branching ratio must lie in [0, 1]\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--stack", "{stack}", "--sweep", "thickness:0:0.5:2", "--cond", "-5"],
    ["sweep", "--stack", "{stack}", "--sweep", "wavelength_nm:500:700:3", "--cond", "-1e-3"],
    ["sweep", "--sweep", "cond:0:1:3", "--cond", "-2"],
    ["sweep", "--sweep", "n_layers:1:2:2", "--cond", "-5"],
    ["coeffs", "--cond", "-5"], ["twostate", "--cond", "-0.5"], ["profile", "--cond", "-3"],
], ids=" ".join)
def test_cond_out_of_range(capsys, tmp_path, argv):
    """Every command with --cond but decouple (which says "cond must be
    positive") rejects a negative value in the same words, whether or not
    it uses the value."""
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
        {"type": "sheet", "cond": 0.02}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
    argv = [str(path) if token == "{stack}" else token for token in argv]
    assert run_cli(capsys, *argv) == (1, "", "sheetoptics: config error: Re(cond) must be "
                                            ">= 0 (gain sheets are out of scope)\n")


@pytest.mark.parametrize("argv, message", [
    (["decouple", "--cond", "-1", "--branching", "0.5"], "cond must be positive"),
    (["decouple", "--cond", "1e-320"], "cond is too small for a finite layer number"),
], ids=["negative", "too_small"])
def test_decouple_keeps_cond_messages(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"sheetoptics: config error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["profile", "--points", str(10**15)], ["sweep", "--sweep", f"cond:0:1:{10**15}"]],
    ids=["profile", "sweep"])
def test_size_too_large_to_allocate(capsys, argv):
    """A request numpy refuses at once (petabytes) is one config-error line,
    not a traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("sheetoptics: config error: ") and err.count("\n") == 1


class TestStack:
    @pytest.fixture
    def stack_file(self, tmp_path):
        data = {
            "ambient_in": 1.0,
            "ambient_out": [3.882, 0.019],
            "wavelength_nm": 633.0,
            "layers": [
                {"type": "sheet", "cond": 0.0229253, "branching": 1.0,
                 "f_sign": 1, "sign": -1},
                {"type": "slab", "n_re": 1.46, "n_im": 0.0, "d": 0.3},
            ],
        }
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_solves(self, capsys, stack_file):
        doc = run_json(capsys, "stack", "--stack", stack_file)
        assert 0.0 <= doc["R"] <= 1.0
        assert 0.0 <= doc["A"] <= 1.0
        assert len(doc["sheet_fields"]) == 1

    def test_csv_two_real_sheets(self, capsys, tmp_path):
        # Two real sheet fields once passed for one complex number and
        # produced bogus sheet_fields_re/_im columns.
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"layers": [
            {"type": "sheet", "cond": 0.3}, {"type": "sheet", "cond": 0.5}]}))
        code, out, _ = run_cli(capsys, "stack", "--stack", str(path), "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "t,r,R,T,A,R_emission"
        doc = run_json(capsys, "stack", "--stack", str(path))
        assert len(doc["sheet_fields"]) == 2
        assert [float(v) for v in row.split(",")] == [
            doc[key] for key in ("t", "r", "R", "T", "A", "R_emission")]

    def test_csv_complex_columns(self, capsys, stack_file):
        code, out, _ = run_cli(capsys, "stack", "--stack", stack_file, "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        assert header == "t_re,t_im,r_re,r_im,R,T,A,R_emission"
        doc = run_json(capsys, "stack", "--stack", stack_file)
        assert [float(v) for v in row.split(",")[:4]] == doc["t"] + doc["r"]

    def test_one_element_build_per_run(self, capsys, stack_file, monkeypatch):
        """One build of the element matrices, and one computation of the
        slab phases they and the emission ledger share, per command."""
        calls, phase_calls = [], []
        original = stack_mod.element_matrices
        original_phases = stack_mod._Layout.slab_phases

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        def counting_phases(*args, **kwargs):
            phase_calls.append(args)
            return original_phases(*args, **kwargs)

        monkeypatch.setattr(stack_mod, "element_matrices", counting)
        monkeypatch.setattr(stack_mod._Layout, "slab_phases", counting_phases)
        run_json(capsys, "stack", "--stack", stack_file)
        assert (len(calls), len(phase_calls)) == (1, 1)
        code, out, _ = run_cli(capsys, "sweep", "--stack", stack_file,
                               "--sweep", "wavelength_nm:400:700:4")
        assert code == 0
        assert len(out.splitlines()) == 5
        # one build per sweep command
        assert (len(calls), len(phase_calls)) == (1 + 1, 1 + 1)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stack", "--stack", "/no/such/file.json")
        assert code == 2

    def test_wavelength_needs_reference(self, capsys, tmp_path):
        path = tmp_path / "noref.json"
        path.write_text(json.dumps(NO_REFERENCE_STACK))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path),
                                 "--wavelength-nm", "500")
        assert code == 1
        assert out == ""
        assert "--wavelength-nm needs wavelength_nm in the stack file" in err

    SLAB = {"type": "slab", "n_re": 1.46, "d": 0.3}
    SHEET = {"type": "sheet", "cond": 0.1}

    @pytest.mark.parametrize("doc, argv, message", [
        ({"wavelength_nm": 0, "layers": [SLAB]}, ["stack", "--wavelength-nm", "500"],
         "wavelength_nm must be positive, got 0"),
        ({"wavelength_nm": 0, "layers": [SHEET]},
         ["sweep", "--sweep", "wavelength_nm:400:700:3"], "wavelength_nm must be positive"),
        ({"wavelength_nm": -633.0, "layers": [SLAB]}, ["stack"],
         "wavelength_nm must be positive, got -633.0"),
        ({"wavelength_nm": 633.0, "layers": [SLAB]}, ["stack", "--wavelength-nm", "0"],
         "--wavelength-nm must be positive, got 0.0"),
        ({"wavelength_nm": 633.0, "layers": [SLAB]}, ["stack", "--wavelength-nm=-500"],
         "--wavelength-nm must be positive, got -500.0"),
        ({"wavelength_nm": 633.0, "layers": [SHEET, SLAB]},
         ["sweep", "--sweep", "thickness:0:0.5:3", "--wavelength-nm", "0"],
         "--wavelength-nm must be positive"),
        ({"wavelength_nm": 633.0, "layers": [SHEET, SLAB]},
         ["sweep", "--sweep", "wavelength_nm:-100:700:3"],
         "wavelength_nm sweep value must be positive, got -100.0"),
    ], ids=["zero_reference", "zero_reference_sheet_sweep", "negative_reference",
            "zero_option", "negative_option", "zero_option_thickness_sweep",
            "negative_sweep_value"])
    def test_non_positive_wavelength(self, capsys, tmp_path, doc, argv, message):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--stack", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("sheetoptics: config error: ")
        assert message in err

    @pytest.mark.parametrize("doc, field", [
        ({"layers": [1]}, "layers[0]"),
        ({"layers": {"type": "sheet"}}, "layers"),
        ({"layers": [{"type": "slab"}]}, "layers[0].d"),
        ({"layers": [{"type": "slab", "d": 0.1, "n_re": None}]}, "layers[0].n_re"),
        ({"layers": [], "wavelength_nm": [1]}, "wavelength_nm"),
        ({"layers": [{"type": "sheet", "cond": 10 ** 400}]}, "layers[0].cond"),
        ({"layers": [{"type": "sheet", "cond": [0.1, -10 ** 400]}]}, "layers[0].cond"),
        ({"layers": [], "ambient_in": 10 ** 400}, "ambient_in"),
        ({"layers": [], "ambient_out": [10 ** 400, 0]}, "ambient_out"),
        ({"layers": [{"type": "sheet", "sign": 1.5}]}, "layers[0].sign"),
        ({"layers": [{"type": "slab", "d": 0.1}, {"type": "sheet", "f_sign": -1.9}]},
         "layers[1].f_sign"),
        ({"layers": [{"type": "sheet", "f_sign": 1}, {"type": "sheet", "sign": "-0.5"}]},
         "layers[1].sign"),
        ({"layers": [{"type": "sheet"}, {"type": "slab", "d": "1_0"}]}, "layers[1].d"),
        ({"layers": [{"type": "sheet", "branching": " 0.5 "}]}, "layers[0].branching"),
        ({"layers": [{"type": "sheet", "sign": "1"}]}, "layers[0].sign"),
        ({"layers": [], "wavelength_nm": "633"}, "wavelength_nm"),
        ({"layers": [{"type": "sheet", "cond": ["0.05", 0.02]}]}, "layers[0].cond"),
    ], ids=["layer_not_object", "layers_not_list", "slab_without_d",
            "null_index", "list_wavelength", "huge_int_cond", "huge_int_cond_pair",
            "huge_int_ambient_in", "huge_int_ambient_out", "fractional_sign",
            "fractional_f_sign", "fractional_sign_string", "numeric_string_d",
            "numeric_string_branching", "numeric_string_sign", "numeric_string_wavelength",
            "numeric_string_cond_pair"])
    def test_malformed_file(self, capsys, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"sheetoptics: config error: {field} ")

    DEEP_SHEET = {"type": "sheet", "cond": 0.02, "branching": 0.5, "f_sign": 1, "sign": -1}
    DEEP_SLAB = {"type": "slab", "n_re": 1.46, "n_im": 0.01, "d": 0.2}

    @pytest.mark.parametrize("bad, message", [
        ({731: {**DEEP_SLAB, "n_re": "x"}}, "layers[731].n_re must be a number, got 'x'"),
        ({400: {**DEEP_SHEET, "branching": "x"}, 601: {**DEEP_SLAB, "n_re": None}},
         "layers[400].branching must be a number, got 'x'"),
        ({599: {"type": "slab"}}, "layers[599].d is required"),
        ({512: {"type": "mirror"}}, "layers[512].type must be 'sheet' or 'slab', got 'mirror'"),
        ({100: 3}, "layers[100] must be an object, got 3"),
        ({204: {**DEEP_SHEET, "cond": [0.1, float("nan")]}},
         "layers[204].cond must be finite, got [0.1, nan]"),
        ({733: {**DEEP_SLAB, "n_re": -1.0}}, "layers[733]: Re(n) must be > 0"),
        ({202: {**DEEP_SHEET, "sign": 0}}, "layers[202]: sheet emission sign must be +1 or -1"),
        ({305: {**DEEP_SLAB, "n_im": -0.5}, 700: {**DEEP_SLAB, "n_re": -1.0}},
         "layers[305]: Im(n) must be >= 0 (absorbing or lossless only)"),
        ({411: {**DEEP_SLAB, "d": -0.1}}, "layers[411]: slab thickness must be >= 0"),
        ({88: {**DEEP_SHEET, "branching": 1.5}}, "layers[88]: branching ratio must lie in [0, 1]"),
        ({90: {**DEEP_SHEET, "branching": -0.5}},
         "layers[90]: branching ratio must lie in [0, 1]"),
        ({652: {**DEEP_SHEET, "cond": [-0.1, 0.2]}},
         "layers[652]: Re(cond) must be >= 0 (gain sheets are out of scope)"),
        ({798: {**DEEP_SHEET, "f_sign": 3}}, "layers[798]: f_sign must be +1 or -1"),
        ({4: {**DEEP_SHEET, "sign": 3}}, "layers[4]: sheet emission sign must be +1 or -1"),
    ], ids=["not_a_number", "first_of_two", "no_d", "unknown_type", "not_an_object",
            "nan_cond", "index_range", "sign_range", "n_im_range", "d_range",
            "branching_above", "branching_below", "cond_range", "f_sign_range",
            "sign_3"])
    def test_malformed_deep_layer(self, capsys, tmp_path, bad, message):
        """A bad entry far into a long list is named by its own index."""
        layers = [self.DEEP_SHEET, self.DEEP_SLAB] * 400
        for i, entry in bad.items():
            layers[i] = entry
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"layers": layers}))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 1
        assert out == ""
        assert err == f"sheetoptics: config error: {message}\n"

    @pytest.mark.parametrize("ambient", ["ambient_in", "ambient_out"])
    def test_ambient_range_names_its_field(self, capsys, tmp_path, ambient):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"layers": [self.DEEP_SHEET, self.DEEP_SLAB] * 400,
                                    ambient: [-1.0, 0.0]}))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path))
        assert (code, out) == (1, "")
        assert err == f"sheetoptics: config error: {ambient}: Re(n) must be > 0\n"

    def test_singular_stack_one_stderr_line(self, capsys, tmp_path):
        """A graphene sheet on a 1e4 wavelength Si slab overflows the
        product: the error is the only line on stderr, with no numpy
        warnings before it."""
        path = tmp_path / "thick.json"
        path.write_text(json.dumps({"layers": [
            {"type": "sheet", "cond": 0.0229253},
            {"type": "slab", "n_re": 3.882, "n_im": 0.019, "d": 1.0e4}]}))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 3
        assert out == ""
        assert err == ("sheetoptics: numerical error: "
                       "stack transfer matrix is numerically singular\n")

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 1

    @pytest.mark.parametrize("depth", [1500, 5000])
    def test_nests_too_deeply(self, capsys, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text("[" * depth)
        assert run_cli(capsys, "stack", "--stack", str(path)) == \
            (1, "", "sheetoptics: config error: stack file nests too deeply\n")


class TestSweep:
    def test_layer_sweep_minimum_at_87(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", "n_layers:1:200:200", "--cond", GRAPHENE
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "n_layers"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 200
        residuals = [float(row[-1]) for row in rows]
        assert residuals.index(min(residuals)) + 1 == 87

    def test_single_step_matches_point_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "cond:0.5:0.5:1"
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        doc = run_json(capsys, "coeffs", "--cond", "0.5")
        assert float(row[1]) == doc["t"]
        assert float(row[3]) == doc["r"]

    def test_wavelength_sweep_sheet_only_constant(self, capsys, tmp_path):
        data = {"wavelength_nm": 633.0,
                "layers": [{"type": "sheet", "cond": 0.0229253}]}
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "wavelength_nm:400:700:7",
            "--stack", str(path),
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        t_values = {row[1] for row in rows}
        r_values = {row[3] for row in rows}
        assert len(t_values) == 1
        assert len(r_values) == 1

    def test_parallel_equals_serial(self, capsys):
        _, serial, _ = run_cli(
            capsys, "sweep", "--sweep", "cond:0:5:101", "--jobs", "1"
        )
        _, parallel, _ = run_cli(
            capsys, "sweep", "--sweep", "cond:0:5:101", "--jobs", "4"
        )
        assert serial == parallel

    def test_negative_thickness(self, capsys, tmp_path):
        path = tmp_path / "slab.json"
        path.write_text(json.dumps({"layers": [
            {"type": "sheet", "cond": 0.1}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
        code, out, err = run_cli(capsys, "sweep", "--stack", str(path),
                                 "--sweep", "thickness:-0.1:0.3:5")
        assert code == 1
        assert out == ""
        assert "slab thickness must be >= 0" in err

    def test_sweep_start_not_a_number(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--sweep", "cond:a:1:3")
        assert code == 1
        assert out == ""
        assert err == ("sheetoptics: config error: bad sweep spec 'cond:a:1:3': "
                       "could not convert string to float: 'a'\n")

    def test_thickness_sweep_needs_a_slab(self, capsys, tmp_path):
        path = tmp_path / "sheets.json"
        path.write_text(json.dumps({"layers": [{"type": "sheet", "cond": 0.1}] * 2}))
        code, out, err = run_cli(capsys, "sweep", "--stack", str(path),
                                 "--sweep", "thickness:0:1:3")
        assert code == 1
        assert out == ""
        assert err == "sheetoptics: config error: thickness sweep needs a slab in the stack\n"

    def test_wavelength_sweep_needs_reference(self, capsys, tmp_path):
        path = tmp_path / "noref.json"
        path.write_text(json.dumps(NO_REFERENCE_STACK))
        code, out, err = run_cli(capsys, "sweep", "--stack", str(path),
                                 "--sweep", "wavelength_nm:400:700:3")
        assert code == 1
        assert out == ""
        # the message names the sweep, not an option that was not passed
        assert err == ("sheetoptics: config error: wavelength_nm sweep needs "
                       "wavelength_nm in the stack file\n")
        assert "--wavelength-nm" not in err

    # R_emission_unclamped exceeds 1 on 3 of the 21 rows of 250-750 nm
    CLAMPING = {"wavelength_nm": 500.0, "layers": [
        {"type": "sheet", "cond": 0.418}, {"type": "slab", "n_re": 1.14, "d": 0.26},
        {"type": "sheet", "cond": 1.901}, {"type": "slab", "n_re": 2.88, "d": 0.1}]}

    def test_clamped_emission_rows(self, capsys, tmp_path):
        """A row whose R_emission exceeds 1 reads exactly 1, with one warning
        per such row, in row order; every other row reads its lone solve."""
        path = tmp_path / "clamping.json"
        path.write_text(json.dumps(self.CLAMPING))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "sweep", "--stack", str(path),
                                     "--sweep", "wavelength_nm:250:750:21")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        stk, reference_nm = stack_mod.load_stack(path)
        lone = [stack_mod.solve_stack(stk, float(row["wavelength_nm"]) / reference_nm)
                for row in rows]
        over = [s.R_emission_unclamped for s in lone if s.R_emission_unclamped > 1.0]
        assert len(rows) == 21 and len(over) == 3
        for row, s in zip(rows, lone):
            if s.R_emission_unclamped > 1.0:
                assert row["R_emission"] == "1"
            else:
                assert float(row["R_emission"]) == s.R_emission
        clamped = [w for w in caught
                   if issubclass(w.category, UserWarning) and "clamped" in str(w.message)]
        assert len(clamped) == len(caught) == len(over)
        for w, value in zip(clamped, over):
            assert f"reflectance {value!r} > 1 clamped" in str(w.message)

    ABSORBING = {"wavelength_nm": 633.0, "ambient_out": [1.46, 0.0], "layers": [
        {"type": "sheet", "cond": [0.05, 0.02], "sign": 1},
        {"type": "slab", "n_re": 1.46, "n_im": 0.01, "d": 0.3},
        {"type": "sheet", "cond": 0.0229253}]}
    # r = -0.1304... - 0j at zero thickness: the stack sweep writes +0
    SIGNED_ZERO = {"layers": [{"type": "sheet", "cond": 0.3},
                              {"type": "slab", "n_re": 1.0, "d": 0.3}]}

    @pytest.mark.parametrize("variable, spec, extra, doc", [
        ("cond", "cond:0:3:7", ["--branching", "0.4", "--f-sign", "-1"], None),
        ("n_layers", "n_layers:1:9:6", ["--cond", "0.3"], None),
        ("wavelength_nm", "wavelength_nm:400:700:5", [], ABSORBING),
        ("thickness", "thickness:0:0.5:6", [], ABSORBING),
        ("thickness", "thickness:0:0.5:6", [], SIGNED_ZERO),
        # long enough for floattext to write the floats
        ("cond", "cond:0:2:2000", ["--branching", "0.4", "--f-sign", "-1"], None),
        ("n_layers", "n_layers:1:2000:2000", ["--cond", "0.3"], None),
    ], ids=["cond", "n_layers", "wavelength_nm", "thickness", "thickness_signed_zero",
            "cond_2000", "n_layers_2000"])
    def test_matches_row_reference(self, capsys, tmp_path, variable, spec, extra, doc):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps(doc))
        argv = ["sweep", "--sweep", spec, *extra]
        if doc is not None:
            argv += ["--stack", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        _, start, stop, steps = spec.split(":")
        cond = 0.3 if variable == "n_layers" else None
        branching, f_sign = (0.4, -1) if variable == "cond" else (1.0, 1)
        header, rows = reference_sweep_rows(
            variable, np.linspace(float(start), float(stop), int(steps)),
            cond, branching, f_sign, str(path))
        assert out == reference_table(header, rows)

    @pytest.mark.parametrize("argv, option", [
        (["--sweep", "cond:0:1:2", "--stack", "{file}", "--wavelength-nm", "-5"], "--stack"),
        (["--sweep", "n_layers:1:3:3", "--stack", "{file}"], "--stack"),
        (["--sweep", "wavelength_nm:400:700:2", "--stack", "{file}", "--wavelength-nm", "0"],
         "--wavelength-nm"),
        (["--sweep", "wavelength_nm:400:700:2", "--stack", "{file}", "--wavelength-nm", "500"],
         "--wavelength-nm"),
        (["--sweep", "cond:0:1:2", "--wavelength-nm", "500"], "--wavelength-nm"),
        (["--sweep", "n_layers:1:3:3", "--wavelength-nm", "500"], "--wavelength-nm"),
    ], ids=["cond_stack", "n_layers_stack", "wavelength_zero", "wavelength_option",
            "cond_wavelength", "n_layers_wavelength"])
    def test_rejects_options_that_do_not_apply(self, capsys, tmp_path, argv, option):
        path = tmp_path / "stack.json"
        path.write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
            {"type": "sheet", "cond": 0.1}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
        argv = [str(path) if a == "{file}" else a for a in argv]
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 1
        assert out == ""
        variable = argv[1].split(":")[0]
        assert err == f"sheetoptics: config error: {option} does not apply to --sweep {variable}\n"

    def test_bad_spec(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "cond:1:0:5")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "cond:0:1:0")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "volume:0:1:2")
        assert code == 1
        code, _, err = run_cli(capsys, "sweep", "--sweep", "")
        assert (code, err) == (1, "sheetoptics: config error: --sweep expects var:start:stop:steps\n")

    def test_deterministic(self, capsys):
        outs = [
            run_cli(capsys, "sweep", "--sweep", "cond:0:3:50")[1]
            for _ in range(2)
        ]
        assert outs[0] == outs[1]


class TestProfile:
    def test_a_profile_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--which", "a", "--cond", GRAPHENE,
            "--points", "10", "--x-max", "2",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("x,re_right")

    @pytest.mark.parametrize("option", ["--b-r", "--b-l"])
    def test_a_profile_rejects_emission_amplitudes(self, capsys, option):
        code, out, err = run_cli(capsys, "profile", "--which", "a", option, "0.1")
        assert (code, out) == (1, "")
        assert err == f"sheetoptics: config error: {option} does not apply to --which a\n"

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_long_profile_matches_row_reference(self, capsys, which):
        """Chunks of 1024 rows and a short last one, each with the float
        cells from floattext."""
        code, out, err = run_cli(capsys, "profile", "--which", which, "--points", "30000",
                                 "--cond", "0.3", "--branching", "0.4", "--k", "1.3")
        assert code == 0, err
        params = surface.SheetParams(cond=0.3, branching=0.4)
        coeffs = surface.solve_single_sheet(params)
        grid = np.linspace(-5.0, 5.0, 30001)
        if which == "a":
            profile = eval_a(coeffs.t, coeffs.r, grid, k=1.3)
        else:
            emission = surface.emission_amplitude(params, coeffs)
            profile = eval_b(emission.b_r, emission.b_l, grid, k=1.3)
        assert out == reference_profile_csv(profile)

    @pytest.mark.parametrize("argv", [["--which", "a"],
                                      ["--which", "b", "--b-r", "0.25", "--b-l", "-0.75"]],
                             ids=["a", "b_override"])
    def test_runs_across_chunks(self, capsys, argv):
        """Chunks of 1024, 1024 and 954 rows, each with the float cells from
        floattext: the runs of 1.0, of t and of the override amplitudes in
        the envelope columns cross the chunk boundaries."""
        code, out, err = run_cli(capsys, "profile", *argv, "--points", "3000")
        assert code == 0, err
        grid = np.linspace(-5.0, 5.0, 3001)
        if argv[1] == "a":
            coeffs = surface.solve_single_sheet(surface.SheetParams())
            profile = eval_a(coeffs.t, coeffs.r, grid)
        else:
            profile = eval_b(0.25, -0.75, grid)
        assert out == reference_profile_csv(profile)

    def test_antisymmetric_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--which", "b", "--b-r", "0.1", "--b-l", "-0.1",
            "--points", "4", "--x-max", "1",
        )
        assert code == 0
        minus_row = [l for l in out.splitlines() if l.endswith("minus")][0]
        assert float(minus_row.split(",")[3]) == pytest.approx(-0.1)

    def test_negative_zero_override_keeps_its_sign(self, capsys):
        """An explicit ``--b-r -0.0`` is -0 on the plus side and right of it."""
        code, out, err = run_cli(capsys, "profile", "--which", "b", "--b-r", "-0.0",
                                 "--b-l", "0.25", "--points", "4", "--x-max", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[3:] == [
            "0,0,0,0.25,0,0.125,0,-0.125,0,minus",
            "0,-0,0,0,0,0,0,0,0,plus",
            "0.5,-0,0,0,0,0,0,0,0,bulk",
            "1,-0,0,0,0,0,0,0,0,bulk"]

    def test_json_format_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "profile", "--format", "json")
        assert code == 1

    def test_header_and_side_tags(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--which", "a", "--cond", "0.5",
                               "--points", "4", "--x-max", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("x,re_right,im_right,re_left,im_left,"
                            "re_polar,im_polar,re_axial,im_axial,side")
        sides = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert sides.count("minus") == 1
        assert sides.count("plus") == 1
        assert set(sides) == {"minus", "plus", "bulk"}

    @pytest.mark.parametrize("points", [0, -1, -2])
    def test_points_below_one(self, capsys, points):
        code, out, err = run_cli(capsys, "profile", f"--points={points}")
        assert code == 1
        assert out == ""
        assert err == f"sheetoptics: config error: --points must be >= 1, got {points}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--x-max", "0"], "--x-max must be > 0, got 0.0"),
        (["--x-max", "-1e3"], "--x-max must be > 0, got -1000.0"),
        (["--x-max=-0.0"], "--x-max must be > 0, got -0.0"),
        (["--x-max", "5e-324", "--points", "200"],
         "--x-max 5e-324 with --points 200 gives no strictly increasing grid"),
        (["--x-max", "1e308"],
         "--x-max 1e+308 with --points 200 gives no strictly increasing grid"),
        (["--k", "1e308"], "--k 1e+308 with --x-max 5.0 overflows the phase k*x"),
        (["--k", "-1e308", "--x-max", "2"],
         "--k -1e+308 with --x-max 2.0 overflows the phase k*x"),
    ], ids=["zero", "negative", "negative_zero", "collapsed", "overflowed",
            "phase_overflowed", "negative_phase_overflowed"])
    def test_bad_x_max(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "profile", *argv)
        assert (code, out, err) == (1, "", f"sheetoptics: config error: {message}\n")

    def test_smallest_x_max_that_fits(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--x-max", "5e-324", "--points", "1")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_largest_k_that_fits(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--k", "3e307", "--points", "3")
        assert code == 0
        assert "nan" not in out

    def test_deterministic(self, capsys):
        argv = ["profile", "--which", "b", "--b-r", "0.123456789", "--b-l", "-0.5"]
        outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
        assert outs[0] == outs[1]

    @settings(deadline=None)
    @given(which=st.sampled_from(["a", "b"]),
           points=st.integers(1, 41),
           x_max=st.floats(1e-3, 50.0),
           k=st.floats(-5.0, 5.0),
           cond=st.floats(0.0, 5.0),
           b_r=st.none() | st.floats(-1.0, 1.0),
           b_l=st.none() | st.floats(-1.0, 1.0))
    def test_matches_row_reference(self, which, points, x_max, k, cond, b_r, b_l):
        argv = ["profile", "--which", which, "--points", str(points),
                f"--x-max={x_max!r}", f"--k={k!r}", f"--cond={cond!r}"]
        argv += [] if b_r is None else [f"--b-r={b_r!r}"]
        argv += [] if b_l is None else [f"--b-l={b_l!r}"]
        out = io.StringIO()
        if which == "a" and (b_r is not None or b_l is not None):
            # an emission amplitude does not apply to the (a) profile
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 1
            return
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0

        params = surface.SheetParams(cond=cond)
        coeffs = surface.solve_single_sheet(params)
        grid = np.linspace(-x_max, x_max, points + 1)
        if which == "a":
            profile = eval_a(coeffs.t, coeffs.r, grid, k=k)
        elif b_r is None and b_l is None:
            emission = surface.emission_amplitude(params, coeffs)
            profile = eval_b(emission.b_r, emission.b_l, grid, k=k)
        else:
            profile = eval_b(0.0 if b_r is None else b_r, 0.0 if b_l is None else b_l,
                             grid, k=k)
        assert out.getvalue() == reference_profile_csv(profile)


class TestOutputFile:
    def test_no_file_on_error(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        stack = tmp_path / "slab.json"
        stack.write_text(json.dumps({"layers": [{"type": "slab", "n_re": 1.5, "d": 0.2}]}))
        code, out, err = run_cli(capsys, "sweep", "--stack", str(stack), "--sweep",
                                 "thickness:-0.1:0.3:5", "--out", str(path))
        assert code == 1
        assert not path.exists()

    def test_run_computes_before_returning(self, tmp_path):
        stack = tmp_path / "slab.json"
        stack.write_text(json.dumps({"layers": [{"type": "slab", "n_re": 1.5, "d": 0.2}]}))
        args = _checked_args(build_parser().parse_args(
            ["sweep", "--stack", str(stack), "--sweep", "thickness:-0.1:0.3:5"]))
        with pytest.raises(ValueError, match="slab thickness must be >= 0"):
            run(args)

    def test_csv_in_chunks(self):
        argv = ["profile", "--which", "b", "--points", "3000"]
        chunks = list(run(_checked_args(build_parser().parse_args(argv))))
        # the header, then pieces of whole rows, each a str from the
        # small-object allocator (under 512 bytes) unless it is one row
        assert chunks[0] == ",".join(PROFILE_HEADER) + "\n"
        assert len(chunks) > 1 + 3002 // cli._CSV_CHUNK_ROWS
        for piece in chunks[1:]:
            assert piece.endswith("\n")
            assert sys.getsizeof(piece) < 512 or piece.count("\n") == 1
        params = surface.SheetParams()
        emission = surface.emission_amplitude(params, surface.solve_single_sheet(params))
        profile = eval_b(emission.b_r, emission.b_l, np.linspace(-5.0, 5.0, 3001))
        assert "".join(chunks) == reference_profile_csv(profile)

    def test_closed_stdout_is_quiet(self):
        """A reader that stops after the first line, as ``| head -1`` does,
        cuts the output short: exit code 2 and nothing on stderr, not even
        from the interpreter's shutdown flush."""
        with subprocess.Popen([sys.executable, "-m", "sheetoptics.cli", "profile",
                               "--points", "30000"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=cli_env()) as proc:
            header = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert header == (",".join(PROFILE_HEADER) + "\n").encode()
        assert (code, err) == (2, b"")

    def test_out_error_keeps_message(self, capsys, tmp_path):
        path = tmp_path / "no_such_dir" / "out.csv"
        code, out, err = run_cli(capsys, "profile", "--points", "30", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("sheetoptics: i/o error: ") and str(path) in err

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "coeffs", "--cond", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["t"] == pytest.approx(0.8)


def cli_env() -> dict:
    """The environment in which ``python -m sheetoptics.cli`` imports this
    checkout's package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv", [["coeffs"], ["decouple", "--cond", "-1"]],
                         ids=["coeffs", "config_error"])
def test_python_dash_m_runs_main(capsys, argv):
    done = subprocess.run([sys.executable, "-m", "sheetoptics.cli", *argv],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    code, out, _ = run_cli(capsys, *argv)
    assert (done.returncode, done.stdout) == (code, out)


def subcommands(parser):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [name for action in actions for name in action.choices]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and --version
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Argv of a subcommand that its option table reads, and argv that it
#: declines to argparse: no subcommand, help, abbreviations, errors.
READ = [
    ["coeffs"], ["coeffs", "--cond", "0.5", "--format", "csv"], ["coeffs", "--cond", "-inf"],
    ["twostate", "--overlap", "0.1"], ["twostate", "--overlap", "-1e-3"],
    ["sweep", "--sweep", "cond:0:1:3"], ["sweep", "--sweep", "n_layers:1:4:4", "--jobs", "2"],
    ["decouple", "--cond", "-1"], ["profile", "--points", "3", "--which", "b"],
    ["profile", "--points", "3", "--x-max", "-1E3"],
]
PARSED = [
    [], ["nosuch"], ["--version"], ["-h"], ["--", "coeffs"], ["coeffs", "--con", "0.5"],
    ["coeffs", "--bogus"], ["coeffs", "--cond"], ["coeffs", "--version"],
    ["coeffs", "twostate"], ["twostate", "--f-sign", "2"], ["stack"], ["sweep"],
    ["profile", "--points", "x"], ["profile", "--which", "c"],
    *([name, "-h"] for name in ("coeffs", "twostate", "stack", "sweep", "decouple", "profile")),
]


class TestParserPerCommand:
    """``main`` reads a subcommand's argv from its option table or parses
    it with the whole parser; every argv must come out as it does with the
    whole parser alone."""

    def test_subcommands(self):
        assert subcommands(build_parser()) == [
            "coeffs", "twostate", "stack", "sweep", "decouple", "profile"]

    @pytest.mark.parametrize("argv", READ + PARSED,
                             ids=lambda argv: " ".join(argv) or "empty")
    def test_same_as_whole_parser(self, capsys, monkeypatch, argv):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build_parser())
        got = outcome(capsys, argv)
        # the option table reads READ; any other argv builds the whole parser
        assert built == ([] if argv in READ else [None])
        # main again, with the whole parser parsing all of argv:
        # _checked_args(build_parser().parse_args(argv)), then run
        monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        assert got == outcome(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--cond", "0.5", "--"], ["coeffs", "--"],
        ["profile", "--points", "3", "--"], ["coeffs", "--out", "--"]],
        ids=" ".join)
    def test_trailing_double_dash(self, capsys, argv):
        """A trailing ``--`` ends a subcommand's options: the outcome is that
        of the argv without it (the whole parser rejects it on Python 3.11)."""
        got = outcome(capsys, argv)
        assert got == outcome(capsys, argv[:-1])
        assert "unrecognized arguments" not in got[2]


def option_argv(command):
    """Strategy: up to 8 argv tokens after ``command``: flag-value pairs of
    its options, with values in many spellings, and at times one odd item
    among them: ``--flag=value``, a prefix of a flag, an unknown flag or a
    lone token."""
    flags = [option.flag for option in cli._SUBCOMMANDS[command][1]]
    values = st.sampled_from([
        "0.5", "3", "-1", "1", "2", "1.0", "-0.0", "-1e-3", "-2.5E+1", "1e308", "-.5e0",
        "-1.", "inf", "-inf", "-Infinity", "nan", "-nan", "a", "b", "c", "csv", "json",
        "", "-", "-x", "--", "-1 2", "-1\n", "1_000", "cond:0:1:3",
        *flags]) | st.floats().map(repr) | st.integers(-5, 5).map(str)
    flag = st.sampled_from(flags)
    odd = st.one_of(
        st.tuples(flag),
        st.tuples(st.builds("{}={}".format, flag, values)),
        st.tuples(flag.map(lambda f: f[:-1]), values),
        st.tuples(st.sampled_from(["--bogus", "-h", "--help", "--version"]), values))
    pairs = st.lists(st.tuples(flag, values), max_size=4)
    return st.builds(lambda pairs, odd, at: [t for i in pairs[:at] + odd + pairs[at:]
                                             for t in i][:8],
                     pairs, st.lists(odd, max_size=1), st.integers(0, 4))


def items(namespace) -> str:
    """The items of a namespace in order, nan and -0.0 told apart."""
    return repr(list(vars(namespace).items()))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_read_agrees_with_argparse(data):
    """The option table reads an argv as the whole parser does, or declines
    it; it declines every argv the parser rejects."""
    command = data.draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    options = data.draw(option_argv(command))
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = build_parser().parse_args([command, *options])
    except (cli.CliConfigError, SystemExit):
        expected = None
    got = cli._read(command, options)
    if got is not None:
        assert expected is not None
        assert items(got) == items(expected)


@pytest.mark.parametrize("argv", [
    ["coeffs", "--cond", "0.5", "--branching", "0.8", "--f-sign", "-1", "--format", "csv"],
    ["twostate", "--cond", "0.1", "--overlap", "-0.42", "--energy-unit", "2.5"],
    ["twostate", "--coeffs", "{coeffs}"],
    ["decouple", "--cond", "0.01"],
    ["sweep", "--sweep", "cond:0:2:5", "--format", "csv"],
    ["sweep", "--sweep", "n_layers:1:5:5", "--cond", "0.1"],
    ["profile", "--which", "b", "--points", "50", "--x-max", "2.5", "--k", "-1.5",
     "--b-r", "-0.2", "--b-l", "0.3"],
    ["stack", "--stack", "{stack}", "--wavelength-nm", "700.0", "--format", "csv"],
    ["sweep", "--stack", "{stack}", "--sweep", "wavelength_nm:500:700:5", "--jobs", "2"],
    ["sweep", "--stack", "{stack}", "--sweep", "thickness:0:0.5:7"],
], ids=" ".join)
def test_workload_argv_builds_no_parser(capsys, tmp_path, monkeypatch, argv):
    """The argv shapes of the benchmark's commands are read from the option
    table alone."""
    files = {"{coeffs}": tmp_path / "coeffs.json", "{stack}": tmp_path / "stack.json"}
    files["{coeffs}"].write_text(json.dumps({"t": 0.9, "r": -0.1, "b": 0.2}))
    files["{stack}"].write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
        {"type": "sheet", "cond": 0.02}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
    argv = [str(files.get(token, token)) for token in argv]
    monkeypatch.setattr(cli, "build_parser", mock.Mock(side_effect=AssertionError))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command, option, value", [
    ("twostate", "--overlap", "-1e-3"), ("twostate", "--energy-unit", "-2.5E+1"),
    ("twostate", "--overlap", "-nan"), ("coeffs", "--cond", "-.5e0"),
    ("coeffs", "--branching", "-1."), ("coeffs", "--cond", "-inf"),
    ("coeffs", "--cond", "-Infinity"), ("profile", "--x-max", "-1e3")])
def test_negative_value_after_option(capsys, command, option, value):
    """A negative value in any form float reads is the option's value, as
    in the --opt=value form."""
    spaced = outcome(capsys, [command, option, value])
    assert spaced == outcome(capsys, [command, f"{option}={value}"])
    assert "expected one argument" not in spaced[2]


def test_top_level_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(capsys, ["-h"]) == (("exit", 0), """\
usage: sheetoptics [-h] [--version]
                   {coeffs,twostate,stack,sweep,decouple,profile} ...

Scattering, absorption and emission of atomically thin conducting sheets and
their stacks: single-sheet coefficients, two-state diagnostics, transfer-
matrix stacks, sweeps, the decoupling layer number and field profiles.

positional arguments:
  {coeffs,twostate,stack,sweep,decouple,profile}
    coeffs              single-sheet coefficients and absorbance
    twostate            two-state diagnostics for one sheet
    stack               transfer-matrix solution of a stack file
    sweep               parameter sweep, CSV table
    decouple            t + r = 0 layer-number search
    profile             field profile and gauge decomposition CSV

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit

exit codes: 0 success, 1 configuration error, 2 file I/O error, 3 numerical
error
""", "")


json_parts = st.one_of(st.just(0.0), st.just(-0.0), st.floats(),
                       st.sampled_from([5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                                        -1e300, 1e-300, 1e16, 123456789.0]))


@st.composite
def json_vectors(draw):
    """A complex vector of up to 8 elements, empty ones too, with signed
    zero and non-finite parts."""
    parts = draw(st.lists(st.tuples(json_parts, json_parts | st.sampled_from([0.0, -0.0])),
                          max_size=8))
    vector = np.empty(len(parts), dtype=complex)
    vector.real, vector.imag = [re for re, _ in parts], [im for _, im in parts]
    return vector


json_complexes = st.builds(complex, json_parts, json_parts | st.sampled_from([0.0, -0.0]))
json_values = st.one_of(
    st.text(max_size=6), st.none(), st.booleans(),
    st.integers() | st.integers(2**63, 2**200) | st.integers(-2**200, -2**63),
    json_parts, json_complexes, json_parts.map(np.float64), json_vectors())


def json_reference(value):
    """json.dumps' ``default`` for the values of a document that json has no
    type for: a complex number in the codec's form, an array as a list."""
    if isinstance(value, complex):
        return encode_complex(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@settings(max_examples=300, deadline=None)
@given(doc=st.dictionaries(
    st.text(max_size=8),
    json_values | st.dictionaries(st.text(max_size=6), json_values, min_size=1, max_size=10),
    min_size=1, max_size=8))
def test_json_emitter_matches_json_dumps(doc):
    """Documents shaped as the commands write them, a non-empty object that
    may hold one level of non-empty objects, of every value type a result
    holds: strings with escapes and non-ASCII characters, None, bools, ints
    beyond 2**63, floats with signed zeros, subnormals, huge exponents and
    non-finite values, numpy float64 scalars, complex numbers with zero and
    non-zero imaginary parts, and 1-D complex arrays, empty ones too."""
    text = json.dumps(doc, indent=2, default=json_reference) + "\n"
    assert "".join(_json_chunks(doc)) == text


@pytest.mark.parametrize("value", [[1.0], (1.0,), {}, np.zeros(3), np.array(1j),
                                   np.zeros((2, 2), dtype=complex), object()],
                         ids=["list", "tuple", "empty_dict", "float_vector", "0d_array",
                              "2d_array", "object"])
def test_json_emitter_rejects_values_no_command_writes(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        "".join(_json_chunks({"tool_version": "0.1.0", "config_echo": {"value": value}}))


@st.composite
def long_json_vectors(draw, cells):
    """A complex vector of ``cells // 2`` elements: each part a drawn value
    of ``json_parts`` or an integral float, a random float64 bit pattern or
    a scaled normal; a quarter of the imaginary parts +0 or -0."""
    pool = draw(st.lists(json_parts | st.integers(-2**60, 2**60).map(float),
                         min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = cells // 2

    def part():
        bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
        scaled = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        source = rng.integers(0, 3, size)
        return np.choose(source, [rng.choice(np.array(pool), size), bits, scaled])

    vector = np.empty(size, dtype=complex)
    vector.real, vector.imag = part(), part()
    zero = rng.random(size) < 0.25
    vector.imag[zero] = rng.choice([0.0, -0.0], zero.sum())
    return vector


@pytest.mark.parametrize("cells", [cli._KERNEL_CELLS - 1, cli._KERNEL_CELLS, 2400],
                         ids=["below_kernel", "at_kernel", "long"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_long_json_vectors_match_json_dumps(cells, data):
    """Vectors on both sides of the float kernel's crossover and well past
    it, where floattext.shortest writes their floats, in the document and
    in an object of it: the bytes of json.dumps."""
    vector = data.draw(long_json_vectors(cells))
    doc = {"tool_version": "0.1.0", "R": 0.25, "sheet_fields": vector,
           "nested": {"sheet_fields": vector}, "degenerate": False}
    text = json.dumps(doc, indent=2, default=json_reference) + "\n"
    assert "".join(_json_chunks(doc)) == text


def test_deep_stack_json_matches_json_dumps(capsys, tmp_path):
    """`stack` on a seeded 1200-pair file prints json.dumps of its result:
    2400 float cells of sheet_fields, written by the float kernel."""
    rng = np.random.default_rng(1200)
    layers = []
    for _ in range(1200):
        layers.append({"type": "sheet", "cond": [rng.uniform(0.005, 0.05), rng.uniform(0.0, 0.01)],
                       "branching": rng.uniform(0.2, 1.0), "sign": int(rng.choice([1, -1]))})
        layers.append({"type": "slab", "n_re": rng.uniform(1.3, 2.5),
                       "n_im": float(rng.choice([0.0, rng.uniform(1e-3, 2e-2)])),
                       "d": rng.uniform(0.05, 0.5)})
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"wavelength_nm": 633.0, "ambient_out": [1.46, 0.0],
                                "layers": layers}))
    code, out, err = run_cli(capsys, "stack", "--stack", str(path))
    assert (code, err) == (0, "")
    solution = stack_mod.solve_stack(stack_mod.load_stack(path)[0])
    doc = json.loads(out)
    doc.update(t=solution.t, r=solution.r, R=solution.R, T=solution.T, A=solution.A,
               R_emission=solution.R_emission, sheet_fields=solution.sheet_fields)
    assert len(solution.sheet_fields) * 2 >= cli._KERNEL_CELLS
    assert out == json.dumps(doc, indent=2, default=json_reference) + "\n"


#: Bit patterns of +0, -0, +inf, -inf, a quiet nan, a negative nan, the
#: smallest and the largest subnormal and the largest float.
SPECIAL_BITS = [0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                0xFFF8000000000001, 1, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF]
csv_floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308])
#: Column names and labels as the commands write them: ASCII, with no
#: comma, quote or line break, so that none needs CSV quoting.
csv_text = st.text(string.ascii_letters + string.digits + "_", max_size=4)
csv_names = st.lists(csv_text, min_size=2, max_size=6, unique=True)
#: The side labels, the empty label and labels of up to 40 ASCII letters.
csv_labels = (st.sampled_from(["minus", "plus", "bulk", ""])
              | st.text(string.ascii_letters, min_size=1, max_size=40))


@st.composite
def csv_tables(draw):
    """Equal-length columns of the kinds the table commands write, and wider
    ones: ints of up to 401 digits and labels of up to 40 letters, a few
    distinct ones a column, as a profile's side labels."""
    rows = draw(st.integers(0, 30))
    cells = {
        "bits": st.integers(0, 2**64 - 1) | st.sampled_from(SPECIAL_BITS),
        "floats": csv_floats,
        "ints": st.integers(-2**70, 2**70) | st.integers(-10**400, 10**400),
        "sides": csv_labels,
    }
    columns = {}
    for name in draw(csv_names):
        kind = draw(st.sampled_from(sorted(cells)))
        cell = cells[kind]
        if kind == "sides":
            cell = st.sampled_from(draw(st.lists(cell, min_size=1, max_size=3)))
        column = draw(st.lists(cell, min_size=rows, max_size=rows))
        if kind == "bits":
            column = np.array(column, dtype=np.uint64).view(np.float64)
            if draw(st.booleans()):  # a list of numpy scalars, as sweeps hold
                column = list(column)
        elif kind == "sides" and draw(st.booleans()):
            column = np.array(column)
        columns[name] = column
    return columns


csv_records = st.dictionaries(
    csv_text,
    st.one_of(st.none(), st.booleans(), csv_floats, st.integers()).map(lambda v: [v]),
    min_size=2, max_size=8)


@settings(max_examples=300, deadline=None)
@given(columns=csv_tables() | csv_records,
       chunk_rows=st.integers(1, 8) | st.just(cli._CSV_CHUNK_ROWS),
       kernel_cells=st.integers(0, 24) | st.just(cli._KERNEL_CELLS))
def test_csv_writer_matches_reference(columns, chunk_rows, kernel_cells):
    """Both routes, one %-format per row and one byte matrix per chunk, give
    the bytes of the cell-by-cell reference: random float64 bit patterns,
    signed zeros, infinities, nans, subnormals, ints of up to 401 digits,
    ASCII labels, and one-row records with None and bools, in tables of at
    least two columns, across chunk boundaries, with the routes mixed in one
    table where a short last chunk falls below the crossover.  After the
    header every piece is whole rows, a str under 512 bytes unless it is
    one row."""
    rows = list(zip(*columns.values()))
    with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(cli, "_KERNEL_CELLS", kernel_cells):
        pieces = list(_csv(columns))
    assert "".join(pieces) == reference_table(list(columns), rows)
    for piece in pieces[1:]:
        assert piece.endswith("\n")
        assert sys.getsizeof(piece) < 512 or piece.count("\n") == 1


@pytest.mark.parametrize("columns", [{"a": [""], "b": [0.5]}, {"a": ["", "x"], "b": [1, 2]},
                                     {"a": np.array(["x", ""]), "b": [True, False]},
                                     {"a": [None, ""], "b": ["y", "z"]},
                                     {"a": ["", None], "b": ["", "y"]}],
                         ids=["one_empty", "empty_first", "array", "none_and_empty", "two_columns"])
@pytest.mark.parametrize("kernel_cells", [0, cli._KERNEL_CELLS], ids=["byte_matrix", "per_row"])
def test_csv_lone_empty_cell_quoted(columns, kernel_cells):
    """An empty cell, from None or an empty label in a list or an array, is
    written as nothing beside the other cells of its row, on both routes,
    as csv writes it: in a table of at least two columns no row is a blank
    line, so no cell is quoted, even where every cell of a row is empty."""
    with mock.patch.object(cli, "_KERNEL_CELLS", kernel_cells):
        text = "".join(_csv(columns))
    assert text == reference_table(list(columns), zip(*columns.values()))


@pytest.mark.parametrize("columns", [{"a": [1.0, 2]}, {"a": [True, 1]}, {"a": [None, 0.5]}],
                         ids=["float_int", "bool_int", "none_float"])
def test_csv_mixed_column_rejected(columns):
    """A column whose cells need two formats has no one printf code; the
    writer fails before its first piece."""
    with pytest.raises(TypeError, match="no CSV format"):
        next(_csv(columns))


#: Real command lines whose CSV tables cover the column shapes the writer
#: meets: profile labels as a ``<U5`` array, n_layers ints and cond sweep
#: floats as lists, stack sweep arrays and one-row records, each at row
#: counts on both sides of its shape's crossover (profiles 56 rows, cond
#: sweeps 72, n_layers sweeps 142, stack sweeps 28) and across a chunk.
ROUTE_SWAP_ARGV = [
    ["profile", "--which", "a", "--points", "39"],
    ["profile", "--which", "a", "--points", "1100"],
    ["profile", "--which", "b", "--points", "39"],
    ["profile", "--which", "b", "--points", "99", "--b-r", "0.2", "--b-l", "-0.1"],
    ["sweep", "--sweep", "cond:0:2:50"],
    ["sweep", "--sweep", "cond:0:2:100", "--branching", "0.5"],
    ["sweep", "--sweep", "n_layers:1:100:100"],
    ["sweep", "--sweep", "n_layers:1:300:200"],
    ["sweep", "--stack", "STACK", "--sweep", "wavelength_nm:500:800:10"],
    ["sweep", "--stack", "STACK", "--sweep", "wavelength_nm:500:800:40"],
    ["sweep", "--stack", "STACK", "--sweep", "thickness:0:1:10"],
    ["sweep", "--stack", "STACK", "--sweep", "thickness:0:1:40"],
    ["coeffs", "--format", "csv"],
    ["twostate", "--format", "csv"],
    ["twostate", "--cond", "2", "--format", "csv"],
    ["stack", "--stack", "STACK", "--format", "csv"],
    ["decouple", "--format", "csv"],
]


@pytest.mark.parametrize("argv", ROUTE_SWAP_ARGV, ids=[" ".join(a) for a in ROUTE_SWAP_ARGV])
def test_csv_routes_swap_on_command_output(capsys, tmp_path, argv):
    """A command's CSV is the same whichever route writes each chunk:
    every chunk on the byte matrix (``_KERNEL_CELLS`` 0), every chunk a row
    at a time (``_KERNEL_CELLS`` above any table) and the routes the
    crossover picks."""
    stack = tmp_path / "stack.json"
    stack.write_text(json.dumps({"ambient_out": [3.882, 0.019], "wavelength_nm": 633.0,
                                 "layers": [{"type": "sheet", "cond": 0.0229253},
                                            {"type": "slab", "n_re": 1.46, "d": 0.3}] * 3}))
    argv = [str(stack) if arg == "STACK" else arg for arg in argv]
    outputs = []
    for kernel_cells in (0, 10**9, cli._KERNEL_CELLS):
        with mock.patch.object(cli, "_KERNEL_CELLS", kernel_cells):
            code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) > 1
