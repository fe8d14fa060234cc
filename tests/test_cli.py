"""CLI behavior: outputs, determinism, exit codes, sweeps, round trips."""

import json

import pytest

from sheetoptics import stack as stack_mod
from sheetoptics.cli import main

GRAPHENE = "0.0229253"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    return json.loads(out)


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


    def test_coeffs_file_missing_key(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"r": 0.1, "b": 0.2}))
        code, _, err = run_cli(capsys, "twostate", "--coeffs", str(path))
        assert code == 1
        assert "'t'" in err

    def test_coeffs_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps([0.9, 0.1, 0.2]))
        code, _, err = run_cli(capsys, "twostate", "--coeffs", str(path))
        assert code == 1
        assert "JSON object" in err


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
        calls = []
        original = stack_mod.element_matrices

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(stack_mod, "element_matrices", counting)
        run_json(capsys, "stack", "--stack", stack_file)
        assert len(calls) == 1
        code, out, _ = run_cli(capsys, "sweep", "--stack", stack_file,
                               "--sweep", "wavelength_nm:400:700:4")
        assert code == 0
        assert len(out.splitlines()) == 5
        assert len(calls) == 1 + 1  # one build per sweep command

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stack", "--stack", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("doc, field", [
        ({"layers": [1]}, "layers[0]"),
        ({"layers": {"type": "sheet"}}, "layers"),
        ({"layers": [{"type": "slab"}]}, "layers[0].d"),
        ({"layers": [{"type": "slab", "d": 0.1, "n_re": None}]}, "layers[0].n_re"),
        ({"layers": [], "wavelength_nm": [1]}, "wavelength_nm"),
    ], ids=["layer_not_object", "layers_not_list", "slab_without_d",
            "null_index", "list_wavelength"])
    def test_malformed_file(self, capsys, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"sheetoptics: config error: {field} ")

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "stack", "--stack", str(path))
        assert code == 1


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

    def test_bad_spec(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "cond:1:0:5")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "cond:0:1:0")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--sweep", "volume:0:1:2")
        assert code == 1

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

    def test_antisymmetric_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--which", "b", "--b-r", "0.1", "--b-l", "-0.1",
            "--points", "4", "--x-max", "1",
        )
        assert code == 0
        minus_row = [l for l in out.splitlines() if l.endswith("minus")][0]
        assert float(minus_row.split(",")[3]) == pytest.approx(-0.1)

    def test_json_format_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "profile", "--format", "json")
        assert code == 1


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "coeffs", "--cond", "0.5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["t"] == pytest.approx(0.8)
