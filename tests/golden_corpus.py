"""The golden-output corpus of the command-line front end.

Run from the repository root to regenerate it:

    PYTHONPATH=src python tests/golden_corpus.py

``cases`` is a seeded list of command lines, with their input files, from
every command family at small sizes, plus an edge ladder: empty and bare
stacks, one and 87 graphene sheets, a ``-0.0`` slab, thick Si slabs,
overflowing sweep ranges, wavelength scales that overflow or underflow,
a sweep of layer counts up to 1e300, bad input files and ``--coeffs``
files whose t + r or coupling lie near or beyond the largest float.  The
script runs each through ``cli.main`` in process and writes
``golden_corpus.json`` beside it: the argv, the files and what the
command gave, that is its exit code, the sha256 of its stdout and of its
stderr and the number of warnings it raised, with the numpy and Python
versions that gave them.  ``tests/test_golden.py``
replays the corpus and compares.  A change that moves output on purpose runs
this script and reports which entries changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from sheetoptics import cli
from sheetoptics.codec import encode_complex
from sheetoptics.surface import GRAPHENE_COND

SEED = 14
CORPUS = Path(__file__).with_name("golden_corpus.json")
SI = [3.882, 0.019]


def _stack_doc(rng: random.Random, pairs: int) -> dict:
    """``pairs`` sheet+slab pairs: an eighth of the sheets with complex
    conductance, half the slabs absorbing."""
    layers = []
    for _ in range(pairs):
        cond = rng.uniform(0.005, 0.05)
        if rng.random() < 0.125:
            cond = complex(cond, rng.uniform(-0.02, 0.02))
        layers.append({"type": "sheet", "cond": encode_complex(cond),
                       "branching": rng.uniform(0.2, 1.0), "f_sign": rng.choice((1, -1)),
                       "sign": rng.choice((1, -1))})
        layers.append({"type": "slab", "n_re": rng.uniform(1.3, 2.5),
                       "n_im": 0.0 if rng.random() < 0.5 else rng.uniform(1e-3, 2e-2),
                       "d": rng.uniform(0.05, 0.5)})
    return {"ambient_in": 1.0, "ambient_out": rng.choice([1.46, SI]),
            "wavelength_nm": 633.0, "layers": layers}


def _sheet_argv(rng: random.Random) -> list[str]:
    return ["--cond", repr(10 ** rng.uniform(-3, math.log10(3.0))),
            "--branching", repr(rng.uniform(0.0, 1.0)), "--f-sign", rng.choice(("1", "-1"))]


def _coeffs_file(rng: random.Random) -> str:
    """A ``coeffs`` result of a sheet of complex conductance, in the codec's
    forms."""
    g = complex(10 ** rng.uniform(-3, math.log10(2.0)), rng.uniform(-1.0, 1.0))
    t, r = 2.0 / (2.0 + g), -g / (2.0 + g)
    f_mag = math.sqrt(2.0 * rng.uniform(0.2, 1.0) * g.real * abs(t) ** 2)
    b = -rng.choice((1, -1)) * (f_mag / 2.0) * t
    return json.dumps({"t": encode_complex(t), "r": encode_complex(r), "b": encode_complex(b),
                       "f_mag": f_mag})


def _case(name: str, argv: list[str], files: dict | None = None) -> dict:
    return {"id": name, "argv": argv, "files": files or {}}


def family_cases(rng: random.Random) -> list[dict]:
    """Each command family at small sizes, values drawn from ``rng``."""
    cases = []
    for i in range(4):
        cases.append(_case(f"coeffs_json_{i}", ["coeffs", *_sheet_argv(rng)]))
    for i in range(3):
        cases.append(_case(f"coeffs_csv_{i}", ["coeffs", *_sheet_argv(rng), "--format", "csv"]))
    for i in range(4):
        cases.append(_case(f"twostate_{i}", [
            "twostate", *_sheet_argv(rng), "--overlap", repr(rng.uniform(-0.9, 0.9)),
            "--energy-unit", repr(rng.uniform(0.5, 2.0))]))
    cases.append(_case("twostate_csv", ["twostate", *_sheet_argv(rng), "--format", "csv"]))
    for i in range(2):
        cases.append(_case(f"twostate_branching_0_{i}", [
            "twostate", "--cond", repr(10 ** rng.uniform(-3, 0)), "--branching", "0",
            "--overlap", repr(rng.uniform(-0.9, 0.9))]))
    for i in range(3):
        cases.append(_case(f"twostate_coeffs_file_{i}", [
            "twostate", "--coeffs", f"coeffs{i}.json", "--energy-unit",
            repr(rng.uniform(0.5, 2.0))], {f"coeffs{i}.json": _coeffs_file(rng)}))
    cases.append(_case("twostate_degenerate", ["twostate", "--cond", "2"]))
    for i in range(4):
        cases.append(_case(f"decouple_{i}", ["decouple", "--cond",
                                             repr(10 ** rng.uniform(-4, 0))]))
    for i, (pairs, fmt, wavelength) in enumerate([(1, "json", None), (3, "json", True),
                                                  (12, "json", None), (30, "json", True),
                                                  (150, "json", None), (2, "csv", None),
                                                  (8, "csv", True), (20, "csv", None)]):
        argv = ["stack", "--stack", f"stack{i}.json"]
        if wavelength:
            argv += ["--wavelength-nm", repr(rng.uniform(500.0, 800.0))]
        if fmt == "csv":
            argv += ["--format", "csv"]
        cases.append(_case(f"stack_{fmt}_{pairs}_pairs", argv,
                           {f"stack{i}.json": json.dumps(_stack_doc(rng, pairs))}))
    for steps in (5, 40):
        cases.append(_case(f"sweep_cond_{steps}", [
            "sweep", "--sweep", f"cond:0:{rng.uniform(0.5, 5.0)!r}:{steps}", *_sheet_argv(rng)]))
    for n_max in (6, 60):
        cases.append(_case(f"sweep_n_layers_{n_max}", [
            "sweep", "--sweep", f"n_layers:1:{n_max}:{n_max}",
            "--cond", repr(10 ** rng.uniform(-3, 0))]))
    for points in (7, 40):
        start, stop = rng.uniform(450.0, 600.0), rng.uniform(650.0, 850.0)
        cases.append(_case(f"sweep_wavelength_{points}", [
            "sweep", "--stack", "sweep.json", "--sweep",
            f"wavelength_nm:{start!r}:{stop!r}:{points}"],
            {"sweep.json": json.dumps(_stack_doc(rng, rng.randint(2, 12)))}))
        cases.append(_case(f"sweep_thickness_{points}", [
            "sweep", "--stack", "sweep.json", "--sweep",
            f"thickness:0:{rng.uniform(0.2, 1.0)!r}:{points}"],
            {"sweep.json": json.dumps(_stack_doc(rng, rng.randint(2, 12)))}))
    for which, points in (("a", 1000), ("a", 1200), ("b", 1000), ("b", 1100)):
        argv = ["profile", "--which", which, *_sheet_argv(rng), "--points", str(points),
                "--x-max", repr(rng.uniform(1.0, 20.0)), "--k", repr(rng.uniform(0.5, 3.0))]
        if which == "b" and points == 1100:
            argv += ["--b-r", repr(rng.uniform(-0.3, 0.3)), "--b-l", repr(rng.uniform(-0.3, 0.3))]
        cases.append(_case(f"profile_{which}_{points}", argv))
    return cases


def _stack_cases(name: str, doc, formats=("json", "csv")) -> list[dict]:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return [_case(f"{name}_{fmt}", ["stack", "--stack", f"{name}.json", "--format", fmt],
                  {f"{name}.json": text}) for fmt in formats]


def ladder_cases() -> list[dict]:
    """The edge ladder: degenerate and extreme stacks, overflowing sweep
    ranges and wavelength scales, ints of up to 301 digits and bad input
    files."""
    sheet = {"type": "sheet", "cond": GRAPHENE_COND}
    cases = []
    cases += _stack_cases("no_layers", {"layers": []})
    cases += _stack_cases("bare_interface", {"ambient_out": SI, "layers": []})
    cases += _stack_cases("one_sheet", {"wavelength_nm": 633.0, "layers": [sheet]})
    graphene87 = json.dumps({"wavelength_nm": 633.0, "layers": [sheet] * 87})
    cases += _stack_cases("graphene87", graphene87)
    cases.append(_case("graphene87_wavelength_sweep", [
        "sweep", "--stack", "graphene87.json", "--sweep", "wavelength_nm:500:700:5"],
        {"graphene87.json": graphene87}))
    minus_zero = {"wavelength_nm": 633.0, "layers": [
        sheet, {"type": "slab", "n_re": 1.5, "d": -0.0}, {"type": "sheet", "cond": 0.1}]}
    cases += _stack_cases("minus_zero_slab", minus_zero)
    for name, d in (("si_1e3", 1e3), ("si_4e3", 4e3), ("si_1e4", 1e4)):
        cases += _stack_cases(name, {"layers": [
            sheet, {"type": "slab", "n_re": SI[0], "n_im": SI[1], "d": d}]})
    pair = [{"type": "sheet", "cond": 0.1}, {"type": "slab", "n_re": 1.5, "d": 0.2}]
    overflow = json.dumps({"wavelength_nm": 633.0, "layers": pair})
    for variable in ("cond", "n_layers", "wavelength_nm", "thickness"):
        argv = ["sweep", "--sweep", f"{variable}:-1e308:1e308:3"]
        files = {}
        if variable in ("wavelength_nm", "thickness"):
            argv += ["--stack", "overflow.json"]
            files = {"overflow.json": overflow}
        cases.append(_case(f"sweep_{variable}_range_overflow", argv, files))
    # wavelengths whose scale over the file's wavelength_nm overflows or
    # underflows to 0, in a stack, a thickness sweep and a wavelength sweep
    for bound, reference, value, spec in (("overflow", 1e-300, "1e300", "1e10:1e300:3"),
                                          ("underflow", 1e308, "1e-308", "1e-308:1:3")):
        files = {"scale.json": json.dumps({"wavelength_nm": reference, "layers": pair})}
        cases.append(_case(f"stack_wavelength_scale_{bound}", [
            "stack", "--stack", "scale.json", "--wavelength-nm", value], files))
        cases.append(_case(f"sweep_thickness_wavelength_scale_{bound}", [
            "sweep", "--stack", "scale.json", "--sweep", "thickness:0:1:3",
            "--wavelength-nm", value], files))
        cases.append(_case(f"sweep_wavelength_scale_{bound}", [
            "sweep", "--stack", "scale.json", "--sweep", f"wavelength_nm:{spec}"], files))
    cases.append(_case("sweep_n_layers_cond_overflow", [
        "sweep", "--sweep", "n_layers:1:2:2", "--cond", "1e308"]))
    # ints of up to 301 digits in a table long enough for the byte matrix
    cases.append(_case("sweep_n_layers_huge", [
        "sweep", "--sweep", "n_layers:1:1e300:60", "--cond", "1e-3"]))
    slab = {"type": "slab", "n_re": 1.46, "d": 0.3}
    bad_files = {
        "not_json": "{\"layers\": [",
        "not_object": "[]",
        "nests_too_deeply": "[" * 5000,
        "layers_not_list": {"layers": {"type": "sheet"}},
        "layer_not_object": {"layers": [sheet, 3]},
        "slab_without_d": {"layers": [{"type": "slab"}]},
        "unknown_type": {"layers": [{"type": "mirror"}]},
        "n_re_text": {"layers": [{**slab, "n_re": "x"}]},
        "n_re_null": {"layers": [{**slab, "n_re": None}]},
        "d_nan": '{"layers": [{"type": "slab", "n_re": 1.5, "d": NaN}]}',
        "cond_huge_int": {"layers": [{"type": "sheet", "cond": 10 ** 400}]},
        "cond_text": {"layers": [{"type": "sheet", "cond": "0.01"}]},
        "d_numeric_text": {"layers": [sheet, {**slab, "d": "1_0"}]},
        "branching_numeric_text": {"layers": [{**sheet, "branching": " 0.5 "}]},
        "sign_numeric_text": {"layers": [{**sheet, "sign": "1"}]},
        "wavelength_numeric_text": {"wavelength_nm": "633", "layers": [sheet]},
        "negative_thickness": {"layers": [{**slab, "d": -0.1}]},
        "fractional_sign": {"layers": [{**sheet, "sign": 1.5}]},
        "gain_sheet": {"layers": [{**sheet, "cond": [-0.1, 0.2]}]},
    }
    for name, doc in bad_files.items():
        cases += _stack_cases(f"bad_{name}", doc, formats=("json",))
    cases.append(_case("missing_stack_file", ["stack", "--stack", "missing.json"]))
    cases.append(_case("bad_coeffs_file", ["twostate", "--coeffs", "coeffs.json"],
                       {"coeffs.json": json.dumps({"r": 0.1, "b": 0.2})}))
    cases.append(_case("decouple_subnormal_cond", ["decouple", "--cond", "1.5e-308"]))
    # n_exact exactly 1; below 1, so that n_int is 1; and integer
    # candidates near 2e300
    cases.append(_case("decouple_n_exact_1", ["decouple", "--cond", "2"]))
    cases.append(_case("decouple_n_exact_below_1", ["decouple", "--cond", "3"]))
    cases.append(_case("decouple_tiny_cond", ["decouple", "--cond", "1e-300"]))
    # r = -0/(2 + 0) writes r_re as -0 in every row
    cases.append(_case("sweep_n_layers_cond_0", [
        "sweep", "--sweep", "n_layers:1:3:3", "--cond", "0"]))
    # a t + r whose modulus overflows, and a coupling h near the largest float
    cases.append(_case("twostate_coeffs_modulus_overflow", ["twostate", "--coeffs", "huge.json"],
                       {"huge.json": json.dumps({"t": [0.75e308, 0.75e308],
                                                 "r": [0.75e308, 0.75e308], "b": [0, 1]})}))
    cases.append(_case("twostate_coeffs_coupling_near_max", [
        "twostate", "--coeffs", "near_max.json", "--energy-unit", "0.5"],
        {"near_max.json": json.dumps({"t": [0.0, 4.0414184592774605e175],
                                      "r": [4.041418459277461e163, 4.0414184592774605e175],
                                      "b": [0.0, 2.224086855860645e132]})}))
    # a t + r that overflows although t and r are finite, and couplings
    # whose partial products overflow
    cases.append(_case("twostate_coeffs_sum_overflow", ["twostate", "--coeffs", "sum.json"],
                       {"sum.json": json.dumps({"t": 1.5e308, "r": 1.5e308, "b": [0, 1]})}))
    cases.append(_case("twostate_coeffs_b_overflow", [
        "twostate", "--coeffs", "big_b.json", "--energy-unit", "10"],
        {"big_b.json": json.dumps({"t": 1, "r": 0, "b": [1.5e308, 1.5e308]})}))
    cases.append(_case("twostate_coeffs_real_b_overflow", [
        "twostate", "--coeffs", "real_b.json", "--energy-unit", "10"],
        {"real_b.json": json.dumps({"t": 1.0, "r": 0.5, "b": [1e308, 0]})}))
    # level energies near the largest float from a huge energy unit
    cases.append(_case("twostate_coeffs_energy_unit_huge", [
        "twostate", "--coeffs", "small.json", "--energy-unit", "1.7e308"],
        {"small.json": json.dumps({"t": [0.00087890625, 0.00087890625], "r": 0,
                                   "b": [0.00087890625, 0.00087890625]})}))
    # an explicit -0.0 emission amplitude keeps its sign
    cases.append(_case("profile_b_minus_zero", [
        "profile", "--which", "b", "--b-r", "-0.0", "--b-l", "0.25", "--points", "4",
        "--x-max", "1"]))
    # a sweep start that is no number, and a thickness sweep with no slab
    cases.append(_case("sweep_start_not_a_number", ["sweep", "--sweep", "cond:a:1:3"]))
    cases.append(_case("sweep_thickness_without_slab", [
        "sweep", "--sweep", "thickness:0:1:3", "--stack", "sheets.json"],
        {"sheets.json": json.dumps({"layers": [sheet, sheet]})}))
    return cases


def cases() -> list[dict]:
    return family_cases(random.Random(SEED)) + ladder_cases()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case: dict, workdir: str) -> tuple[dict, str]:
    """What ``cli.main`` gives on the case's argv, run in ``workdir`` with
    its files written there: exit code, sha256 of stdout and of stderr, and
    the number of warnings raised; and the stdout itself."""
    for name, text in case["files"].items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(case["argv"])
    finally:
        os.chdir(cwd)
        for name in case["files"]:
            os.remove(os.path.join(workdir, name))
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue()), "warnings": len(caught)}, out.getvalue()


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        entries = [{**case, **run_case(case, workdir)[0]} for case in cases()]
    old = {}
    if CORPUS.exists():
        old = {entry["id"]: entry for entry in json.loads(CORPUS.read_text())["cases"]}
    changed = [entry["id"] for entry in entries if old.get(entry["id"]) != entry]
    corpus = {"numpy": np.__version__, "python": platform.python_version(), "seed": SEED,
              "cases": entries}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries, {len(changed)} new or changed: {', '.join(changed)}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
