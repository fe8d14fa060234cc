"""The package's exports and which modules a process runs.

numpy loads in a process that builds an array, always for ``stack``,
``sweep`` and ``profile``.  ``coeffs``, ``twostate`` and ``decouple`` build
none and do not load it, with one exception: ``twostate`` takes the angle
of a coupling off both axes, as from a ``--coeffs`` file of complex
coefficients, from numpy's ``arctan2``.  ``decouple`` and the layer-number
sweep read the N-sheet closed form from ``surface`` and never run
``stack``, which still offers its old names.

``stack``, ``twostate``, ``fields`` and ``floattext`` are registered at
package import and run on first attribute access; until then each is an
``importlib.util`` lazy module, which ``type()`` shows without loading it.
Each check runs in a fresh interpreter, since this one has loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sheetoptics
from sheetoptics.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module -> the names the package exported from it before the lazy loading.
EXPORTED = {
    "errors": ["AsymmetricGrid", "ContinuityViolation", "DegenerateDecoupling",
               "LedgerMismatch", "SheetOpticsError", "SingularStack"],
    "surface": ["FINE_STRUCTURE", "GRAPHENE_COND", "EmissionAmplitudes", "ScatterCoeffs",
                "SheetParams", "absorbance", "decoupling_layer_number", "emission_amplitude",
                "nlayer_replacement", "solve_boundary_system", "solve_single_sheet"],
    "twostate": ["DecoupledPair", "TwoStateSystem", "corrected_reflection", "decouple",
                 "decoupling_phase", "level_energies", "offdiagonal", "orthogonalize",
                 "spin_matrix"],
    "stack": ["EmissionLedger", "LayerStack", "Sheet", "Slab", "StackSolution", "StackSweep",
              "build_emission_ledger", "interface_matrix", "load_stack", "local_fields",
              "reflectance_with_emission", "sheet_matrix", "solve_stack", "solve_sweep",
              "stack_absorbance", "stack_coeffs"],
    "fields": ["FieldProfile", "GaugeDecomposition", "axial_at_surface", "decompose", "eval_a",
               "eval_b", "make_grid", "parity_transform"],
}
#: The substrate presets, documented as package functions.
SUBSTRATES = {"stack": ["substrate_index", "substrate_presets"]}

#: Runs the CLI on each argv of argv[1], then prints the sheetoptics
#: modules that are still lazy, i.e. whose code has not run.
STILL_LAZY = r"""
import contextlib, io, json, sys, types
from sheetoptics.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.startswith("sheetoptics")
                        and type(module) is not types.ModuleType)))
"""

#: Prints whether numpy is loaded after ``import sheetoptics`` and after
#: the CLI runs each argv of argv[1], as a JSON list of booleans.
NUMPY_LOADED = r"""
import contextlib, io, json, sys
import sheetoptics
loaded = ["numpy" in sys.modules]
from sheetoptics.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""

#: Prints the names of ``__all__`` missing from ``dir(sheetoptics)``, then
#: star-imports the package and prints the names of ``__all__`` that are
#: unbound or not the object of the module that defines them.
STAR = r"""
import json, sys
import sheetoptics
print(json.dumps(sorted(set(sheetoptics.__all__) - set(dir(sheetoptics)))))
from sheetoptics import *
homes = json.loads(sys.argv[1])
print(json.dumps([name for module, names in homes.items() for name in names
                  if globals().get(name, sys) is not getattr(sys.modules[f"sheetoptics.{module}"], name)]))
"""


def fresh(script: str, arg) -> list:
    """The JSON lines a script prints, run in a fresh interpreter with
    ``arg`` as JSON in argv[1]."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(arg)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_stack_and_short_sweep_leave_fields_twostate_floattext_unrun(tmp_path):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"wavelength_nm": 633.0, "layers": [
        {"type": "sheet", "cond": 0.1}, {"type": "slab", "n_re": 1.5, "d": 0.2}]}))
    [lazy] = fresh(STILL_LAZY, [["stack", "--stack", str(path)],
                                ["sweep", "--stack", str(path), "--sweep", "thickness:0:1:5"],
                                ["sweep", "--stack", str(path), "--sweep", "thickness:0:1:50"]])
    assert lazy == ["sheetoptics.fields", "sheetoptics.floattext", "sheetoptics.twostate"]


def test_coeffs_leaves_stack_unrun():
    [lazy] = fresh(STILL_LAZY, [["coeffs"]])
    assert lazy == ["sheetoptics.fields", "sheetoptics.floattext", "sheetoptics.stack",
                    "sheetoptics.twostate"]


def test_decouple_and_layer_number_sweep_leave_stack_unrun():
    [lazy] = fresh(STILL_LAZY, [["decouple"], ["sweep", "--sweep", "n_layers:1:5:5"]])
    assert lazy == ["sheetoptics.fields", "sheetoptics.floattext", "sheetoptics.stack",
                    "sheetoptics.twostate"]


def test_stack_still_offers_the_closed_form():
    """stack.nlayer_replacement and stack.decoupling_layer_number are the
    functions of surface, as bench/selfcheck.py reads them."""
    for name in ("nlayer_replacement", "decoupling_layer_number"):
        assert getattr(sheetoptics.stack, name) is getattr(sheetoptics.surface, name)


def test_scalar_commands_leave_numpy_unloaded(tmp_path):
    """coeffs, twostate and decouple compute on math and cmath and build no
    array."""
    path = tmp_path / "coeffs.json"
    assert main(["coeffs", "--cond", "0.5", "--out", str(path)]) == 0
    argv = [["coeffs"], ["coeffs", "--format", "csv"], ["twostate"],
            ["twostate", "--coeffs", str(path)], ["decouple"], ["decouple", "--format", "csv"]]
    assert fresh(NUMPY_LOADED, argv) == [[False] * 7]


@pytest.mark.parametrize("argv", [
    ["stack", "--stack", "{stack}"],
    ["sweep", "--sweep", "cond:0:1:3"],
    ["profile", "--points", "10"],
], ids=lambda argv: argv[0])
def test_array_commands_load_numpy(tmp_path, argv):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"layers": [{"type": "sheet", "cond": 0.1}]}))
    argv = [str(path) if token == "{stack}" else token for token in argv]
    assert fresh(NUMPY_LOADED, [argv]) == [[False, True]]


def test_star_import_binds_every_export():
    homes = {module: EXPORTED[module] + SUBSTRATES.get(module, []) for module in EXPORTED}
    assert fresh(STAR, homes) == [[], []]


def test_all_is_old_exports_plus_substrates():
    names = [name for table in (EXPORTED, SUBSTRATES) for names in table.values() for name in names]
    assert sorted(sheetoptics.__all__) == sorted(names)


def test_substrate_index_exported():
    assert sheetoptics.substrate_index("Si") == 3.882 + 0.019j
    assert sheetoptics.substrate_presets() == sheetoptics.stack.substrate_presets()
