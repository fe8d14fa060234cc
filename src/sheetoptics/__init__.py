"""Optics of atomically thin conducting sheets as a stationary two-state system.

Single-sheet scattering/absorption/emission amplitudes, transfer-matrix
multilayer optics, two-state Hamiltonian diagnostics, and polar/axial
gauge-field profile analysis, with a batch CLI front end.

Start-up: ``errors``, ``codec`` and ``surface`` load with the package.
``stack``, ``twostate``, ``fields`` and ``floattext`` load on first use:
each is a package attribute and in ``sys.modules`` from the start, as a
``importlib.util.LazyLoader`` module whose code is compiled and run on its
first attribute access, after which it is a plain module.  The public
names (``__all__``) are served by a module ``__getattr__`` (PEP 562), so
``from sheetoptics import solve_stack`` loads ``stack`` and nothing else.
``surface`` holds the N-sheet closed form and the layer-number search, so
a ``coeffs``, ``twostate``, ``decouple`` or ``profile`` process, or a
layer-number ``sweep``, never runs ``stack``, and a ``stack`` or ``sweep``
process never runs ``fields`` or ``twostate``.  numpy loads only where an
array is built: ``surface`` and the scalar functions of ``twostate``
compute on ``math`` and ``cmath``, so a ``coeffs``, ``twostate`` or
``decouple`` process does not load it, unless ``twostate`` takes the angle
of a coupling off both axes (as from a ``--coeffs`` file of complex
coefficients), which comes from numpy's ``arctan2``.  A one-shot
``python -m sheetoptics.cli coeffs`` took 85 ms where the same lazy
modules with numpy loaded at start took 171 (and eager imports 214, in
earlier runs), ``twostate`` 83 where they took 169, and ``decouple`` 85
where it took 172 with the search in ``stack`` (medians of 15 to 21
alternating runs, shared 2-core x86_64, Python 3.11, numpy 2.4.6, no
``.pyc`` written; README.md has the table).  Before Python 3.12 a lazy
module's first load takes no lock: two threads that first touch one at
the same moment can both run its code, so code that starts threads
should import the modules they use first (``import sheetoptics.stack``
runs ``stack``; ``from sheetoptics import stack`` does not).
"""

import importlib.util
import sys

from . import codec, errors, surface

__version__ = "0.1.0"


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules`` to run on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


stack, twostate, fields, floattext = map(_lazy, ("stack", "twostate", "fields", "floattext"))

#: Module -> the public names it exports from the package.
_EXPORTS = {
    "errors": ("AsymmetricGrid", "ContinuityViolation", "DegenerateDecoupling",
               "LedgerMismatch", "SheetOpticsError", "SingularStack"),
    "surface": ("FINE_STRUCTURE", "GRAPHENE_COND", "EmissionAmplitudes", "ScatterCoeffs",
                "SheetParams", "absorbance", "decoupling_layer_number", "emission_amplitude",
                "nlayer_replacement", "solve_boundary_system", "solve_single_sheet"),
    "twostate": ("DecoupledPair", "TwoStateSystem", "corrected_reflection", "decouple",
                 "decoupling_phase", "level_energies", "offdiagonal", "orthogonalize",
                 "spin_matrix"),
    "stack": ("EmissionLedger", "LayerStack", "Sheet", "Slab", "StackSolution", "StackSweep",
              "build_emission_ledger", "interface_matrix", "load_stack", "local_fields",
              "reflectance_with_emission", "sheet_matrix", "solve_stack", "solve_sweep",
              "stack_absorbance", "stack_coeffs", "substrate_index", "substrate_presets"),
    "fields": ("FieldProfile", "GaugeDecomposition", "axial_at_surface", "decompose", "eval_a",
               "eval_b", "make_grid", "parity_transform"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name, read from its module (which then loads, if it has
    not) and bound here for later reads."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
