"""Transfer-matrix optics for stacks of conducting sheets and dielectric slabs.

Normal incidence only; amplitudes are E-field coefficients of the
(right-moving, left-moving) pair.

Matrix convention: every element matrix of a stack maps the amplitudes on
the exit (right) side of its element to the amplitudes on its entry (left)
side.  The stack matrix is the ordered product of the element matrices in
stack order, and (1, r) = M (t, 0).

:func:`solve_stack` builds the element matrices once, takes their product,
extracts t and r, back-propagates (t, 0) to the sheets and builds the
emission ledger from those fields.  The coefficient, field and ledger
functions below are views on its :class:`StackSolution`.

Slab thicknesses are measured in units of the reference vacuum wavelength;
``wavelength_scale`` rescales them for wavelength sweeps (scale = lambda /
lambda_ref, frequency-independent sheet conductance assumed).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import reduce
from importlib import resources

import numpy as np

from .codec import decode_complex, encode_complex
from .errors import LedgerMismatch, SingularStack
from .surface import (
    DEGENERATE_TOL,
    TWO_PI,
    ScatterCoeffs,
    SheetParams,
    solve_single_sheet,
)


@dataclass(frozen=True)
class Sheet:
    """Conducting-sheet layer plus its emission branch sign (+1 or -1).

    The default sign -1 selects the lower-energy superposition, the branch
    substrates are known to stabilize.
    """

    params: SheetParams
    sign: int = -1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sheet emission sign must be +1 or -1")


@dataclass(frozen=True)
class Slab:
    """Homogeneous dielectric slab: complex index n, thickness d (wavelengths)."""

    n: complex
    d: float

    def __post_init__(self):
        n = complex(self.n)
        if self.d < 0:
            raise ValueError("slab thickness must be >= 0")
        if n.imag < 0:
            raise ValueError("Im(n) must be >= 0 (absorbing or lossless only)")
        if n.real <= 0:
            raise ValueError("Re(n) must be > 0")


Layer = Sheet | Slab


@dataclass(frozen=True)
class LayerStack:
    """Ordered layer sequence between two semi-infinite ambient media."""

    layers: tuple[Layer, ...] = ()
    ambient_in: complex = 1.0
    ambient_out: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for n in (self.ambient_in, self.ambient_out):
            if complex(n).real <= 0:
                raise ValueError("ambient indices must have Re(n) > 0")

    def sheets(self) -> list[Sheet]:
        return [layer for layer in self.layers if isinstance(layer, Sheet)]


@dataclass(frozen=True)
class EmissionEntry:
    """Per-sheet emission amplitude, total phase and branch sign."""

    b: complex
    theta: float
    sign: int


@dataclass(frozen=True)
class EmissionLedger:
    entries: tuple[EmissionEntry, ...] = ()


@dataclass(frozen=True)
class DecouplingSearch:
    """Result of the t + r = 0 layer-number search."""

    n_exact: float
    n_int: int
    residual: float


@dataclass(frozen=True, eq=False)
class StackSolution:
    """Everything one transfer-matrix solve of a stack yields.

    R, T and A are the reflected, transmitted and absorbed fractions;
    ``sheet_fields`` holds the total E field at each sheet for unit incident
    amplitude; the ledger uses each sheet's own branch sign.
    """

    t: complex
    r: complex
    R: float
    T: float
    A: float
    sheet_fields: np.ndarray
    ledger: EmissionLedger
    R_emission_unclamped: float

    @property
    def R_emission(self) -> float:
        """Emission-corrected reflectance, clamped to 1 with a warning."""
        return _clamp_reflectance(self.R_emission_unclamped)


def sheet_matrix(params: SheetParams) -> np.ndarray:
    """Interface matrix of one sheet: E continuity plus the B-field jump.

    cond = 0 gives the identity.
    """
    g = complex(params.cond)
    return np.array(
        [[1.0 + g / 2.0, g / 2.0], [-g / 2.0, 1.0 - g / 2.0]], dtype=complex
    )


def propagation_matrix(n: complex, d: float, wavelength_scale: float = 1.0) -> np.ndarray:
    """Phase accumulation diag(e^{i phi}, e^{-i phi}) across a slab.

    phi = 2*pi*n*d / wavelength_scale.  Unlike the stack's element matrices
    this maps entry-side to exit-side amplitudes; its inverse is the slab's
    element matrix.
    """
    if d < 0:
        raise ValueError("propagation distance must be >= 0")
    if wavelength_scale <= 0:
        raise ValueError("wavelength_scale must be positive")
    phi = TWO_PI * complex(n) * d / wavelength_scale
    return np.array(
        [[np.exp(1j * phi), 0.0], [0.0, np.exp(-1j * phi)]], dtype=complex
    )


def interface_matrix(n1: complex, n2: complex) -> np.ndarray:
    """Fresnel index step at normal incidence, medium n1 side to medium n2 side."""
    n1, n2 = complex(n1), complex(n2)
    if n1.real <= 0 or n2.real <= 0:
        raise ValueError("interface indices must have Re(n) > 0")
    return (1.0 / (2.0 * n2)) * np.array(
        [[n2 + n1, n2 - n1], [n2 - n1, n2 + n1]], dtype=complex
    )


def element_matrices(
    stack: LayerStack,
    wavelength_scale: float = 1.0,
    sheet_slots: list[int] | None = None,
) -> list[np.ndarray]:
    """Element matrices in stack order; their ordered product is :func:`stack_matrix`.

    When ``sheet_slots`` is a list, the index of each sheet's matrix is
    appended to it.
    """
    mats: list[np.ndarray] = []
    current = complex(stack.ambient_in)
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            if sheet_slots is not None:
                sheet_slots.append(len(mats))
            mats.append(sheet_matrix(layer.params))
        else:
            if layer.n != current:
                # interface_matrix(a, b) maps a-side to b-side; the slab is
                # on the right of this boundary.
                mats.append(interface_matrix(layer.n, current))
            phi = TWO_PI * complex(layer.n) * layer.d / wavelength_scale
            mats.append(np.array(
                [[np.exp(-1j * phi), 0.0], [0.0, np.exp(1j * phi)]], dtype=complex
            ))
            current = complex(layer.n)
    if complex(stack.ambient_out) != current:
        mats.append(interface_matrix(stack.ambient_out, current))
    return mats


def stack_matrix(stack: LayerStack, wavelength_scale: float = 1.0) -> np.ndarray:
    return reduce(np.matmul, element_matrices(stack, wavelength_scale),
                  np.eye(2, dtype=complex))


def solve_stack(stack: LayerStack, wavelength_scale: float = 1.0) -> StackSolution:
    """Solve the stack once: coefficients, sheet fields and emission ledger.

    Raises :class:`SingularStack` when the pivot M00 of the stack matrix
    vanishes or the product overflows.
    """
    slots: list[int] = []
    mats = element_matrices(stack, wavelength_scale, slots)
    m = reduce(np.matmul, mats, np.eye(2, dtype=complex))
    if abs(m[0, 0]) < DEGENERATE_TOL or not np.all(np.isfinite(m)):
        raise SingularStack("stack transfer matrix is numerically singular")
    t = 1.0 / m[0, 0]
    r = m[1, 0] / m[0, 0]

    # Back-propagate (t, 0) from the exit side.  Just right of a sheet v
    # holds the amplitudes there, and the field is continuous across it.
    v = np.array([t, 0.0], dtype=complex)
    fields: list[complex] = []
    j = len(mats)
    for slot in reversed(slots):
        while j > slot + 1:
            j -= 1
            v = mats[j] @ v
        fields.append(v[0] + v[1])
    sheet_fields = np.array(fields[::-1], dtype=complex)

    signs = [sheet.sign for sheet in stack.sheets()]
    ledger = _ledger(stack, wavelength_scale, signs, sheet_fields, t + r)
    ratio = complex(stack.ambient_out).real / complex(stack.ambient_in).real
    reflected = abs(r) ** 2
    transmitted = ratio * abs(t) ** 2
    return StackSolution(
        t=t,
        r=r,
        R=reflected,
        T=transmitted,
        A=1.0 - reflected - transmitted,
        sheet_fields=sheet_fields,
        ledger=ledger,
        R_emission_unclamped=_emission_reflectance(r, ledger),
    )


def stack_coeffs(stack: LayerStack, wavelength_scale: float = 1.0) -> ScatterCoeffs:
    """Scattering amplitudes of the whole stack, (1, r) = M (t, 0)."""
    solution = solve_stack(stack, wavelength_scale)
    return ScatterCoeffs(t=solution.t, r=solution.r)


def stack_absorbance(stack: LayerStack, wavelength_scale: float = 1.0) -> float:
    """Absorbed fraction 1 - |r|^2 - (Re n_out / Re n_in) |t|^2."""
    return solve_stack(stack, wavelength_scale).A


def nlayer_replacement(n_layers: int, cond: complex) -> ScatterCoeffs:
    """Closed form for N zero-spacing sheets: the single sheet at N * cond."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    return solve_single_sheet(SheetParams(cond=n_layers * cond))


def decoupling_layer_number(cond: float) -> DecouplingSearch:
    """Layer count with t + r = 0: exact value 2/cond plus the integer minimizer.

    |t_N + r_N| = |2 - N g| / |2 + N g| falls until N = 2/g and rises after
    it, so the integer minimizer over N in [1, max(2, ceil(4/g))] is
    floor(2/g) or ceil(2/g); ties go to the smaller N.
    """
    if not cond > 0:
        raise ValueError("cond must be positive")
    n_exact = 2.0 / cond
    if not math.isfinite(n_exact):
        raise ValueError("cond is too small for a finite layer number")
    n_max = max(2, math.ceil(2.0 * n_exact))
    candidates = {min(max(1, math.floor(n_exact)), n_max),
                  min(max(1, math.ceil(n_exact)), n_max)}
    best_n, best = 1, np.inf
    for n in sorted(candidates):
        c = nlayer_replacement(n, cond)
        residual = abs(c.t + c.r)
        if residual < best:
            best_n, best = n, residual
    return DecouplingSearch(n_exact=n_exact, n_int=best_n, residual=float(best))


def local_fields(stack: LayerStack, wavelength_scale: float = 1.0) -> np.ndarray:
    """Total E-field amplitude at each sheet, normalized to incident amplitude 1.

    For a single sheet in vacuum this equals t.
    """
    return solve_stack(stack, wavelength_scale).sheet_fields


def _front_phases(stack: LayerStack, wavelength_scale: float) -> np.ndarray:
    """One-way propagation phase from the front surface to each sheet."""
    phases: list[complex] = []
    acc = 0.0 + 0.0j
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            phases.append(acc)
        else:
            acc = acc + TWO_PI * complex(layer.n) * layer.d / wavelength_scale
    return np.array(phases, dtype=complex)


def _ledger(
    stack: LayerStack,
    wavelength_scale: float,
    signs: list[int],
    fields: np.ndarray,
    t_plus_r: complex,
) -> EmissionLedger:
    phases = _front_phases(stack, wavelength_scale)
    unit = t_plus_r / abs(t_plus_r) if abs(t_plus_r) >= DEGENERATE_TOL else 1j

    entries = []
    for sheet, sign, field_amp, phi in zip(stack.sheets(), signs, fields, phases):
        p = sheet.params
        a_abs = complex(p.cond).real * abs(field_amp) ** 2
        amp = np.sqrt((p.branching / 2.0) * a_abs)
        damping = float(np.exp(-2.0 * phi.imag))  # return trip through lossy slabs
        b = -p.f_sign * amp * field_amp * damping
        if abs(b) < DEGENERATE_TOL:
            entries.append(EmissionEntry(b=b, theta=0.0, sign=sign))
            continue
        target = sign * unit * amp * abs(field_amp) * damping * np.exp(2j * phi.real)
        theta = float(np.angle(target / b) % TWO_PI)
        entries.append(EmissionEntry(b=b, theta=theta, sign=sign))
    return EmissionLedger(entries=tuple(entries))


def build_emission_ledger(
    stack: LayerStack,
    wavelength_scale: float = 1.0,
    signs: list[int] | None = None,
) -> EmissionLedger:
    """Assemble per-sheet emission amplitudes and return-trip phases.

    b_j generalizes the single-sheet formula with the local field at sheet j
    (return-trip attenuation through lossy slabs folded into |b_j|); theta_j
    is the doubled front-surface propagation phase plus the decoupling branch
    phase of sign_j referenced to the stack-level t + r.  When t + r vanishes
    at the stack level the branch phase is taken in quadrature, which makes
    the reflectance independent of the (then degenerate) branch choice.
    """
    n_sheets = len(stack.sheets())
    if signs is not None and len(signs) != n_sheets:
        raise LedgerMismatch(f"{len(signs)} signs supplied for {n_sheets} sheets")
    solution = solve_stack(stack, wavelength_scale)
    if signs is None:
        return solution.ledger
    return _ledger(stack, wavelength_scale, signs, solution.sheet_fields,
                   solution.t + solution.r)


def _emission_reflectance(r: complex, ledger: EmissionLedger) -> float:
    total = r + sum(np.exp(1j * e.theta) * e.b for e in ledger.entries)
    return float(abs(total) ** 2)


def _clamp_reflectance(reflectance: float) -> float:
    if reflectance > 1.0:
        warnings.warn(
            f"emission-corrected reflectance {reflectance} > 1 clamped; the "
            "additive emission formula is only approximately energy-conserving",
            stacklevel=3,
        )
        return 1.0
    return reflectance


def reflectance_with_emission(
    stack: LayerStack,
    ledger: EmissionLedger | None = None,
    wavelength_scale: float = 1.0,
) -> float:
    """Reflectance R = |r_N + sum_j e^{i theta_j} b_j|^2 including emission.

    The emission sum is referenced to the front surface.  The additive
    formula is approximate in its energy bookkeeping, so values above 1 are
    clamped with a warning.
    """
    if ledger is None:
        return solve_stack(stack, wavelength_scale).R_emission
    if len(ledger.entries) != len(stack.sheets()):
        raise LedgerMismatch(
            f"ledger has {len(ledger.entries)} entries for "
            f"{len(stack.sheets())} sheets"
        )
    r = solve_stack(stack, wavelength_scale).r
    return _clamp_reflectance(_emission_reflectance(r, ledger))


# ---------------------------------------------------------------------------
# Stack description files


def stack_from_dict(data: dict) -> tuple[LayerStack, float | None]:
    """Build a stack from its JSON-compatible description.

    Returns the stack and the optional reference wavelength in nm.
    """
    if not isinstance(data, dict):
        raise ValueError("stack description must be a JSON object")
    layers: list[Layer] = []
    for i, entry in enumerate(data.get("layers", [])):
        kind = entry.get("type")
        if kind == "sheet":
            params = SheetParams(
                cond=decode_complex(entry.get("cond", 0.0), f"layers[{i}].cond"),
                branching=float(entry.get("branching", 1.0)),
                f_sign=int(entry.get("f_sign", 1)),
            )
            layers.append(Sheet(params=params, sign=int(entry.get("sign", -1))))
        elif kind == "slab":
            layers.append(
                Slab(
                    n=complex(float(entry.get("n_re", 1.0)), float(entry.get("n_im", 0.0))),
                    d=float(entry["d"]),
                )
            )
        else:
            raise ValueError(f"layers[{i}].type must be 'sheet' or 'slab', got {kind!r}")
    stack = LayerStack(
        layers=tuple(layers),
        ambient_in=decode_complex(data.get("ambient_in", 1.0), "ambient_in"),
        ambient_out=decode_complex(data.get("ambient_out", 1.0), "ambient_out"),
    )
    wavelength_nm = data.get("wavelength_nm")
    return stack, (float(wavelength_nm) if wavelength_nm is not None else None)


def stack_to_dict(stack: LayerStack, wavelength_nm: float | None = None) -> dict:
    layers = []
    for layer in stack.layers:
        if isinstance(layer, Sheet):
            layers.append(
                {
                    "type": "sheet",
                    "cond": encode_complex(layer.params.cond),
                    "branching": layer.params.branching,
                    "f_sign": layer.params.f_sign,
                    "sign": layer.sign,
                }
            )
        else:
            n = complex(layer.n)
            layers.append({"type": "slab", "n_re": n.real, "n_im": n.imag, "d": layer.d})
    data = {
        "ambient_in": encode_complex(stack.ambient_in),
        "ambient_out": encode_complex(stack.ambient_out),
        "layers": layers,
    }
    if wavelength_nm is not None:
        data["wavelength_nm"] = wavelength_nm
    return data


def load_stack(path) -> tuple[LayerStack, float | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return stack_from_dict(json.load(fh))


def substrate_presets() -> dict[str, dict]:
    """Conventional handbook substrate indices shipped as package data."""
    text = resources.files("sheetoptics").joinpath("data/substrates.json").read_text()
    return json.loads(text)


def substrate_index(name: str) -> complex:
    presets = substrate_presets()
    if name not in presets:
        raise ValueError(f"unknown substrate {name!r}; have {sorted(presets)}")
    entry = presets[name]
    return complex(entry["n_re"], entry["n_im"])
