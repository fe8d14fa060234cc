"""Transfer-matrix optics for stacks of conducting sheets and dielectric slabs.

Normal incidence only; amplitudes are E-field coefficients of the
(right-moving, left-moving) pair.

Matrix convention: every element matrix of a stack maps the amplitudes on
the exit (right) side of its element to the amplitudes on its entry (left)
side.  The stack matrix is the ordered product of the element matrices in
stack order, and (1, r) = M (t, 0).

:func:`solve_sweep` solves W evaluations of one stack layout (W wavelength
scales, or W thicknesses of the last slab) in one batched pass: it builds
the (K, W, 2, 2) element array once, folds it left to right with one
batched product per element, extracts t and r, back-propagates (t, 0) to
the sheets and computes the emission ledger as (sheets, W) arrays.
:func:`solve_stack` is its W = 1 case, and the coefficient, field and
ledger functions below are views on its :class:`StackSolution`.

Every row of a batch is bit-identical to the same evaluation done alone
and to the scalar reference in ``tests/test_solve.py``, so CLI output does
not depend on how rows are batched.  The array code therefore rounds as
numpy's scalar arithmetic does: complex products are written out in real
operations (numpy's array complex multiply fuses them), magnitudes use
``hypot``, squares of magnitudes use libm ``pow``, and sums run
sequentially.

Slab thicknesses are measured in units of the reference vacuum wavelength;
``wavelength_scale`` rescales them for wavelength sweeps (scale = lambda /
lambda_ref, frequency-independent sheet conductance assumed).
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
        if not (cmath.isfinite(n) and math.isfinite(self.d)):
            raise ValueError(f"slab index and thickness must be finite, got "
                             f"n={self.n!r}, d={self.d!r}")
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
            if not cmath.isfinite(complex(n)):
                raise ValueError(f"ambient indices must be finite, got {n!r}")
            if complex(n).real <= 0:
                raise ValueError("ambient indices must have Re(n) > 0")

    def sheets(self) -> list[Sheet]:
        return [layer for layer in self.layers if isinstance(layer, Sheet)]

    @cached_property
    def _layout(self) -> _Layout:
        # element_matrices and solve_sweep both read it: one pass per stack
        return _Layout(self)


@dataclass(frozen=True)
class EmissionLedger:
    """Each sheet's emission amplitude b, return-trip phase theta and branch
    sign, one tuple each in sheet order."""

    b: tuple[complex, ...] = ()
    theta: tuple[float, ...] = ()
    signs: tuple[int, ...] = ()


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
    amplitude; ``ledger`` holds each sheet's emission amplitude and
    return-trip phase, with the sheet's own branch sign.
    """

    t: complex
    r: complex
    R: float
    T: float
    A: float
    sheet_fields: np.ndarray
    R_emission_unclamped: float
    ledger: EmissionLedger

    @property
    def R_emission(self) -> float:
        """Emission-corrected reflectance, clamped to 1 with a warning."""
        return _clamp_reflectance(self.R_emission_unclamped)


def _sheet_entries(g):
    """Entries (00, 01, 10, 11) of the sheet matrix for conductance g, a
    Python complex or a complex array (both round the same)."""
    return 1.0 + g / 2.0, g / 2.0, -g / 2.0, 1.0 - g / 2.0


def sheet_matrix(params: SheetParams) -> np.ndarray:
    """Interface matrix of one sheet: E continuity plus the B-field jump.

    cond = 0 gives the identity.
    """
    return np.array(_sheet_entries(complex(params.cond)), dtype=complex).reshape(2, 2)


def _interface_entries(n1: np.ndarray, n2: np.ndarray):
    """Entries (00, 01, 10, 11) of the interface matrix for complex arrays
    n1 and n2.  The prefactor 1/(2 n2) is a Python complex division; the
    array products round the same for any array length."""
    prefactor = np.array([1.0 / (2.0 * b) for b in n2.tolist()], dtype=complex)
    plus, minus = prefactor * (n2 + n1), prefactor * (n2 - n1)
    return plus, minus, minus, plus


def interface_matrix(n1: complex, n2: complex) -> np.ndarray:
    """Fresnel index step at normal incidence, medium n1 side to medium n2 side."""
    n1, n2 = complex(n1), complex(n2)
    if n1.real <= 0 or n2.real <= 0:
        raise ValueError("interface indices must have Re(n) > 0")
    return np.array(_interface_entries(np.array([n1]), np.array([n2]))).reshape(2, 2)


class _Layout:
    """What a stack's elements are, apart from the wavelength.

    The sheet and interface matrices are the same for every evaluation and
    are built here once; the slabs keep 2*pi*n and d for the phases.  Sheet
    columns (shape (sheets, 1)) hold what the emission ledger needs.
    """

    def __init__(self, stack: LayerStack):
        sheets, slabs_before = [], []
        slab_at, slab_n, slab_d = [], [], []
        steps = []  # (element index, n1, n2) of each index step
        self.sheet_slots: list[int] = []
        current = complex(stack.ambient_in)
        k = 0
        for layer in stack.layers:
            if isinstance(layer, Sheet):
                self.sheet_slots.append(k)
                slabs_before.append(len(slab_n))
                sheets.append(layer)
            else:
                n = complex(layer.n)
                if n != current:
                    # interface_matrix(a, b) maps a-side to b-side; the slab
                    # is on the right of this boundary.
                    steps.append((k, n, current))
                    k += 1
                slab_at.append(k)
                slab_n.append(n)
                slab_d.append(layer.d)
                current = n
            k += 1
        if complex(stack.ambient_out) != current:
            steps.append((k, complex(stack.ambient_out), current))
            k += 1

        self.n_elements = k
        self.const_at = np.array(self.sheet_slots + [i for i, _, _ in steps], dtype=int)
        params = [sheet.params for sheet in sheets]
        cond = np.array([p.cond for p in params], dtype=complex)
        n1 = np.array([n1 for _, n1, _ in steps], dtype=complex)
        n2 = np.array([n2 for _, _, n2 in steps], dtype=complex)
        self.const = np.concatenate([
            np.stack(_sheet_entries(cond), axis=-1).reshape(-1, 2, 2),
            np.stack(_interface_entries(n1, n2), axis=-1).reshape(-1, 2, 2),
        ])
        self.slab_at = np.array(slab_at, dtype=int)
        n = np.array(slab_n, dtype=complex)
        self.k_re, self.k_im = TWO_PI * n.real, TWO_PI * n.imag
        self.slab_d = np.array(slab_d, dtype=float)
        self.slabs_before = np.array(slabs_before, dtype=int)

        # ledger inputs as (sheets, 1) columns
        self.cond_re = cond.real.reshape(-1, 1)
        self.half_branching = _column([p.branching for p in params]) / 2.0
        self.neg_f_sign = -_column([p.f_sign for p in params])
        self.signs = tuple(sheet.sign for sheet in sheets)
        self.sign_column = _column(self.signs)
        self.ratio = complex(stack.ambient_out).real / complex(stack.ambient_in).real

    def slab_phases(self, wavelength_scale, last_slab_d=None):
        """Real and imaginary parts of phi = 2*pi*n*d / scale, shape (slabs, W)."""
        scales = np.asarray(wavelength_scale, dtype=float).reshape(-1)
        if not np.all(scales > 0):
            raise ValueError("wavelength_scale must be positive")
        d = self.slab_d[:, None]
        if last_slab_d is not None:
            last = np.asarray(last_slab_d, dtype=float).reshape(-1)
            if not len(d):
                raise ValueError("last_slab_d needs a slab in the stack")
            if np.any(last < 0):
                raise ValueError("slab thickness must be >= 0")
            width = np.broadcast_shapes(scales.shape, last.shape)[0]
            d = np.repeat(d, width, axis=1)
            d[-1] = last
        d = d + 0.0  # -0.0 becomes +0.0, the phase Python complex arithmetic gave
        return (self.k_re[:, None] * d) / scales, (self.k_im[:, None] * d) / scales


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def element_matrices(stack: LayerStack, wavelength_scale=1.0, last_slab_d=None) -> np.ndarray:
    """Element matrices in stack order; their ordered product is the stack matrix.

    A scalar ``wavelength_scale`` gives shape (K, 2, 2).  An array of W
    scales, or an array ``last_slab_d`` of W thicknesses for the stack's
    last slab, gives shape (K, W, 2, 2); a length-1 array broadcasts over
    the other.
    """
    layout = stack._layout
    phi_re, phi_im = layout.slab_phases(wavelength_scale, last_slab_d)
    mats = np.zeros((layout.n_elements, phi_re.shape[1], 2, 2), dtype=complex)
    mats[layout.const_at] = layout.const[:, None]
    # A slab maps exit to entry: diag(e^{-i phi}, e^{i phi}).
    mats[layout.slab_at, :, 0, 0] = np.exp(_join(phi_im, -phi_re))
    mats[layout.slab_at, :, 1, 1] = np.exp(_join(-phi_im, phi_re))
    if np.ndim(wavelength_scale) or np.ndim(last_slab_d):
        return mats
    return mats[:, 0]


def solve_sweep(stack: LayerStack, wavelength_scales, last_slab_d=None) -> list[StackSolution]:
    """Solve W evaluations of one stack layout in one batched pass.

    Row w evaluates the stack at ``wavelength_scales[w]`` and, when
    ``last_slab_d`` is given, with ``last_slab_d[w]`` as the thickness of
    its last slab; a length-1 argument broadcasts over the other.  Each
    row equals the same evaluation solved alone, bit for bit.

    Raises :class:`SingularStack` when the pivot M00 of any row's stack
    matrix vanishes or the product overflows.
    """
    layout = stack._layout
    scales = np.asarray(wavelength_scales, dtype=float).reshape(-1)
    mats = element_matrices(stack, scales, last_slab_d)
    # numpy multiplies 2-D matrices faster than a stack of one, and with the
    # same BLAS call, so a lone row folds as (K, 2, 2).
    factors = mats[:, 0] if mats.shape[1] == 1 else mats
    m = np.broadcast_to(np.eye(2, dtype=complex), factors.shape[1:])
    for factor in factors:
        m = m @ factor
    m = m.reshape(-1, 2, 2)
    m00 = m[:, 0, 0]
    if np.any((np.hypot(m00.real, m00.imag) < DEGENERATE_TOL)
              | ~np.isfinite(m).all(axis=(1, 2))):
        raise SingularStack("stack transfer matrix is numerically singular")
    t = 1.0 / m00
    r = m[:, 1, 0] / m00

    # Back-propagate (t, 0) from the exit side.  Just right of a sheet v
    # holds the amplitudes there, and the field is continuous across it.
    v = np.zeros(factors.shape[1:-1] + (1,), dtype=complex)
    v[..., 0, 0] = t.reshape(v.shape[:-2])
    fields = np.empty((len(layout.sheet_slots), len(t)), dtype=complex)
    j = len(factors)
    for i in reversed(range(len(fields))):
        while j > layout.sheet_slots[i] + 1:
            j -= 1
            v = factors[j] @ v
        fields[i] = v[..., 0, 0] + v[..., 1, 0]

    # One-way phase from the front surface to each sheet, summed in order.
    phi_re, phi_im = layout.slab_phases(scales, last_slab_d)
    zero = np.zeros((1, len(t)))
    front_re = np.cumsum(np.concatenate([zero, phi_re]), axis=0)[layout.slabs_before]
    front_im = np.cumsum(np.concatenate([zero, phi_im]), axis=0)[layout.slabs_before]
    b, theta = _emission(layout, fields, front_re, front_im, t + r)

    R = _square(np.hypot(r.real, r.imag))
    T = layout.ratio * _square(np.hypot(t.real, t.imag))
    A = 1.0 - R - T
    R_emission = _emission_reflectance(r, b, theta)
    return [StackSolution(t=t_w, r=r_w, R=R_w, T=T_w, A=A_w, sheet_fields=fields_w,
                          R_emission_unclamped=emission_w,
                          ledger=EmissionLedger(tuple(b_w), tuple(theta_w), layout.signs))
            for t_w, r_w, R_w, T_w, A_w, fields_w, emission_w, b_w, theta_w in zip(
                t.tolist(), r.tolist(), R.tolist(), T.tolist(), A.tolist(),
                fields.T.copy(), R_emission.tolist(), b.T.tolist(), theta.T.tolist())]


def solve_stack(stack: LayerStack, wavelength_scale: float = 1.0) -> StackSolution:
    """Solve the stack once: coefficients, sheet fields and emission ledger.

    Raises :class:`SingularStack` when the pivot M00 of the stack matrix
    vanishes or the product overflows.
    """
    return solve_sweep(stack, [wavelength_scale])[0]


def _join(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts, no arithmetic."""
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    z.real, z.imag = re, im
    return z


def _cmul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), rounded as numpy's
    scalar complex multiply rounds (its array multiply fuses them)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 by libm pow, as a float64 scalar ``** 2`` rounds (the array
    ``** 2`` is x * x, which differs in the last bit on a few inputs)."""
    return np.fromiter(map(math.pow, x.ravel().tolist(), repeat(2.0)),
                       dtype=float, count=x.size).reshape(x.shape)


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


def _emission(layout: _Layout, fields, front_re, front_im, t_plus_r):
    """Emission amplitudes b and phases theta, shape (sheets, W).

    For a sheet with field f and front phase phi, b = -f_sign amp f damping
    and theta is the angle of sign unit amp |f| damping e^{2i Re phi} over
    b, with amp = sqrt(branching/2 Re(cond) |f|^2), damping = e^{-2 Im phi}
    and unit = (t + r)/|t + r|.  The products run left to right, as written.
    """
    field_abs = np.hypot(fields.real, fields.imag)
    amp = np.sqrt(layout.half_branching * (layout.cond_re * _square(field_abs)))
    damping = np.exp(-2.0 * front_im)  # return trip through lossy slabs
    b_re, b_im = _cmul(layout.neg_f_sign * amp, 0.0, fields.real, fields.imag)
    b_re, b_im = _cmul(b_re, b_im, damping, 0.0)

    norm = np.hypot(t_plus_r.real, t_plus_r.imag)
    degenerate = norm < DEGENERATE_TOL
    unit = t_plus_r / np.where(degenerate, 1.0, norm)
    unit[degenerate] = 1j  # branch phase in quadrature when t + r vanishes
    z_re, z_im = _cmul(layout.sign_column, 0.0, unit.real, unit.imag)
    for factor in (amp, field_abs, damping):
        z_re, z_im = _cmul(z_re, z_im, factor, 0.0)
    turn = np.exp(_join(0.0, 2.0 * front_re))
    z_re, z_im = _cmul(z_re, z_im, turn.real, turn.imag)

    b = _join(b_re, b_im)
    silent = np.hypot(b_re, b_im) < DEGENERATE_TOL
    theta = np.angle(_join(z_re, z_im) / np.where(silent, 1.0, b)) % TWO_PI
    theta[silent] = 0.0
    return b, theta


def build_emission_ledger(stack: LayerStack, wavelength_scale: float = 1.0) -> EmissionLedger:
    """Assemble per-sheet emission amplitudes and return-trip phases.

    b_j generalizes the single-sheet formula with the local field at sheet j
    (return-trip attenuation through lossy slabs folded into |b_j|); theta_j
    is the doubled front-surface propagation phase plus the decoupling branch
    phase of sign_j referenced to the stack-level t + r.  When t + r vanishes
    at the stack level the branch phase is taken in quadrature, which makes
    the reflectance independent of the (then degenerate) branch choice.
    Each sheet's own branch sign is used; to use other signs, build the
    stack with them.
    """
    return solve_stack(stack, wavelength_scale).ledger


def _emission_reflectance(r, b, theta) -> np.ndarray:
    """|r + sum_j e^{i theta_j} b_j|^2 for each of W columns of b, theta."""
    turn = np.exp(_join(0.0, theta))
    x_re, x_im = _cmul(turn.real, turn.imag, b.real, b.imag)
    zero = np.zeros((1, len(r)))
    sum_re = np.cumsum(np.concatenate([zero, x_re]), axis=0)[-1]
    sum_im = np.cumsum(np.concatenate([zero, x_im]), axis=0)[-1]
    return _square(np.hypot(r.real + sum_re, r.imag + sum_im))


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
    n_sheets = len(stack.sheets())
    if not len(ledger.b) == len(ledger.theta) == n_sheets:
        raise LedgerMismatch(
            f"ledger has {len(ledger.b)} amplitudes and {len(ledger.theta)} "
            f"phases for {n_sheets} sheets"
        )
    r = np.array([solve_stack(stack, wavelength_scale).r], dtype=complex)
    b = np.array(ledger.b, dtype=complex).reshape(-1, 1)
    theta = np.array(ledger.theta, dtype=float).reshape(-1, 1)
    return _clamp_reflectance(_emission_reflectance(r, b, theta).item())


# ---------------------------------------------------------------------------
# Stack description files


def _number(convert, value, what: str):
    """``convert(value)`` (float or int), a ValueError naming ``what`` if it
    fails or the value is not finite."""
    try:
        number = convert(value) if math.isfinite(float(value)) else None
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if number is None:
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def stack_from_dict(data: dict) -> tuple[LayerStack, float | None]:
    """Build a stack from its JSON-compatible description.

    Returns the stack and the optional reference wavelength in nm.  A
    malformed description raises ValueError naming the offending field.
    """
    if not isinstance(data, dict):
        raise ValueError("stack description must be a JSON object")
    entries = data.get("layers", [])
    if not isinstance(entries, list):
        raise ValueError("layers must be a list of layer objects")
    layers: list[Layer] = []
    for i, entry in enumerate(entries):
        where = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        kind = entry.get("type")
        if kind == "sheet":
            params = SheetParams(
                cond=decode_complex(entry.get("cond", 0.0), f"{where}.cond"),
                branching=_number(float, entry.get("branching", 1.0), f"{where}.branching"),
                f_sign=_number(int, entry.get("f_sign", 1), f"{where}.f_sign"),
            )
            layers.append(Sheet(params=params,
                                sign=_number(int, entry.get("sign", -1), f"{where}.sign")))
        elif kind == "slab":
            if "d" not in entry:
                raise ValueError(f"{where}.d is required")
            n_re = _number(float, entry.get("n_re", 1.0), f"{where}.n_re")
            n_im = _number(float, entry.get("n_im", 0.0), f"{where}.n_im")
            layers.append(Slab(n=complex(n_re, n_im),
                               d=_number(float, entry["d"], f"{where}.d")))
        else:
            raise ValueError(f"{where}.type must be 'sheet' or 'slab', got {kind!r}")
    stack = LayerStack(
        layers=tuple(layers),
        ambient_in=decode_complex(data.get("ambient_in", 1.0), "ambient_in"),
        ambient_out=decode_complex(data.get("ambient_out", 1.0), "ambient_out"),
    )
    wavelength_nm = data.get("wavelength_nm")
    if wavelength_nm is not None:
        wavelength_nm = _number(float, wavelength_nm, "wavelength_nm")
        if wavelength_nm <= 0:
            raise ValueError(f"wavelength_nm must be positive, got {data['wavelength_nm']!r}")
    return stack, wavelength_nm


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
