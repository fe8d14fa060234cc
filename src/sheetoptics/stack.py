"""Transfer-matrix optics for stacks of conducting sheets and dielectric slabs.

Normal incidence only; amplitudes are E-field coefficients of the
(right-moving, left-moving) pair.

Matrix convention: every element matrix of a stack maps the amplitudes on
the exit (right) side of its element to the amplitudes on its entry (left)
side.  The stack matrix is the ordered product of the element matrices in
stack order, and (1, r) = M (t, 0).

:func:`solve_sweep` solves W evaluations of one stack layout (W wavelength
scales, or W thicknesses of the last slab) in one batched pass.  It builds
the (K, W, 2, 2) element array once and runs one associative scan over it
(Blelloch, "Prefix sums and their applications", 1990): an up-sweep of
pairwise products gives the stack matrix M, and a down-sweep gives column 0
of every suffix product, from which t, r and the field at every sheet
follow.  That is O(K) work in O(log K) numpy calls.  The emission ledger is
then computed as (sheets, W) arrays.  :func:`solve_stack` is its W = 1
case, and the coefficient, field and ledger functions below are views on
its :class:`StackSolution`.

Every row of a batch is bit-identical to the same evaluation done alone,
so CLI output does not depend on how rows are batched: every operation is
elementwise on operands of equal ndim, and sums over sheets run in order.
The scan multiplies in another order than a left-to-right fold, so results
agree with that fold to a normwise bound of a small multiple of
K eps |t| prod_k ||A_k||_2, not bit for bit.

Slab thicknesses are measured in units of the reference vacuum wavelength;
``wavelength_scale`` rescales them for wavelength sweeps (scale = lambda /
lambda_ref, frequency-independent sheet conductance assumed).
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from importlib import resources
from typing import NamedTuple

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


class _LayerColumns:
    """The ``layers`` field of :class:`LayerStack`, a descriptor-typed
    dataclass field: setting it stores the layers as :class:`_Columns`,
    reading it builds the layer objects from them on first read."""

    def __get__(self, stack, owner=None):
        if stack is None:
            return ()  # the field's default
        if "layers" not in vars(stack):
            vars(stack)["layers"] = stack._columns.layers()
        return vars(stack)["layers"]

    def __set__(self, stack, layers):
        vars(stack)["_columns"] = (layers if isinstance(layers, _Columns)
                                   else _Columns.of_layers(layers))


@dataclass(frozen=True)
class LayerStack:
    """Ordered layer sequence between two semi-infinite ambient media.

    A stack holds its layers as columns (see :class:`_Columns`), whether
    it was built from ``Sheet`` and ``Slab`` objects or read from a
    description file.  ``layers`` is a read-only view: a tuple of layer
    objects built from the columns on first read.
    """

    layers: tuple[Layer, ...] = _LayerColumns()
    ambient_in: complex = 1.0
    ambient_out: complex = 1.0

    def __post_init__(self):
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


class _Columns(NamedTuple):
    """A stack's layers as columns.

    ``is_sheet`` marks each layer in stack order; ``cond``, ``branching``,
    ``f_sign`` and ``sign`` hold one entry per sheet and ``n`` and ``d``
    one per slab, each in stack order.
    """

    is_sheet: np.ndarray  # bool
    cond: np.ndarray  # complex
    branching: np.ndarray  # float
    f_sign: list[int]
    sign: tuple[int, ...]
    n: np.ndarray  # complex
    d: np.ndarray  # float

    @classmethod
    def of_layers(cls, layers) -> _Columns:
        layers = tuple(layers)
        for i, layer in enumerate(layers):
            if not isinstance(layer, Layer):
                raise TypeError(f"layers[{i}] must be a Sheet or a Slab, got {layer!r}")
        sheets = [layer for layer in layers if isinstance(layer, Sheet)]
        slabs = [layer for layer in layers if isinstance(layer, Slab)]
        return cls(
            is_sheet=np.array([isinstance(layer, Sheet) for layer in layers], dtype=bool),
            cond=np.array([s.params.cond for s in sheets], dtype=complex),
            branching=np.array([s.params.branching for s in sheets], dtype=float),
            f_sign=[s.params.f_sign for s in sheets],
            sign=tuple(s.sign for s in sheets),
            n=np.array([complex(s.n) for s in slabs], dtype=complex),
            d=np.array([s.d for s in slabs], dtype=float),
        )

    def layers(self) -> tuple[Layer, ...]:
        sheets = map(Sheet, map(SheetParams, self.cond.tolist(), self.branching.tolist(),
                                self.f_sign), self.sign)
        slabs = map(Slab, self.n.tolist(), self.d.tolist())
        return tuple(next(sheets) if is_sheet else next(slabs)
                     for is_sheet in self.is_sheet.tolist())


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
    half = g / 2.0
    return 1.0 + half, half, -g / 2.0, 1.0 - half


def sheet_matrix(params: SheetParams) -> np.ndarray:
    """Interface matrix of one sheet: E continuity plus the B-field jump.

    cond = 0 gives the identity.
    """
    return np.array(_sheet_entries(complex(params.cond)), dtype=complex).reshape(2, 2)


def _interface_entries(n1: np.ndarray, n2: np.ndarray):
    """Entries (00, 01, 10, 11) of the interface matrix for complex arrays
    n1 and n2."""
    prefactor = 0.5 / n2
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
        columns = stack._columns
        ambient_in, ambient_out = complex(stack.ambient_in), complex(stack.ambient_out)
        is_sheet, cond, n = columns.is_sheet, columns.cond, columns.n
        # A boundary comes before each slab and at the exit.  Where the media
        # on its two sides differ, it holds an index step: one interface
        # element, which maps the right side to the left side.
        left = np.concatenate(([ambient_in], n))
        right = np.concatenate((n, [ambient_out]))
        step = left != right
        steps_through = np.add.accumulate(step, dtype=int)
        sheet_at, slab_at = is_sheet.nonzero()[0], (~is_sheet).nonzero()[0]
        # element index just right of each boundary
        after = np.concatenate((slab_at, [len(is_sheet)])) + steps_through
        self.n_elements = int(after[-1])
        self.slab_at = after[:-1]
        self.has_slab = bool(len(n))
        self.slabs_before = sheet_at - np.arange(len(sheet_at))
        sheet_at += np.concatenate(([0], steps_through))[self.slabs_before]
        self.after_sheets = sheet_at + 1
        step_at, n1, n2 = after[step] - 1, right[step], left[step]
        self.const_at = np.concatenate((sheet_at, step_at))
        self.const = np.empty((len(self.const_at), 2, 2), dtype=complex)
        sheet_mats, step_mats = self.const[:len(sheet_at)], self.const[len(sheet_at):]
        (sheet_mats[:, 0, 0], sheet_mats[:, 0, 1],
         sheet_mats[:, 1, 0], sheet_mats[:, 1, 1]) = _sheet_entries(cond)
        (step_mats[:, 0, 0], step_mats[:, 0, 1],
         step_mats[:, 1, 0], step_mats[:, 1, 1]) = _interface_entries(n1, n2)
        self.k_re, self.k_im = TWO_PI * n.real, TWO_PI * n.imag
        self.slab_d = columns.d

        # ledger inputs as (sheets, 1) columns
        self.cond_re = cond.real.reshape(-1, 1)
        self.half_branching = columns.branching.reshape(-1, 1) / 2.0
        self.neg_f_sign = -_column(columns.f_sign)
        self.signs = columns.sign
        self.sign_column = _column(self.signs)
        self.ratio = ambient_out.real / ambient_in.real

    def slab_phases(self, wavelength_scale, last_slab_d=None):
        """Real and imaginary parts of phi = 2*pi*n*d / scale, shape (slabs, W)."""
        scales = np.asarray(wavelength_scale, dtype=float).reshape(-1)
        if not np.all(scales > 0):
            raise ValueError("wavelength_scale must be positive")
        d = self.slab_d[:, None]
        if last_slab_d is not None:
            last = np.asarray(last_slab_d, dtype=float).reshape(-1)
            if not self.has_slab:
                raise ValueError("last_slab_d needs a slab in the stack")
            if np.any(last < 0):
                raise ValueError("slab thickness must be >= 0")
            width = np.broadcast_shapes(scales.shape, last.shape)[0]
            d = np.repeat(d, width, axis=1)
            d[-1] = last
        d = d + 0.0  # -0.0 becomes +0.0: a zero thickness has phase +0
        return (self.k_re[:, None] * d) / scales, (self.k_im[:, None] * d) / scales


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def element_matrices(stack: LayerStack, wavelength_scale=1.0, last_slab_d=None, *,
                     phases=None) -> np.ndarray:
    """Element matrices in stack order; their ordered product is the stack matrix.

    A scalar ``wavelength_scale`` gives shape (K, 2, 2).  An array of W
    scales, or an array ``last_slab_d`` of W thicknesses for the stack's
    last slab, gives shape (K, W, 2, 2); a length-1 array broadcasts over
    the other.  ``phases``, the layout's ``slab_phases`` of the same
    arguments, saves computing them again.
    """
    layout = stack._layout
    if phases is None:
        phases = layout.slab_phases(wavelength_scale, last_slab_d)
    phi_re, phi_im = phases
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
    # An overflow here leaves a non-finite entry in M, which the check
    # below reports as SingularStack; numpy need not warn about it too.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_re, phi_im = phases = layout.slab_phases(scales, last_slab_d)
        mats = element_matrices(stack, scales, last_slab_d, phases=phases)
        if not len(mats):
            mats = np.broadcast_to(np.eye(2, dtype=complex), (1,) + mats.shape[1:])
        levels = _pair_products([mats[..., 0, 0], mats[..., 0, 1],
                                 mats[..., 1, 0], mats[..., 1, 1]])
    m00, m01, m10, m11 = (entry[0] for entry in levels[-1])
    if np.any((np.abs(m00) < DEGENERATE_TOL)
              | ~np.isfinite([m00, m01, m10, m11]).all(axis=0)):
        raise SingularStack("stack transfer matrix is numerically singular")
    t = 1.0 / m00
    r = m10 / m00

    # The amplitudes just right of a sheet at slot s are S (t, 0), with S
    # the product of the elements after it, and the field is continuous
    # across the sheet.
    u0, u1 = _suffix_columns(levels)
    ends = np.concatenate((u0 + u1, np.ones((1, len(t)))))
    fields = t[None, :] * ends[layout.after_sheets]

    # One-way phase from the front surface to each sheet, summed in order.
    zero = np.zeros((1, len(t)))
    front_re = np.cumsum(np.concatenate([zero, phi_re]), axis=0)[layout.slabs_before]
    front_im = np.cumsum(np.concatenate([zero, phi_im]), axis=0)[layout.slabs_before]
    b, theta = _emission(layout, fields, front_re, front_im, t + r)

    R = np.abs(r) ** 2
    T = layout.ratio * np.abs(t) ** 2
    A = 1.0 - R - T
    R_emission = _emission_reflectance(r, b, theta)
    return [StackSolution(t=t_w, r=r_w, R=R_w, T=T_w, A=A_w, sheet_fields=fields_w,
                          R_emission_unclamped=emission_w,
                          ledger=EmissionLedger(tuple(b_w), tuple(theta_w), layout.signs))
            for t_w, r_w, R_w, T_w, A_w, fields_w, emission_w, b_w, theta_w in zip(
                t.tolist(), r.tolist(), R.tolist(), T.tolist(), A.tolist(),
                fields.T.copy(), R_emission.tolist(), b.T.tolist(), theta.T.tolist())]


def _pair_products(entries: list) -> list:
    """Up-sweep of the scan over 2x2 matrices A_0 ... A_{K-1}, K >= 1.

    ``entries`` holds the entries (00, 01, 10, 11) of the matrices, each a
    (K, W) array.  Each level multiplies neighbours pairwise, A_0 A_1,
    A_2 A_3, ..., and carries an odd last matrix over unpaired.  Returns
    every level; the last has one matrix, the ordered product.
    """
    levels = [entries]
    while len(entries[0]) > 1:
        a, b, c, d = entries
        pairs = 2 * (len(a) // 2)
        a0, b0, c0, d0 = (x[0:pairs:2] for x in entries)
        a1, b1, c1, d1 = (x[1:pairs:2] for x in entries)
        entries = [a0 * a1 + b0 * c1, a0 * b1 + b0 * d1, c0 * a1 + d0 * c1, c0 * b1 + d0 * d1]
        if pairs < len(a):
            entries = [np.concatenate((x, odd[-1:])) for x, odd in zip(entries, (a, b, c, d))]
        levels.append(entries)
    return levels


def _suffix_columns(levels: list):
    """Down-sweep: column 0 of every suffix product A_s ... A_{K-1}.

    Walks the levels of :func:`_pair_products` from the top.  A suffix
    that starts at an even position of a level is a suffix of the level
    above; one that starts at an odd position 2i + 1 is A_{2i+1} times the
    suffix from 2i + 2.  Returns the two components, each (K, W).
    """
    u0, u1 = levels[-1][0], levels[-1][2]
    for a, b, c, d in reversed(levels[:-1]):
        # odd positions 2i + 1 whose suffix from 2i + 2 is on the level above
        inner = slice(1, 2 * len(u0) - 2, 2)
        v0, v1 = np.empty_like(a), np.empty_like(c)
        v0[0::2], v1[0::2] = u0, u1
        v0[inner] = a[inner] * u0[1:] + b[inner] * u1[1:]
        v1[inner] = c[inner] * u0[1:] + d[inner] * u1[1:]
        if len(a) % 2 == 0:
            # the last matrix's suffix is itself
            v0[-1], v1[-1] = a[-1], c[-1]
        u0, u1 = v0, v1
    return u0, u1


def solve_stack(stack: LayerStack, wavelength_scale: float = 1.0) -> StackSolution:
    """Solve the stack once: coefficients, sheet fields and emission ledger.

    Raises :class:`SingularStack` when the pivot M00 of the stack matrix
    vanishes or the product overflows.
    """
    return solve_sweep(stack, [wavelength_scale])[0]


def _join(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts, no arithmetic."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


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
    it, so the integer minimizer over N >= 1 is max(1, floor(2/g)) or
    ceil(2/g); ties go to the smaller N.
    """
    if not cond > 0:
        raise ValueError("cond must be positive")
    n_exact = 2.0 / cond
    if not math.isfinite(n_exact):
        raise ValueError("cond is too small for a finite layer number")
    candidates = {max(1, math.floor(n_exact)), math.ceil(n_exact)}
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
    and unit = (t + r)/|t + r|.
    """
    field_abs = np.abs(fields)
    amp = np.sqrt(layout.half_branching * (layout.cond_re * field_abs ** 2))
    damping = np.exp(-2.0 * front_im)  # return trip through lossy slabs
    b = (layout.neg_f_sign * amp * damping) * fields

    norm = np.abs(t_plus_r)
    degenerate = norm < DEGENERATE_TOL
    unit = t_plus_r / np.where(degenerate, 1.0, norm)
    unit[degenerate] = 1j  # branch phase in quadrature when t + r vanishes
    # Not z *= ...: numpy multiplies a complex array of one element in place
    # by another loop than any other shape, which would make a row of a
    # batch differ from the same row solved alone.
    z = (layout.sign_column * amp * field_abs * damping) * unit[None, :] \
        * np.exp(_join(0.0, 2.0 * front_re))

    silent = np.abs(b) < DEGENERATE_TOL
    theta = np.angle(z / np.where(silent, 1.0, b)) % TWO_PI
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
    emitted = np.exp(_join(0.0, theta)) * b
    # summed in sheet order, so a row's sum does not depend on W
    total = np.cumsum(np.concatenate((r[None, :], emitted)), axis=0)[-1]
    return np.abs(total) ** 2


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
    n_sheets = len(stack._columns.sign)
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


def _number(value, what: str) -> float:
    """``float(value)``, a ValueError naming ``what`` if it fails or the
    value is not finite."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _sign(value, what: str) -> int:
    """A branch sign: a number equal to an integer, a ValueError naming
    ``what`` otherwise.  Whether it is +1 or -1 is checked by the layer."""
    number = _number(value, what)
    if number != int(number):
        raise ValueError(f"{what} must be +1 or -1, got {value!r}")
    return int(number)


def _clean_columns(entries: list) -> _Columns | None:
    """Columns of clean layer entries, or None.

    A clean entry is an object of type "sheet" or "slab" whose numbers are
    finite and in range.  ``array('d')`` converts each number as ``float``
    does, or raises, and a sign equal to +1 or -1 converts by ``int``, so
    a clean description gives the stack that the per-layer loop of
    :func:`stack_from_dict` gives.  That loop reads every description this
    function returns None for: it converts what it accepts or raises the
    error naming the first bad field.
    """
    if set(map(type, entries)) - {dict}:
        return None
    kinds = [entry.get("type") for entry in entries]
    if kinds.count("sheet") + kinds.count("slab") != len(kinds):
        return None
    is_sheet = list(map("sheet".__eq__, kinds))
    sheets = list(compress(entries, is_sheet))
    slabs = list(compress(entries, map("slab".__eq__, kinds)))
    # cond is a float or an [re, im] pair; the pair's parts convert by float
    cond = [[c, 0.0] if type(c := entry.get("cond", 0.0)) is float else c for entry in sheets]
    signs = ([entry.get("f_sign", 1) for entry in sheets]
             + [entry.get("sign", -1) for entry in sheets])
    if (any(type(c) is not list or len(c) != 2 for c in cond)
            or signs.count(1) + signs.count(-1) != len(signs)):
        return None
    try:
        values = np.frombuffer(array("d", [c[1] for c in cond] + [c[0] for c in cond]
                                     + [entry.get("branching", 1.0) for entry in sheets]
                                     + [entry.get("n_im", 0.0) for entry in slabs]
                                     + [entry.get("d") for entry in slabs]
                                     + [entry.get("n_re", 1.0) for entry in slabs]),
                               dtype=float)
    except (TypeError, OverflowError):
        return None
    cond_im, cond_re, branching = values[:3 * len(sheets)].reshape(3, -1)
    n_im, d, n_re = values[3 * len(sheets):].reshape(3, -1)
    # cond_re, branching, n_im and d are the values from len(sheets) to the
    # start of n_re.
    if not (np.isfinite(values).all()
            and np.minimum.reduce(values[len(sheets):len(values) - len(slabs)],
                                  initial=math.inf) >= 0.0
            and np.maximum.reduce(branching, initial=-math.inf) <= 1.0
            and np.minimum.reduce(n_re, initial=math.inf) > 0.0):
        return None
    signs = list(map(int, signs))
    return _Columns(is_sheet=np.array(is_sheet, dtype=bool), cond=_join(cond_re, cond_im),
                    branching=branching, f_sign=signs[:len(sheets)],
                    sign=tuple(signs[len(sheets):]), n=_join(n_re, n_im), d=d)


def stack_from_dict(data: dict) -> tuple[LayerStack, float | None]:
    """Build a stack from its JSON-compatible description.

    Returns the stack and the optional reference wavelength in nm.  A
    malformed description raises ValueError naming the offending field.
    The layers are read as columns; only a description that needs
    conversion or holds a bad field goes through layer objects.
    """
    if not isinstance(data, dict):
        raise ValueError("stack description must be a JSON object")
    entries = data.get("layers", [])
    if not isinstance(entries, list):
        raise ValueError("layers must be a list of layer objects")
    columns = _clean_columns(entries)
    layers: list[Layer] = []
    for i, entry in enumerate(entries if columns is None else ()):
        where = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        kind = entry.get("type")
        if kind == "sheet":
            params = SheetParams(
                cond=decode_complex(entry.get("cond", 0.0), f"{where}.cond"),
                branching=_number(entry.get("branching", 1.0), f"{where}.branching"),
                f_sign=_sign(entry.get("f_sign", 1), f"{where}.f_sign"),
            )
            layers.append(Sheet(params=params,
                                sign=_sign(entry.get("sign", -1), f"{where}.sign")))
        elif kind == "slab":
            if "d" not in entry:
                raise ValueError(f"{where}.d is required")
            n_re = _number(entry.get("n_re", 1.0), f"{where}.n_re")
            n_im = _number(entry.get("n_im", 0.0), f"{where}.n_im")
            layers.append(Slab(n=complex(n_re, n_im),
                               d=_number(entry["d"], f"{where}.d")))
        else:
            raise ValueError(f"{where}.type must be 'sheet' or 'slab', got {kind!r}")
    ambient_in = decode_complex(data.get("ambient_in", 1.0), "ambient_in")
    ambient_out = decode_complex(data.get("ambient_out", 1.0), "ambient_out")
    stack = LayerStack(layers=layers if columns is None else columns,
                       ambient_in=ambient_in, ambient_out=ambient_out)
    wavelength_nm = data.get("wavelength_nm")
    if wavelength_nm is not None:
        wavelength_nm = _number(wavelength_nm, "wavelength_nm")
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
