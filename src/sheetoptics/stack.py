"""Transfer-matrix optics for stacks of conducting sheets and dielectric slabs.

Normal incidence only; amplitudes are E-field coefficients of the
(right-moving, left-moving) pair.

Matrix convention: every element matrix of a stack maps the amplitudes on
the exit (right) side of its element to the amplitudes on its entry (left)
side.  The stack matrix is the ordered product of the element matrices in
stack order, and (1, r) = M (t, 0).

:func:`solve_sweep` solves W evaluations of one stack layout (W wavelength
scales, or W thicknesses of the last slab) in one batched pass.  It builds
the element entries once, as one (2, 2, K, W) array, and runs one
recursive associative scan over it (Ladner & Fischer, J. ACM 27, 831,
1980; Blelloch, "Prefix sums and their applications", 1990): it
multiplies neighbours pairwise, a few broadcast products over the whole
array, recurses on the half-length sequence, and expands the suffixes it
gets back to its own length.  That gives the stack matrix M and column 0
of every suffix product, from which t, r and the field at every sheet
follow, in O(K) work and O(log K) numpy calls.  The emission ledger is
then computed as (sheets, W) arrays.  It returns a :class:`StackSweep`,
which keeps every result as a (W,) or (sheets, W) array; indexing it
builds one row's :class:`StackSolution`.  :func:`solve_stack` is its
row 0 for W = 1, and the coefficient, field and ledger functions below are
views on that :class:`StackSolution`.

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
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from importlib import resources
from typing import NamedTuple, NoReturn

import numpy as np

from .codec import complex_parts, decode_complex, encode_complex, floats, load_json
from .errors import LedgerMismatch, SingularStack
from .surface import DEGENERATE_TOL, TWO_PI, ScatterCoeffs, SheetParams
# The N-sheet closed form lives in surface, which needs no numpy; its names
# stay readable here, where bench/selfcheck.py reads stack.nlayer_replacement.
from .surface import DecouplingSearch, decoupling_layer_number, nlayer_replacement  # noqa: F401


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
        for name in ("ambient_in", "ambient_out"):
            n = getattr(self, name)
            if not cmath.isfinite(complex(n)):
                raise ValueError(f"{name} must be finite, got {n!r}")
            if complex(n).real <= 0:
                raise ValueError(f"{name}: Re(n) must be > 0")

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


@dataclass(frozen=True, eq=False)
class StackSweep:
    """W solves of one stack layout, as columns.

    ``t``, ``r``, ``R``, ``T``, ``A`` and ``R_emission_unclamped`` are (W,)
    arrays; ``sheet_fields``, ``b`` and ``theta`` are (sheets, W) arrays,
    and ``signs`` holds each sheet's branch sign.  ``sweep[w]`` is row w as
    a :class:`StackSolution` with Python scalars; ``len`` and iteration
    give the rows.
    """

    t: np.ndarray
    r: np.ndarray
    R: np.ndarray
    T: np.ndarray
    A: np.ndarray
    sheet_fields: np.ndarray
    R_emission_unclamped: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    signs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, w: int) -> StackSolution:
        w = operator.index(w)
        if not -len(self) <= w < len(self):
            raise IndexError(f"sweep row {w} out of range for {len(self)} rows")
        return StackSolution(
            t=self.t[w].item(), r=self.r[w].item(),
            R=self.R[w].item(), T=self.T[w].item(), A=self.A[w].item(),
            sheet_fields=self.sheet_fields[:, w].copy(),
            R_emission_unclamped=self.R_emission_unclamped[w].item(),
            ledger=EmissionLedger(tuple(self.b[:, w].tolist()),
                                  tuple(self.theta[:, w].tolist()), self.signs))

    def __iter__(self) -> Iterator[StackSolution]:
        return map(self.__getitem__, range(len(self)))

    @property
    def R_emission(self) -> np.ndarray:
        """Emission-corrected reflectance, clamped to 1 as
        :attr:`StackSolution.R_emission` is: one warning per clamped row,
        in row order."""
        unclamped = self.R_emission_unclamped
        over = unclamped > 1.0
        for reflectance in unclamped[over].tolist():
            _clamp_reflectance(reflectance)
        return np.where(over, 1.0, unclamped)


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
    """Fresnel index step at normal incidence, medium n1 side to medium n2 side.

    A stack's element maps its exit (right) side to its entry (left) side,
    so a stack's step is ``interface_matrix(n_right, n_left)``: the
    exit-side index comes first.
    """
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
        # An entry too large for a float is inf or nan here, and its stack
        # singular (see solve_sweep).
        with np.errstate(over="ignore", invalid="ignore"):
            # entries (00, 01, 10, 11) as a (2, 2, sheets + steps) array
            self.const = np.concatenate((_sheet_entries(cond), _interface_entries(n1, n2)),
                                        axis=1).reshape(2, 2, len(self.const_at))
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
        _check_finite("wavelength_scale", scales)
        if not np.all(scales > 0):
            raise ValueError("wavelength_scale must be positive")
        d = self.slab_d[:, None]
        if last_slab_d is not None:
            last = np.asarray(last_slab_d, dtype=float).reshape(-1)
            if not self.has_slab:
                raise ValueError("last_slab_d needs a slab in the stack")
            _check_finite("last_slab_d", last)
            if np.any(last < 0):
                raise ValueError("slab thickness must be >= 0")
            width = np.broadcast_shapes(scales.shape, last.shape)[0]
            d = np.repeat(d, width, axis=1)
            d[-1] = last
        d = d + 0.0  # -0.0 becomes +0.0: a zero thickness has phase +0
        return (self.k_re[:, None] * d) / scales, (self.k_im[:, None] * d) / scales


def _check_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0].item()!r}")


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def element_matrices(stack: LayerStack, wavelength_scale=1.0, last_slab_d=None, *,
                     phases=None) -> np.ndarray:
    """Element matrices in stack order; their ordered product is the stack matrix.

    A scalar ``wavelength_scale`` gives shape (K, 2, 2).  An array of W
    scales, or an array ``last_slab_d`` of W thicknesses for the stack's
    last slab, gives shape (K, W, 2, 2); a length-1 array broadcasts over
    the other.  ``phases``, the layout's ``slab_phases`` of the same
    arguments, saves computing them again.  The result is a view of a
    (2, 2, K, W) entry array, the layout :func:`solve_sweep` scans.
    """
    layout = stack._layout
    if phases is None:
        phases = layout.slab_phases(wavelength_scale, last_slab_d)
    phi_re, phi_im = phases
    entries = np.zeros((2, 2, layout.n_elements, phi_re.shape[1]), dtype=complex)
    entries[:, :, layout.const_at] = layout.const[..., None]
    # A slab maps exit to entry: diag(e^{-i phi}, e^{i phi}).
    entries[0, 0, layout.slab_at] = np.exp(_join(phi_im, -phi_re))
    entries[1, 1, layout.slab_at] = np.exp(_join(-phi_im, phi_re))
    mats = entries.transpose(2, 3, 0, 1)
    if np.ndim(wavelength_scale) or np.ndim(last_slab_d):
        return mats
    return mats[:, 0]


def solve_sweep(stack: LayerStack, wavelength_scales, last_slab_d=None) -> StackSweep:
    """Solve W evaluations of one stack layout in one batched pass.

    Row w evaluates the stack at ``wavelength_scales[w]`` and, when
    ``last_slab_d`` is given, with ``last_slab_d[w]`` as the thickness of
    its last slab; a length-1 argument broadcasts over the other.  Each
    row equals the same evaluation solved alone, bit for bit.  The result
    holds the rows as columns (see :class:`StackSweep`).

    Raises :class:`SingularStack` when the pivot M00 of any row's stack
    matrix vanishes or the product overflows.
    """
    layout = stack._layout
    scales = np.asarray(wavelength_scales, dtype=float).reshape(-1)
    # An overflow here leaves a non-finite entry in M, which the check
    # below reports as SingularStack; numpy need not warn about it, nor
    # about the suffix columns of such a stack, which are never used.
    with np.errstate(over="ignore", invalid="ignore"):
        phi_re, phi_im = phases = layout.slab_phases(scales, last_slab_d)
        mats = element_matrices(stack, scales, last_slab_d, phases=phases)
        entries = mats.transpose(2, 3, 0, 1)  # the (2, 2, K, W) array mats views
        if not layout.n_elements:
            entries = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None, None],
                                      (2, 2, 1, entries.shape[3]))
        m, (u0, u1) = _scan(entries)
    if np.any((np.abs(m[0, 0]) < DEGENERATE_TOL) | ~np.isfinite(m).all(axis=(0, 1))):
        raise SingularStack("stack transfer matrix is numerically singular")
    t = 1.0 / m[0, 0]
    r = m[1, 0] / m[0, 0]

    # The amplitudes just right of a sheet at slot s are S (t, 0), with S
    # the product of the elements after it, and the field is continuous
    # across the sheet.
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
    return StackSweep(t=t, r=r, R=R, T=T, A=A, sheet_fields=fields,
                      R_emission_unclamped=_emission_reflectance(r, b, theta),
                      b=b, theta=theta, signs=layout.signs)


def _scan(m):
    """Associative scan over 2x2 matrices A_0 ... A_{K-1}, K >= 1.

    ``m`` holds the matrices as a (2, 2, K, W) entry array: ``m[i, j]`` is
    entry (i, j) of every matrix, a (K, W) array.  Returns the stack
    matrix M = A_0 ... A_{K-1} as a (2, 2, W) array, and column 0 of every
    suffix product A_s ... A_{K-1} as a (2, K, W) array.

    It multiplies neighbours pairwise, A_0 A_1, A_2 A_3, ..., carrying an
    odd last matrix over unpaired, and recurses on that half-length
    sequence.  Then it expands the suffixes it gets back: the suffix from
    an even position 2i is the half-length sequence's suffix from i, the
    suffix from an odd position 2i + 1 is A_{2i+1} times the suffix from
    2i + 2, and when K is even the last matrix's own column 0 is its
    suffix.  Each product is (L R)_ij = L_i0 R_0j + L_i1 R_1j, one
    broadcast multiply per term, so a level costs a few numpy calls.
    """
    if m.shape[2] == 1:
        return m[:, :, 0], m[:, 0]
    pairs = 2 * (m.shape[2] // 2)
    left, right = m[:, :, 0:pairs:2], m[:, :, 1:pairs:2]
    half = left[:, 0, None] * right[None, 0] + left[:, 1, None] * right[None, 1]
    if pairs < m.shape[2]:
        half = np.concatenate((half, m[:, :, -1:]), axis=2)
    product, u = _scan(half)
    # odd positions 2i + 1 whose suffix from 2i + 2 is one of u[:, 1:]
    inner = slice(1, 2 * u.shape[1] - 2, 2)
    v = np.empty_like(m[:, 0])
    v[:, 0::2] = u
    v[:, inner] = m[:, 0, inner] * u[None, 0, 1:] + m[:, 1, inner] * u[None, 1, 1:]
    if pairs == m.shape[2]:
        v[:, -1] = m[:, 0, -1]
    return product, v


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
    """A number as a float, by the number rule of ``codec.floats``; a
    ValueError naming ``what`` for any other value, a numeric string and
    an int too large for a float among them, and for one that is not
    finite."""
    try:
        (number,) = floats([value])
    except (TypeError, OverflowError):
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


def _in_range(where: str, make, *args):
    """``make(*args)``, its ValueError for a value out of range prefixed
    with ``where``, the layer that holds the value."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _clean_columns(entries: list) -> _Columns | None:
    """The columns of layer entries, or None if one of them is bad.

    Each entry must be an object of type "sheet" or "slab".  Every value
    is converted in one ``codec.floats`` call, the number rule of
    ``_number``, ``_sign`` and ``decode_complex``, a conductance as its
    ``codec.complex_parts``; then all must be finite and in range:
    Re(cond), n_im and d >= 0, branching in [0, 1], n_re > 0, and f_sign
    and sign +1 or -1.  These are the checks of ``_reject_layers``, which
    reads the entries one by one, so the two accept the same entries.
    """
    if not all(issubclass(kind, dict) for kind in set(map(type, entries))):
        return None
    kinds = [entry.get("type") for entry in entries]
    if kinds.count("sheet") + kinds.count("slab") != len(kinds):
        return None
    is_sheet = list(map(operator.eq, kinds, repeat("sheet")))
    sheets = list(compress(entries, is_sheet))
    slabs = list(compress(entries, map(operator.not_, is_sheet)))
    cond = [(c, 0.0) if type(c := entry.get("cond", 0.0)) is float else complex_parts(c)
            for entry in sheets]
    try:
        values = np.frombuffer(floats([c[1] for c in cond] + [c[0] for c in cond]
                                      + [entry.get("branching", 1.0) for entry in sheets]
                                      + [entry.get("n_im", 0.0) for entry in slabs]
                                      + [entry.get("d") for entry in slabs]
                                      + [entry.get("n_re", 1.0) for entry in slabs]
                                      + [entry.get("f_sign", 1) for entry in sheets]
                                      + [entry.get("sign", -1) for entry in sheets]),
                               dtype=float)
    except (TypeError, OverflowError):
        return None
    layer_values = 3 * (len(sheets) + len(slabs))
    cond_im, cond_re, branching = values[:3 * len(sheets)].reshape(3, -1)
    n_im, d, n_re = values[3 * len(sheets):layer_values].reshape(3, -1)
    signs = values[layer_values:]
    # cond_re, branching, n_im and d are the values from len(sheets) to the
    # start of n_re.
    if not (np.isfinite(values).all()
            and np.minimum.reduce(values[len(sheets):layer_values - len(slabs)],
                                  initial=math.inf) >= 0.0
            and np.maximum.reduce(branching, initial=-math.inf) <= 1.0
            and np.minimum.reduce(n_re, initial=math.inf) > 0.0
            and (np.abs(signs) == 1.0).all()):
        return None
    signs = signs.astype(int).tolist()
    return _Columns(is_sheet=np.array(is_sheet, dtype=bool), cond=_join(cond_re, cond_im),
                    branching=branching, f_sign=signs[:len(sheets)],
                    sign=tuple(signs[len(sheets):]), n=_join(n_re, n_im), d=d)


def _reject_layers(entries: list) -> NoReturn:
    """Raise the ValueError naming the first bad field, in file order, of
    layer entries that :func:`_clean_columns` refused: read them one by
    one through ``_number``, ``_sign``, ``decode_complex`` and the checks
    of ``SheetParams``, ``Sheet`` and ``Slab``.  A generic ValueError if
    no field is bad on its own."""
    for i, entry in enumerate(entries):
        where = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        kind = entry.get("type")
        if kind == "sheet":
            params = _in_range(where, SheetParams,
                               decode_complex(entry.get("cond", 0.0), f"{where}.cond"),
                               _number(entry.get("branching", 1.0), f"{where}.branching"),
                               _sign(entry.get("f_sign", 1), f"{where}.f_sign"))
            _in_range(where, Sheet, params, _sign(entry.get("sign", -1), f"{where}.sign"))
        elif kind == "slab":
            if "d" not in entry:
                raise ValueError(f"{where}.d is required")
            n_re = _number(entry.get("n_re", 1.0), f"{where}.n_re")
            n_im = _number(entry.get("n_im", 0.0), f"{where}.n_im")
            _in_range(where, Slab, complex(n_re, n_im), _number(entry["d"], f"{where}.d"))
        else:
            raise ValueError(f"{where}.type must be 'sheet' or 'slab', got {kind!r}")
    raise ValueError("layers could not be read, though no field is bad on its own")


def stack_from_dict(data: dict) -> tuple[LayerStack, float | None]:
    """Build a stack from its description, a JSON document or a dict of
    Python values.

    Returns the stack and the optional reference wavelength in nm.  The
    layers are read as columns by :func:`_clean_columns`, whose columns
    the stack holds; every number, here and in the ambient media and
    the wavelength, is converted by the rule of ``codec.floats``.  A
    malformed description raises ValueError naming the first bad field.
    """
    if not isinstance(data, dict):
        raise ValueError("stack description must be a JSON object")
    entries = data.get("layers", [])
    if not isinstance(entries, list):
        raise ValueError("layers must be a list of layer objects")
    columns = _clean_columns(entries)
    if columns is None:
        _reject_layers(entries)
    ambient_in = decode_complex(data.get("ambient_in", 1.0), "ambient_in")
    ambient_out = decode_complex(data.get("ambient_out", 1.0), "ambient_out")
    stack = LayerStack(layers=columns, ambient_in=ambient_in, ambient_out=ambient_out)
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
    return stack_from_dict(load_json(path, "stack file"))


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
