"""Single conducting-sheet scattering, absorption and emission amplitudes,
the N-sheet closed form and the decoupling layer-number search.

A sheet at x = 0 carries a surface current proportional to the local field,
characterized by the dimensionless conductance g = sigma / (epsilon_0 c).
Natural units are used throughout (epsilon_0 = c = 1, incident amplitude 1).
N sheets with zero spacing act as one sheet of conductance N g, so the
layer count at which t + r = 0 follows from the single sheet: N = 2/g, or
2/(pi alpha) for graphene.  Everything here computes on ``math`` and
``cmath``, so a process that runs only this module never loads numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SheetOpticsError

#: CODATA fine-structure constant.
FINE_STRUCTURE = 7.2973525693e-3

#: Dimensionless conductance of a pristine graphene sheet, g = pi * alpha.
GRAPHENE_COND = math.pi * FINE_STRUCTURE

#: Magnitude below which t + r, b or a transfer-matrix pivot counts as zero.
DEGENERATE_TOL = 1e-14

#: Largest disagreement a self-check of a computed result accepts: closed
#: form against boundary system, energy budget against absorbance, the
#: decoupled cross element (relative), a profile's continuity gap.
SELF_CHECK_TOL = 1e-12

#: Largest |1 + r - t| that ``fields.eval_a`` accepts as continuous.
CONTINUITY_TOL = 1e-10

#: Relative difference between each grid point and the negated mirror point
#: that ``fields.parity_transform`` accepts as a mirror-symmetric grid
#: (``np.allclose``'s default rtol, with no absolute term).
MIRROR_RTOL = 1e-5

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SheetParams:
    """Parameters of one conducting sheet.

    cond
        Dimensionless sheet conductance g = sigma/(epsilon_0 c).  May be
        complex for dispersive sheets; the real (dissipative) part must be
        non-negative.
    branching
        Fraction of the absorbed energy that retains a pathway back to
        light emission, in [0, 1].
    f_sign
        Sign of the matter amplitude F, +1 or -1.  The sheet material
        decides it; +1 makes b real-negative for real positive t.
    """

    cond: complex = GRAPHENE_COND
    branching: float = 1.0
    f_sign: int = 1

    def __post_init__(self):
        if not cmath.isfinite(complex(self.cond)):
            raise ValueError(f"cond must be finite, got {self.cond!r}")
        if complex(self.cond).real < 0:
            raise ValueError("Re(cond) must be >= 0 (gain sheets are out of scope)")
        if not 0.0 <= self.branching <= 1.0:
            raise ValueError("branching ratio must lie in [0, 1]")
        if self.f_sign not in (1, -1):
            raise ValueError("f_sign must be +1 or -1")


@dataclass(frozen=True)
class ScatterCoeffs:
    """Complex transmission/reflection amplitude pair."""

    t: complex
    r: complex


@dataclass(frozen=True)
class EmissionAmplitudes:
    """Right/left-going emission amplitudes and the matter amplitude magnitude."""

    b_r: complex
    b_l: complex
    f_mag: float


@dataclass(frozen=True)
class DecouplingSearch:
    """Result of the t + r = 0 layer-number search."""

    n_exact: float
    n_int: int
    residual: float


def solve_single_sheet(params: SheetParams) -> ScatterCoeffs:
    """Closed-form coefficients t = 2/(2+g), r = -g/(2+g) of one sheet in vacuum."""
    g = complex(params.cond)
    t = 2.0 / (2.0 + g)
    r = -g / (2.0 + g)
    return ScatterCoeffs(t=t, r=r)


def solve_boundary_system(params: SheetParams) -> ScatterCoeffs:
    """Solve the boundary conditions for (t, r) by Cramer's rule.

    The two conditions are field continuity, 1 + r = t, and the physical-state
    condition t - (1 - r) + g*t = 0, that is [[1, -1], [1 + g, 1]] (t, r) =
    (1, 1).  This route is kept independent of :func:`solve_single_sheet` so
    the two can cross-check each other.
    """
    g = complex(params.cond)
    (a, b), (c, d) = (1.0, -1.0), (1.0 + g, 1.0)
    e, f = 1.0, 1.0
    det = a * d - b * c
    if det == 0:  # unreachable for Re(g) >= 0
        raise SheetOpticsError(f"singular boundary system for cond={g}")
    return ScatterCoeffs(t=(e * d - b * f) / det, r=(a * f - e * c) / det)


def absorbance(coeffs: ScatterCoeffs, params: SheetParams) -> float:
    """Absorbed fraction A = Re(g) |t|^2 of the incident energy.

    For real conductance this equals 1 - |r|^2 - |t|^2; the identity is
    checked to ``SELF_CHECK_TOL`` before returning.  Note the distinction
    between A and the bare single-pass absorption Re(g) (~ pi*alpha for
    graphene): A is the sheet absorbance of the full scattering solution.
    """
    g = complex(params.cond)
    a = g.real * abs(coeffs.t) ** 2
    if g.imag == 0.0:
        budget = 1.0 - abs(coeffs.r) ** 2 - abs(coeffs.t) ** 2
        if abs(budget - a) > SELF_CHECK_TOL:
            raise SheetOpticsError(
                f"energy conservation violated: 1-|r|^2-|t|^2={budget!r}, A={a!r}"
            )
    return a


def emission_amplitude(params: SheetParams, coeffs: ScatterCoeffs) -> EmissionAmplitudes:
    """Emission amplitude b of the second stationary state.

    |F| = sqrt(2 * branching * A) in natural units and b = -sign(F)/2 * |F| * t,
    so |b| = sqrt(branching/2 * A) |t| holds by construction.  The unperturbed
    emission state is symmetric, b_r = b_l.
    """
    a = absorbance(coeffs, params)
    f_mag = math.sqrt(2.0 * params.branching * a)
    b = -params.f_sign * (f_mag / 2.0) * coeffs.t
    return EmissionAmplitudes(b_r=b, b_l=b, f_mag=f_mag)


def nlayer_replacement(n_layers: int, cond: complex) -> ScatterCoeffs:
    """Closed form for N zero-spacing sheets: the single sheet at N * cond."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    merged = n_layers * cond
    if cmath.isfinite(complex(cond)) and not cmath.isfinite(complex(merged)):
        raise ValueError(f"n_layers * cond overflows: n_layers {n_layers}, cond {cond!r}")
    return solve_single_sheet(SheetParams(cond=merged))


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
    best_n, best = 1, math.inf
    for n in sorted(candidates):
        c = nlayer_replacement(n, cond)
        residual = abs(c.t + c.r)
        if residual < best:
            best_n, best = n, residual
    return DecouplingSearch(n_exact=n_exact, n_int=best_n, residual=float(best))
