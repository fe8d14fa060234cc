"""Photon envelope profiles and their polar/axial gauge-field decomposition.

Profiles store the step-function coefficients of the right/left-moving mode
amplitudes on an x grid (lengths in units of c/omega, k = omega/c defaults
to 1).  The step at the surface is represented by a mandatory pair of
one-sided samples at 0- and 0+, which sidesteps any theta(0) convention.

The polar component is the coefficient of A_R + A_L, the axial (pseudo)
component that of A_R - A_L; polar is parity-odd, axial parity-even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGrid, ContinuityViolation
from .surface import CONTINUITY_TOL, SELF_CHECK_TOL

SIDE_MINUS = "minus"
SIDE_PLUS = "plus"
SIDE_BULK = "bulk"


def make_grid(x_max: float = 5.0, n_bulk: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Mirror-symmetric grid on [-x_max, x_max] with the 0-/0+ pair included.

    Returns (x, side) arrays with max(1, n_bulk // 2) points on each half
    line, excluding x = 0 itself.
    """
    if not 0.0 < x_max < np.inf:
        raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
    right = np.linspace(0.0, x_max, max(1, n_bulk // 2) + 1)[1:]
    return _normalize_grid(np.concatenate([-right[::-1], right]))


def _normalize_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    """(x, side) arrays of a bare x array with the 0-/0+ pair added;
    None gives :func:`make_grid`."""
    if grid is None:
        return make_grid()
    x = np.asarray(grid, dtype=float)
    # neighbours are compared, not subtracted: a finite grid's differences
    # can overflow
    if x.ndim != 1 or not (np.isfinite(x).all() and np.all(x[1:] > x[:-1])):
        raise ValueError("grid must be a strictly increasing 1-D array of finite values")
    # x is sorted: the pair replaces a sample at 0 (or -0) if there is one
    minus = np.searchsorted(x, 0.0, side="left")
    full = np.concatenate([x[:minus], [0.0, 0.0], x[np.searchsorted(x, 0.0, side="right"):]])
    side = np.full(full.size, SIDE_BULK, dtype="<U5")
    side[minus:minus + 2] = SIDE_MINUS, SIDE_PLUS
    return full, side


def _surface_pair(x: np.ndarray, side: np.ndarray) -> tuple[int, int]:
    """Indices of the first 0- and the first 0+ sample."""
    at_zero = np.flatnonzero(x == 0.0)
    minus = at_zero[side[at_zero] == SIDE_MINUS]
    plus = at_zero[side[at_zero] == SIDE_PLUS]
    if not (minus.size and plus.size):
        raise ValueError("profile must contain both 0- and 0+ samples")
    return int(minus[0]), int(plus[0])


@dataclass(frozen=True)
class FieldProfile:
    """Sampled right/left-moving envelope coefficients with one-sided samples.

    ``right_env``/``left_env`` hold the step coefficients only; the plane-wave
    factors e^{+-ikx} are applied by :meth:`total` and :func:`decompose`.
    """

    x: np.ndarray
    side: np.ndarray
    right_env: np.ndarray
    left_env: np.ndarray
    k: float = 1.0

    def __post_init__(self):
        if not (self.x.shape == self.side.shape == self.right_env.shape
                == self.left_env.shape):
            raise ValueError("profile arrays must share one shape")
        _surface_pair(self.x, self.side)

    def total(self) -> np.ndarray:
        """Total coefficient right_env e^{ikx} + left_env e^{-ikx}."""
        phase = np.exp(1j * self.k * self.x)
        return self.right_env * phase + self.left_env / phase

    def _at_zero(self, values: np.ndarray) -> tuple[complex, complex]:
        minus, plus = _surface_pair(self.x, self.side)
        return values[minus], values[plus]

    def continuity_gap(self) -> complex:
        """Total-coefficient jump across the surface, value(0+) - value(0-)."""
        minus, plus = self._at_zero(self.total())
        return plus - minus

    def is_continuous(self, tol: float = SELF_CHECK_TOL) -> bool:
        return abs(self.continuity_gap()) <= tol


def eval_a(t: complex, r: complex, grid=None, k: float = 1.0) -> FieldProfile:
    """Scattering-state envelope: incident + reflected left of the surface,
    transmitted right of it.

    Requires the continuity condition 1 + r = t.
    """
    if abs(1.0 + r - t) > CONTINUITY_TOL:
        raise ContinuityViolation(f"1 + r - t = {1.0 + r - t!r} exceeds tolerance")
    x, side = _normalize_grid(grid)
    left_region = np.arange(x.size) <= _surface_pair(x, side)[0]
    right_env = np.where(left_region, 1.0 + 0.0j, complex(t))
    left_env = np.where(left_region, complex(r), 0.0 + 0.0j)
    return FieldProfile(x=x, side=side, right_env=right_env, left_env=left_env, k=k)


def eval_b(b_r: complex, b_l: complex, grid=None, k: float = 1.0) -> FieldProfile:
    """Emission-state envelope: outgoing waves on both sides of the surface.

    Asymmetric amplitudes are allowed; the profile is continuous at the
    surface iff b_r = b_l (reported, not enforced).
    """
    x, side = _normalize_grid(grid)
    left_region = np.arange(x.size) <= _surface_pair(x, side)[0]
    right_env = np.where(left_region, 0.0 + 0.0j, complex(b_r))
    left_env = np.where(left_region, complex(b_l), 0.0 + 0.0j)
    return FieldProfile(x=x, side=side, right_env=right_env, left_env=left_env, k=k)


@dataclass(frozen=True)
class GaugeDecomposition:
    """Polar/axial coefficients per sample, plus the through-going uniform
    amplitudes used to isolate the surface-induced axial content."""

    x: np.ndarray
    side: np.ndarray
    polar_env: np.ndarray
    axial_env: np.ndarray
    k: float
    incident_right: complex
    incident_left: complex


@dataclass(frozen=True)
class SurfaceAxial:
    """Surface-induced axial coefficient at x = 0 and its one-sided jump."""

    value: complex
    jump: complex


def decompose(profile: FieldProfile) -> GaugeDecomposition:
    """Split a profile into polar (A_R + A_L) and axial (A_R - A_L) coefficients.

    polar = (right e^{ikx} + left e^{-ikx}) / 2 and
    axial = (right e^{ikx} - left e^{-ikx}) / 2, so the phased right/left
    coefficients recombine exactly as polar +- axial.
    """
    phase = np.exp(1j * profile.k * profile.x)
    right = profile.right_env * phase
    left = profile.left_env / phase
    minus, plus = _surface_pair(profile.x, profile.side)
    return GaugeDecomposition(
        x=profile.x,
        side=profile.side,
        polar_env=(right + left) / 2.0,
        axial_env=(right - left) / 2.0,
        k=profile.k,
        incident_right=profile.right_env[minus],
        incident_left=profile.left_env[plus],
    )


def axial_at_surface(dec: GaugeDecomposition) -> SurfaceAxial:
    """Surface value of the axial coefficient, averaged over 0- and 0+.

    The through-going uniform waves (incident right-mover entering from the
    left, incident left-mover entering from the right) carry axial content
    of their own; their contribution is subtracted so that only the
    surface-induced axial component remains.  For every continuous
    scattering profile this vanishes; an emission profile carries a nonzero
    value exactly when b_r != b_l.
    """
    minus, plus = dec.axial_env[list(_surface_pair(dec.x, dec.side))]
    uniform = (dec.incident_right - dec.incident_left) / 2.0
    return SurfaceAxial(value=(plus + minus) / 2.0 - uniform, jump=plus - minus)


def parity_transform(profile: FieldProfile) -> FieldProfile:
    """Parity image f(x) -> -f(-x) of the total envelope.

    Applying it twice is the identity; the polar component is parity-odd and
    the axial component parity-even.  Requires a mirror-symmetric grid.
    """
    x, side = profile.x, profile.side
    if not np.allclose(x, -x[::-1], atol=0.0):
        raise AsymmetricGrid("grid is not mirror symmetric about x = 0")
    minus, plus = side == SIDE_MINUS, side == SIDE_PLUS
    if not (np.array_equal(minus, plus[::-1]) and (minus | plus | (side == SIDE_BULK)).all()):
        raise AsymmetricGrid("side tags are not mirror symmetric about x = 0")
    # f(x) = R(x) e^{ikx} + L(x) e^{-ikx}  =>
    # -f(-x) = [-L(-x)] e^{ikx} + [-R(-x)] e^{-ikx}
    return FieldProfile(
        x=x,
        side=side,
        right_env=-profile.left_env[::-1].copy(),
        left_env=-profile.right_env[::-1].copy(),
        k=profile.k,
    )

