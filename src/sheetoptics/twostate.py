"""Effective 2x2 description of the scattering and emission stationary states.

Both states have zero energy expectation value; only the off-diagonal matrix
element h = u * conj(b) * (t + r) couples them.  Everything observable here
(decoupling phase, level energies, corrected reflection) is a function of the
scattering coefficients, the emission amplitude b, the overlap between the two
states and the energy unit u.

The scalar functions compute with Python ``complex`` and ``float`` on
``math`` and ``cmath``: each takes its inputs as complex numbers and
returns a Python ``complex`` or ``float``.  numpy is imported only where an
array is built (``spin_matrix``, ``orthogonalize``) and for the angle of a
coupling that lies off both axes (see ``decoupling_phase``).  The phases,
level energies and corrected reflection are computed on t + r and b
scaled by powers of two, so that no modulus or product overflows where
the result fits in a float; a t + r that overflows is summed from t and r
scaled first, and a coupling element that is not finite is formed again
from the scaled pair, so that finite inputs give no NaN.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DegenerateDecoupling
from .surface import DEGENERATE_TOL, SELF_CHECK_TOL, TWO_PI, ScatterCoeffs

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TwoStateSystem:
    """Bundle of (t, r), emission amplitude b, state overlap and energy unit.

    The diagonal Hamiltonian elements are identically zero (residual-gauge
    zero-energy property), so they are not stored.
    """

    coeffs: ScatterCoeffs
    b: complex
    overlap: complex = 0.0
    energy_unit: float = 1.0

    def __post_init__(self):
        if abs(complex(self.overlap)) >= 1.0:
            raise ValueError("|overlap| must be < 1")
        if not self.energy_unit > 0:
            raise ValueError("energy_unit must be positive")
        # (t + r, its exponent, b, its exponent), scaled by ``_scale``: what
        # the phases, the level energies and the corrected reflection take
        s = complex(self.t_plus_r)
        s = _scale(s) if cmath.isfinite(s) else _scaled_sum(complex(self.coeffs.t),
                                                            complex(self.coeffs.r))
        object.__setattr__(self, "_scaled", s + _scale(complex(self.b)))

    @property
    def t_plus_r(self) -> complex:
        return self.coeffs.t + self.coeffs.r


@dataclass(frozen=True)
class DecoupledPair:
    """Decoupled-basis summary: both decoupling phases, the level energies at
    ``theta`` (theta_plus) and the reflection branches."""

    theta: float
    theta_minus: float
    energy_plus: float
    energy_minus: float
    reflection_plus: complex
    reflection_minus: complex


@dataclass(frozen=True)
class OrthogonalizedBasis:
    """Gram-Schmidt change of basis from (a, b) to the orthogonal (A, B) pair."""

    basis_matrix: np.ndarray
    hamiltonian: np.ndarray
    gram: np.ndarray


def offdiagonal(sys: TwoStateSystem) -> complex:
    """Coupling matrix element <emission| H |scattering> = u * conj(b) * (t+r).

    Where that product is not finite, because t + r or a partial product
    overflowed, it is formed again from t + r and b scaled as in
    ``decoupling_phase``, and each part scaled back by ``_ldexp``: a part
    too large for a float is infinite, not NaN.
    """
    h = complex(sys.energy_unit) * complex(sys.b).conjugate() * complex(sys.t_plus_r)
    if cmath.isfinite(h):
        return h
    s, k_s, b, k_b = sys._scaled
    z, k = _scale(b.conjugate() * s)
    h = complex(sys.energy_unit) * z
    k += k_s + k_b
    return complex(_ldexp(h.real, k), _ldexp(h.imag, k))


def decoupling_phase(sys: TwoStateSystem) -> tuple[float, float]:
    """Both relative phases for which the +/- superpositions decouple.

    Solutions of Im[e^{i theta} conj(t+r) b] = 0, returned as
    (theta_plus, theta_minus) in [0, 2*pi) where theta_plus makes
    Re[e^{i theta} conj(t+r) b] positive.  The phases do not change when
    t + r or b is multiplied by a positive number, so both are scaled by
    powers of two (``_scale``) before the angle and the self-check: no
    modulus or product overflows, however large their parts.  Whether
    either vanishes is read from the unscaled moduli.
    """
    s, b = complex(sys.t_plus_r), complex(sys.b)
    if _modulus(s) < DEGENERATE_TOL or _modulus(b) < DEGENERATE_TOL:
        raise DegenerateDecoupling(
            "t + r or b vanishes; any theta decouples the pair"
        )
    s, _, b, _ = sys._scaled
    z = s.conjugate() * b
    if z.real == 0.0 or z.imag == 0.0:
        # on an axis every atan2 gives the same correctly rounded angle
        angle = math.atan2(z.imag, z.real)
    else:
        # off the axes numpy's atan2 (SIMD on AVX-512) and the C library's
        # differ in the last bit for about 2% of couplings; numpy's is kept
        import numpy

        angle = float(numpy.arctan2(z.imag, z.real))
    theta_plus = -angle % TWO_PI
    theta_minus = (theta_plus + math.pi) % TWO_PI
    h = b.conjugate() * s  # offdiagonal(sys) over u and the two scales
    bound = SELF_CHECK_TOL * abs(h)
    for theta in (theta_plus, theta_minus):
        if abs(cross_element(h, theta)) > bound:
            raise DegenerateDecoupling(  # unreachable; numeric safety net
                f"decoupling failed at theta={theta}"
            )
    return theta_plus, theta_minus


def _modulus(z: complex) -> float:
    """|z|, or inf where it overflows (Python's ``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _scale(z: complex) -> tuple[complex, int]:
    """(z / 2**k, k) for the k that puts the larger part of z in [0.5, 1),
    k = 0 for z = 0.  The division is exact unless a part falls below the
    normal range, so angles and ratios keep their bits (the scaling of
    Blue's norm, ACM TOMS 4, 15, 1978)."""
    k = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)), k


def _scaled_sum(t: complex, r: complex) -> tuple[complex, int]:
    """``_scale(t + r)`` for a t + r that overflows: the sum is formed from
    t and r scaled by the power of two that puts their largest part in
    [0.5, 1)."""
    k = math.frexp(max(abs(t.real), abs(t.imag), abs(r.real), abs(r.imag)))[1]
    s, j = _scale(complex(math.ldexp(t.real, -k) + math.ldexp(r.real, -k),
                          math.ldexp(t.imag, -k) + math.ldexp(r.imag, -k)))
    return s, j + k


def cross_element(h: complex, theta: float) -> complex:
    """<Phi_theta^+| H |Phi_theta^-> for the superpositions at phase theta,
    from the coupling element h = ``offdiagonal(sys)``."""
    h = complex(h)
    return cmath.exp(-1j * theta) * h - cmath.exp(1j * theta) * h.conjugate()


def level_energies(sys: TwoStateSystem, theta: float) -> tuple[float, float]:
    """Energies (+e, -e) of the decoupled pair, e = 2u Re[e^{i theta}(t+r)* b].

    u, t + r and b are scaled as in ``decoupling_phase`` and e scaled
    back, so e is finite wherever it fits in a float.
    """
    s, k_s, b, k_b = sys._scaled
    z = cmath.exp(1j * theta) * s.conjugate() * b
    # u is scaled too, and the product doubled last: scaled back, it is
    # finite wherever |h| is
    u, k_u = math.frexp(float(sys.energy_unit))
    e = 2.0 * _ldexp(u * z.real, k_s + k_b + k_u)
    return e, -e


def corrected_reflection(sys: TwoStateSystem) -> tuple[complex, complex]:
    """Both branches r +/- ((t+r)/|t+r|) |b| of the emission-corrected reflection.

    The physical branch is the minus one when the lower-energy superposition
    is stabilized.  t + r and b are scaled as in ``decoupling_phase``, so
    neither modulus overflows; a part of the correction too large for a
    float is infinite.
    """
    s = complex(sys.t_plus_r)
    if _modulus(s) < DEGENERATE_TOL:
        raise DegenerateDecoupling("t + r = 0: the correction branch is undefined")
    s, _, b, k = sys._scaled
    correction = s / abs(s) * abs(b)
    correction = complex(_ldexp(correction.real, k), _ldexp(correction.imag, k))
    r = complex(sys.coeffs.r)
    return r + correction, r - correction


def _ldexp(x: float, k: int) -> float:
    """x * 2**k, or an infinity of the sign of x where it overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def decouple(sys: TwoStateSystem) -> DecoupledPair:
    """Full decoupled-pair summary at theta = theta_plus."""
    theta_plus, theta_minus = decoupling_phase(sys)
    e_plus, e_minus = level_energies(sys, theta_plus)
    r_plus, r_minus = corrected_reflection(sys)
    return DecoupledPair(
        theta=theta_plus,
        theta_minus=theta_minus,
        energy_plus=e_plus,
        energy_minus=e_minus,
        reflection_plus=r_plus,
        reflection_minus=r_minus,
    )


def spin_matrix(sys: TwoStateSystem) -> np.ndarray:
    """Ladder-operator form [[0, h], [conj(h), 0]] in the (emission, scattering)
    basis ordering.

    Eigenvalues are +/-|h|; the phase of the eigenvector components reproduces
    the decoupling phases.
    """
    import numpy as np

    h = offdiagonal(sys)
    return np.array([[0.0, h], [h.conjugate(), 0.0]], dtype=complex)


def orthogonalize(sys: TwoStateSystem) -> OrthogonalizedBasis:
    """Gram-Schmidt the (scattering, emission) pair into an orthogonal basis.

    Columns of ``basis_matrix`` express the new states in the old basis:
    A = a, B = b - a * <a|b>.  ``hamiltonian`` and ``gram`` are the matrix
    representations transported to the new basis.
    """
    import numpy as np

    s = complex(sys.overlap)
    c = np.array([[1.0, -s], [0.0, 1.0]], dtype=complex)
    h = offdiagonal(sys)
    h_old = np.array([[0.0, h.conjugate()], [h, 0.0]], dtype=complex)
    g_old = np.array([[1.0, s], [s.conjugate(), 1.0]], dtype=complex)
    return OrthogonalizedBasis(
        basis_matrix=c,
        hamiltonian=c.conj().T @ h_old @ c,
        gram=c.conj().T @ g_old @ c,
    )
