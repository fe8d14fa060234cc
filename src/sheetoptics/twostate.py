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
coupling that lies off both axes (see ``decoupling_phase``).
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
    """Coupling matrix element <emission| H |scattering> = u * conj(b) * (t+r)."""
    return complex(sys.energy_unit) * complex(sys.b).conjugate() * complex(sys.t_plus_r)


def decoupling_phase(sys: TwoStateSystem) -> tuple[float, float]:
    """Both relative phases for which the +/- superpositions decouple.

    Solutions of Im[e^{i theta} conj(t+r) b] = 0, returned as
    (theta_plus, theta_minus) in [0, 2*pi) where theta_plus makes
    Re[e^{i theta} conj(t+r) b] positive.
    """
    s = complex(sys.t_plus_r)
    z = s.conjugate() * complex(sys.b)
    if abs(s) < DEGENERATE_TOL or abs(sys.b) < DEGENERATE_TOL:
        raise DegenerateDecoupling(
            "t + r or b vanishes; any theta decouples the pair"
        )
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
    h = offdiagonal(sys)
    bound = SELF_CHECK_TOL * _modulus(h)
    for theta in (theta_plus, theta_minus):
        if _modulus(cross_element(h, theta)) > bound:
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


def cross_element(h: complex, theta: float) -> complex:
    """<Phi_theta^+| H |Phi_theta^-> for the superpositions at phase theta,
    from the coupling element h = ``offdiagonal(sys)``."""
    h = complex(h)
    return cmath.exp(-1j * theta) * h - cmath.exp(1j * theta) * h.conjugate()


def level_energies(sys: TwoStateSystem, theta: float) -> tuple[float, float]:
    """Energies (+e, -e) of the decoupled pair, e = 2u Re[e^{i theta}(t+r)* b]."""
    z = cmath.exp(1j * theta) * complex(sys.t_plus_r).conjugate() * complex(sys.b)
    # doubled last: u times the real part is finite wherever |h| is
    e = 2.0 * (float(sys.energy_unit) * z.real)
    return e, -e


def corrected_reflection(sys: TwoStateSystem) -> tuple[complex, complex]:
    """Both branches r +/- ((t+r)/|t+r|) |b| of the emission-corrected reflection.

    The physical branch is the minus one when the lower-energy superposition
    is stabilized.
    """
    s = complex(sys.t_plus_r)
    if abs(s) < DEGENERATE_TOL:
        raise DegenerateDecoupling("t + r = 0: the correction branch is undefined")
    unit = s / abs(s)
    correction = unit * abs(complex(sys.b))
    r = complex(sys.coeffs.r)
    return r + correction, r - correction


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
