"""The scalar path of ``surface`` and ``twostate`` on ``math`` and ``cmath``
gives the same bits as the numpy formulas it replaced, kept here as the
oracle: ``np.conj``, ``np.exp`` and ``np.arctan2`` on numpy scalars, numpy's
floor-mod of the angle and ``np.sqrt`` of the emission magnitude.

The systems are drawn as the command line builds them: from a sheet
(``coeffs``, ``twostate``) or from a ``--coeffs`` file of any finite
complex t, r and b, with energy units up to the largest float.  The
oracle's overflow warnings are silenced; only its values are compared.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sheetoptics.errors import DegenerateDecoupling
from sheetoptics.surface import (
    TWO_PI,
    ScatterCoeffs,
    SheetParams,
    emission_amplitude,
    solve_single_sheet,
)
from sheetoptics.twostate import (
    TwoStateSystem,
    corrected_reflection,
    cross_element,
    decoupling_phase,
    level_energies,
    offdiagonal,
)


def bits(value) -> tuple:
    """The bit patterns of a float or of both parts of a complex, as hex
    texts that tell -0.0 from 0.0; the type is part of the answer."""
    z = complex(value)
    return type(value).__name__, z.real.hex(), z.imag.hex()


def old_offdiagonal(u, b, s):
    return u * np.conj(b) * s


def old_phases(s, b):
    z = np.conj(s) * b
    theta_plus = float((-np.arctan2(z.imag, z.real)) % TWO_PI)
    return theta_plus, float((theta_plus + np.pi) % TWO_PI)


def old_cross_element(h, theta):
    return np.exp(-1j * theta) * h - np.exp(1j * theta) * np.conj(h)


def old_decoupling_phase(u, s, b):
    if abs(s) < 1e-14 or abs(b) < 1e-14:
        raise DegenerateDecoupling("t + r or b vanishes; any theta decouples the pair")
    phases = old_phases(s, b)
    h = old_offdiagonal(u, b, s)
    for theta in phases:
        if abs(old_cross_element(h, theta)) > 1e-12 * abs(h):
            raise DegenerateDecoupling(f"decoupling failed at theta={theta}")
    return phases


def old_level_energy(u, s, b, theta):
    return 2.0 * (u * float(np.real(np.exp(1j * theta) * np.conj(s) * b)))


def old_corrected_reflection(r, s, b):
    if abs(s) < 1e-14:
        raise DegenerateDecoupling("t + r = 0: the correction branch is undefined")
    unit = s / abs(s)
    return r + unit * abs(b), r - unit * abs(b)


def old_f_mag(branching, a):
    return float(np.sqrt(2.0 * branching * a))


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Magnitudes from far below 1 to far above it, signed zeros among them.
wide = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), finite,
                 st.floats(-1e3, 1e3, allow_nan=False))
parts = st.builds(complex, wide, wide)
energy_units = st.one_of(st.floats(0.5, 2.0), st.floats(1e-300, 1.7976931348623157e308),
                         st.sampled_from([1.0, 1e300, 1.7976931348623157e308]))


@st.composite
def sheet_systems(draw):
    """The system of a ``twostate`` run without ``--coeffs``: t and r of a
    sheet, b from its emission amplitude (0 for branching 0)."""
    cond = draw(st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 0.0229253, 2.0]),
                          st.builds(complex, st.floats(0.0, 10.0), st.floats(-10.0, 10.0))))
    params = SheetParams(cond=cond, branching=draw(st.sampled_from([0.0, 1.0])
                                                   | st.floats(0.0, 1.0)),
                         f_sign=draw(st.sampled_from([1, -1])))
    coeffs = solve_single_sheet(params)
    return TwoStateSystem(coeffs=coeffs, b=emission_amplitude(params, coeffs).b_r,
                          energy_unit=draw(energy_units))


@st.composite
def file_systems(draw):
    """The system of ``twostate --coeffs FILE``: any finite t, r and b,
    t + r = 0 and b = 0 among them."""
    t, r, b = draw(parts), draw(parts), draw(parts)
    if draw(st.booleans()):
        r = -t
    if draw(st.integers(0, 3)) == 0:
        b = draw(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    return TwoStateSystem(coeffs=ScatterCoeffs(t=t, r=r), b=b, energy_unit=draw(energy_units))


systems = st.one_of(sheet_systems(), file_systems())


def outcome(function, *args):
    """The bits of what a function returns, or the type and message of the
    error it raises: DegenerateDecoupling, or an OverflowError from
    Python's ``abs`` of a complex too large, which both paths raise alike."""
    try:
        value = function(*args)
    except (DegenerateDecoupling, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return list(map(bits, value)) if isinstance(value, tuple) else bits(value)


def check_against_oracle(sys_):
    u, b, s, r = sys_.energy_unit, sys_.b, sys_.t_plus_r, sys_.coeffs.r
    with np.errstate(all="ignore"):
        h = offdiagonal(sys_)
        assert bits(h) == bits(complex(old_offdiagonal(u, b, s)))
        assert outcome(decoupling_phase, sys_) == outcome(old_decoupling_phase, u, s, b)
        for theta in old_phases(s, b):
            assert bits(cross_element(h, theta)) == \
                bits(complex(old_cross_element(np.complex128(h), theta)))
            old = old_level_energy(u, s, b, theta)
            assert outcome(level_energies, sys_, theta) == [bits(old), bits(-old)]
        assert outcome(corrected_reflection, sys_) == outcome(old_corrected_reflection, r, s, b)


@settings(max_examples=1500, deadline=None)
@given(systems)
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=1.0 + 0j, r=0j), b=complex(-0.0, 0.0)))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=0.5 + 0.25j, r=-0.5 - 0.25j), b=0.1j))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=1e200 + 0j, r=0j), b=1e200 + 1e150j))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=4.0414184592774605e+175j,
                                             r=4.041418459277461e+163 + 4.0414184592774605e+175j),
                        b=2.224086855860645e+132j, energy_unit=0.5))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=1j, r=1 + 0j), b=1j,
                        energy_unit=1.7976931348623157e308))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=1.2711610061536464e308j, r=1.2711610061536464e308j),
                        b=1j))
@example(TwoStateSystem(coeffs=ScatterCoeffs(t=0.9 + 0j, r=-0.1 + 0j), b=-0.3 + 0j,
                        energy_unit=1.7976931348623157e308))
def test_twostate_matches_numpy_formulas(sys_):
    check_against_oracle(sys_)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(0.0, 1e300), st.builds(complex, st.floats(0.0, 1e3),
                                                   st.floats(-1e3, 1e3))),
       st.floats(0.0, 1.0), st.sampled_from([1, -1]))
@example(0.0, 1.0, 1)
@example(0.0229253, 0.0, -1)
def test_emission_amplitude_matches_numpy_sqrt(cond, branching, f_sign):
    params = SheetParams(cond=cond, branching=branching, f_sign=f_sign)
    coeffs = solve_single_sheet(params)
    got = emission_amplitude(params, coeffs)
    a = complex(cond).real * abs(coeffs.t) ** 2
    f_mag = old_f_mag(branching, a)
    assert bits(got.f_mag) == bits(f_mag)
    assert bits(got.b_r) == bits(-f_sign * (f_mag / 2.0) * coeffs.t)


def test_axis_angles_match_numpy():
    """``decoupling_phase`` takes ``math.atan2`` only on the axes, where it
    and numpy's give the same correctly rounded angle, for every magnitude
    and both signed zeros."""
    magnitudes = [0.0, 5e-324, 2.2250738585072014e-308, 1e-14, 0.3, 1.0, 3.0, 1e300,
                  1.7976931348623157e308, math.inf]
    for m in magnitudes:
        for v in (m, -m):
            for y, x in ((v, 0.0), (v, -0.0), (0.0, v), (-0.0, v)):
                assert math.atan2(y, x).hex() == float(np.arctan2(y, x)).hex(), (y, x)


def test_scalar_results_are_python_numbers():
    """numpy complex128 and float64, which these functions returned before,
    are subclasses of complex and float; the results are now the base
    types themselves, whatever scalar types the system holds."""
    sys_ = TwoStateSystem(coeffs=ScatterCoeffs(t=np.complex128(0.9 + 0.1j),
                                               r=np.complex128(-0.1 + 0.1j)),
                          b=np.complex128(-0.2 + 0.05j), energy_unit=np.float64(2.0))
    h = offdiagonal(sys_)
    phases = decoupling_phase(sys_)
    energies = level_energies(sys_, phases[0])
    assert type(h) is complex and type(cross_element(h, phases[0])) is complex
    assert [type(x) for x in phases + energies] == [float] * 4
    assert [type(x) for x in corrected_reflection(sys_)] == [complex] * 2
    params = SheetParams(cond=0.5, branching=0.5)
    emission = emission_amplitude(params, solve_single_sheet(params))
    assert type(emission.f_mag) is float and type(emission.b_r) is complex
