"""JSON form of floats and complex numbers, shared by stack files and CLI
documents.

A complex number is written as a plain number when its imaginary part is
zero and as an ``[re, im]`` pair otherwise; both forms are read back.  A
float's text is its ``repr``, or json's NaN, Infinity and -Infinity.
"""

from __future__ import annotations

import cmath
import math


def encode_complex(z) -> float | list[float]:
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def decode_complex(value, what: str) -> complex:
    """The complex number of a JSON value: a number (an int or a float; a
    bool too, as Python's ``float`` reads it) or an ``[re, im]`` pair of
    numbers.  Anything else, a numeric string among them, is a ValueError
    naming ``what``."""
    z = None
    try:
        if isinstance(value, (int, float)):
            z = complex(value)
        elif (isinstance(value, (list, tuple)) and len(value) == 2
              and all(isinstance(part, (int, float)) for part in value)):
            z = complex(float(value[0]), float(value[1]))
    except OverflowError:  # an integer too large for a float
        z = complex(math.inf)
    if z is None:
        raise ValueError(f"{what} must be a number or an [re, im] pair")
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return z


#: json's text of the floats whose repr is not a JSON number.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(value: float) -> str:
    """json's text of a float: its repr, or NaN, Infinity, -Infinity."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)
