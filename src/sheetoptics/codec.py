"""JSON form of floats and complex numbers, shared by stack files and CLI
documents.

A complex number is written as a plain number when its imaginary part is
zero and as an ``[re, im]`` pair otherwise; both forms are read back.  A
float's text is its ``repr``, or json's NaN, Infinity and -Infinity.

Stack files and ``--coeffs`` files are read by :func:`load_json`, and
every number read from a stack description or a ``--coeffs`` file is
converted by one rule, :func:`floats`.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import warnings
from array import array


def load_json(path, what: str):
    """The JSON document of the file at ``path``.  A document nested too
    deeply for the parser is a ValueError naming ``what``, the kind of
    file; a file that is not JSON is json's ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{what} nests too deeply") from None


def encode_complex(z) -> float | list[float]:
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def floats(values) -> array:
    """``array('d', values)``: the floats of a sequence of numbers.

    This is the number rule of every value read from a description.  A
    number is a value that ``array('d')`` converts, as ``float`` does but
    for text: a JSON int or float, a bool, and from a Python caller any
    real number type, numpy's scalars, ``Fraction`` and ``Decimal`` among
    them.  A conversion that warns is refused, as numpy's complex scalars
    would lose their imaginary part.  Raises TypeError if a value is not a
    number, or else OverflowError if an int is too large for a float.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return array("d", values)
        except (ValueError, Warning) as exc:  # Decimal("sNaN"); numpy's complex
            raise TypeError(f"not a number: {exc}") from None
        except OverflowError:
            if len(values) > 1:
                # a value that is not a number outranks an int too large
                for value in values:
                    with contextlib.suppress(OverflowError):
                        floats([value])
            raise


def complex_parts(value):
    """The unconverted parts (re, im) of a complex number's value: an
    ``[re, im]`` pair, a list or a tuple of two, as it is, and any other
    value as ``(value, 0.0)``."""
    return value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)


def decode_complex(value, what: str) -> complex:
    """The complex number of a value: a number or an ``[re, im]`` pair of
    numbers, each part converted by :func:`floats`.  Anything else, a
    numeric string among them, is a ValueError naming ``what``, and so is
    a value that is not finite (an int too large for a float included)."""
    try:
        z = complex(*floats(complex_parts(value)))
    except TypeError:
        raise ValueError(f"{what} must be a number or an [re, im] pair") from None
    except OverflowError:  # an integer too large for a float
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return z


#: json's text of the floats whose repr is not a JSON number.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(value: float) -> str:
    """json's text of a float: its repr, or NaN, Infinity, -Infinity."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)
