"""JSON form of complex numbers, shared by stack files and CLI documents.

A complex number is written as a plain number when its imaginary part is
zero and as an ``[re, im]`` pair otherwise; both forms are read back.
"""

from __future__ import annotations

import cmath
import math


def encode_complex(z) -> float | list[float]:
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def decode_complex(value, what: str) -> complex:
    z = None
    try:
        if isinstance(value, (int, float)):
            z = complex(value)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            z = complex(float(value[0]), float(value[1]))
    except OverflowError:  # an integer too large for a float
        z = complex(math.inf)
    except (TypeError, ValueError):
        pass
    if z is None:
        raise ValueError(f"{what} must be a number or an [re, im] pair")
    if not cmath.isfinite(z):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return z
