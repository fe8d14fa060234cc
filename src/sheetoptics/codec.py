"""JSON form of complex numbers, shared by stack files and CLI documents.

A complex number is written as a plain number when its imaginary part is
zero and as an ``[re, im]`` pair otherwise; both forms are read back.
"""

from __future__ import annotations


def encode_complex(z) -> float | list[float]:
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def decode_complex(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a number or an [re, im] pair")
