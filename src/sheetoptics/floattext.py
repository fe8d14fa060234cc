"""The text of ``'%.17g' % v`` for every float64 of an array, vectorized.

``g17(values)`` formats each run of bit-equal neighbours once and copies its
text along the run, as the envelope columns of a profile, with one value on
each side of the sheet, have long runs; an array with no equal neighbours
pays for one comparison.  The kernel scales each |v| by 10**(16 - E), E =
floor(log10 |v|), in double-double arithmetic: Dekker's split and exact
two-product (Numer. Math. 18, 1971) against a table of 10**k as hi + lo
pairs built from exact integers.  The result, accurate to about 1e-13,
rounds to the 17-digit integer D.  D is spelled through a 4-digit lookup
table, and the sign, the decimal point and the exponent are placed by one
byte template per class (fixed or exponent form, digits left after stripping
trailing zeros, sign).  This is the fast path with an exact bail-out of
Loitsch's Grisu3 (PLDI 2010): a cell whose text is not certain goes through
``'%.17g' %`` itself, so the bytes are always those of CPython's correctly
rounded dtoa.  Those cells are the non-finite ones, those with |E| beyond
the table (subnormals among them), scaled values outside [10**16, 10**17)
(``log10`` misjudged E) and scaled values within 1e-6 of a rounding tie or
of 10**16.  A scaled value of exactly 10**16 (hi 1e16, lo 0), as for 1.0 and
every other power of ten a float64 holds exactly, is placed: the true
product lies within 1e-13 of 10**16, and on either side of it the text is
that of D = 10**16.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes in the longest text, ``-1.2345678901234567e-308``.
WIDTH = 24
#: Exponents E in the table of powers; cells with 10**(E_MIN + 1) <= |v| <
#: 10**E_MAX are placed.  Within them every split and partial product of
#: ``g17`` is a finite, normal float, and ``log10`` stays in the table.
E_MIN, E_MAX = -281, 281
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: A scaled value within this distance of a rounding tie, or of 10**16 but
#: not equal to it, is not placed with certainty.
_MARGIN = 1e-6
#: Stands in for the cells placed otherwise; its 17th digit is not 0.
_STAND_IN = 1.0000000000000002

# Bytes of a source row, from which each class template picks its text:
# "-", ".", "0", the 17 digits of D, a NUL, "e", the exponent's sign and its
# last 3 digits (of 4 from the digit table).
_MINUS, _POINT, _ZERO, _DIGIT0, _NUL, _E, _EXP_SIGN, _EXP_DIGITS = 0, 1, 2, 3, 20, 24, 25, 29
_ROW = 32
#: Cells per block of the byte gather.
_GATHER_ROWS = 1024
# Forms: fixed for E = -4 ... 16, exponent form with 2 or 3 exponent digits,
# and zero.  A class is a form, the digits left (1 ... 17) and the sign.
_FORMS, _EXP2_FORM, _EXP3_FORM, _ZERO_FORM = 24, 21, 22, 23
_NEGATIVE = _FORMS * 17


def _template(form: int, digits: int) -> list[int]:
    """Source-row positions of the text of a positive cell of one class:
    a form, with ``digits`` digits left once trailing zeros are stripped."""
    if form == _ZERO_FORM:
        return [_ZERO]
    if form < _EXP2_FORM:
        e = form - 4
        if e < 0:
            return [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(range(_DIGIT0, _DIGIT0 + digits))
        whole = list(range(_DIGIT0, _DIGIT0 + e + 1))
        if digits <= e + 1:
            return whole
        return whole + [_POINT] + list(range(_DIGIT0 + e + 1, _DIGIT0 + digits))
    text = [_DIGIT0]
    if digits > 1:
        text += [_POINT] + list(range(_DIGIT0 + 1, _DIGIT0 + digits))
    exp_digits = 2 if form == _EXP2_FORM else 3
    return text + [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + 3 - exp_digits, _EXP_DIGITS + 3))


def _powers() -> list[tuple[float, float]]:
    """10**(16 - E) for E = E_MIN ... E_MAX as hi + lo: hi is the power
    rounded, lo the rest rounded (int to float and int / int are correctly
    rounded)."""
    ups, power = [], 1
    for _ in range(16 - E_MIN + 1):  # 10**0 ... 10**(16 - E_MIN)
        hi = float(power)
        ups.append((hi, float(power - int(hi))))
        power *= 10
    downs, power = [], 1
    for _ in range(E_MAX - 16):  # 10**-1 ... 10**(16 - E_MAX)
        power *= 10
        hi = 1 / power
        num, den = hi.as_integer_ratio()
        downs.append((hi, (den - num * power) / (den * power)))
    return ups[::-1] + downs


@functools.cache
def _tables():
    """The lookup tables, built on first use and read-only.

    4-digit groups as little-endian words, and the position of D's last
    non-zero digit when the group ends D (16 less the group's trailing
    zeros, 12 for 0000); per E, the class of a positive cell with one digit
    and one 8-byte word of "e", the exponent's sign, two NULs and the
    exponent's 4 digits; the class templates; and 10**(16 - E) as hi + lo,
    one table each for hi's two halves and for lo."""
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        chars[..., place] = np.arange(48, 58).reshape([10 if i == place else 1
                                                       for i in range(4)])
    words = chars.view("<u4").reshape(-1)
    last_digit = np.full(10000, 16)
    last_digit[::10] = 15
    last_digit[::100] = 14
    last_digit[::1000] = 13
    last_digit[0] = 12
    exponents = np.arange(E_MIN, E_MAX + 1)
    forms = np.where((exponents >= -4) & (exponents <= 16), exponents + 4,
                     np.where(np.abs(exponents) < 100, _EXP2_FORM, _EXP3_FORM))
    signs = np.where(exponents < 0, ord("-"), ord("+")).astype("<u8")
    exponent_words = ord("e") + (signs << 8) + (words[np.abs(exponents)].astype("<u8") << 32)
    positive = np.frombuffer(b"".join(bytes(_template(form, digits)).ljust(WIDTH, bytes([_NUL]))
                                      for form in range(_FORMS) for digits in range(1, 18)),
                             dtype=np.uint8).reshape(-1, WIDTH)
    # a positive text is at most WIDTH - 1 bytes, so the last column is NUL
    negative = np.hstack([np.full((_NEGATIVE, 1), _MINUS, dtype=np.uint8), positive[:, :-1]])
    templates = np.vstack([positive, negative]).astype(np.intp)
    hi, lo = np.array(_powers()).T
    c = _SPLIT * hi
    head = c - (c - hi)
    tables = (words, last_digit, forms * 17, exponent_words, templates,
              head, hi - head, np.ascontiguousarray(lo))
    for table in tables:
        table.flags.writeable = False
    return tables


def g17(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each element of a 1-D float64 array, as bytes of
    dtype ``S24`` (NUL-padded)."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    new = bits[1:] != bits[:-1]
    if new.all():
        return _g17(values)
    # each run of bit-equal neighbours is formatted once
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return np.repeat(_g17(values[starts]), np.diff(starts, append=values.size))


def _g17(values: np.ndarray) -> np.ndarray:
    """``g17`` of an array, each cell through the kernel."""
    (words, last_digit, classes, exponent_words, templates,
     power_head, power_tail, power_lo) = _tables()
    n = values.size
    a = np.abs(values)
    zero = a == 0.0
    placed = (a >= 10.0**(E_MIN + 1)) & (a < 10.0**E_MAX)
    a[~placed] = _STAND_IN
    # E; log10 may misjudge it by one, which the range check below catches
    index = np.floor(np.log10(a)).astype(np.intp) - E_MIN
    p_head, p_tail, p_lo = power_head[index], power_tail[index], power_lo[index]
    # x_hi + x_lo = a * (hi + lo) in double-double; p + err = a * hi exactly.
    # Work arrays are updated in place and dropped once used, which halves
    # the call's peak memory.
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    p = a * (p_head + p_tail)
    err = a_head * p_head
    err -= p
    err += a_head * p_tail
    err += a_tail * p_head
    err += a_tail * p_tail
    err += a * p_lo
    del a, a_head, a_tail, p_head, p_tail, p_lo
    x_hi = p + err
    x_lo = err - (x_hi - p)
    del p, err
    # x_hi >= 2**53 is an integer, so x_lo holds the fraction
    rounded = np.rint(x_lo)
    d = x_hi.astype(np.int64) + rounded.astype(np.int64)
    # exactly 10**16 spells D = 10**16 on either side of the true product:
    # below it, the 17 digits of 10 * product round up to 10**17
    placed &= ((np.abs(x_lo - rounded) <= 0.5 - _MARGIN) & (x_hi < 1e17)
               & (((x_hi - 1e16) + x_lo >= _MARGIN) | ((x_hi == 1e16) & (x_lo == 0.0))))
    del x_hi, x_lo, rounded

    # Source rows: "-.0" and the first digit, four 4-digit groups, a NUL
    # word, "e" and the exponent's sign, the exponent's 4 digits.
    rows = np.empty((n, _ROW // 4), dtype="<u4")
    head = d // 10**8
    tail = d - head * 10**8
    first = head // 10**8
    head -= first * 10**8
    rows[:, 0] = words[first] - 0x0203  # "000d" less "\0\2\3" is "-.0d"
    g1 = head // 10**4
    g2 = head - g1 * 10**4
    g3 = tail // 10**4
    g4 = tail - g3 * 10**4
    rows[:, 1] = words[g1]
    rows[:, 2] = words[g2]
    rows[:, 3] = words[g3]
    rows[:, 4] = words[g4]
    rows[:, 5] = 0
    rows.view("<u8")[:, 3] = exponent_words[index]
    text = rows.view(np.uint8)
    del d, head, tail, first, g1, g2, g3

    last = last_digit[g4]
    short = np.flatnonzero(g4 == 0)
    if short.size:  # trailing zeros before the last group
        nonzero = text[short, _DIGIT0 + 12:_DIGIT0 - 1:-1] != ord("0")
        last[short] = 12 - nonzero.argmax(axis=1)
    klass = np.where(zero, _ZERO_FORM * 17, classes[index] + last)
    klass += np.signbit(values) * _NEGATIVE
    # The byte gather, in blocks: one index array for every cell would be
    # large enough to be mapped and faulted in afresh on each call.
    source = text.reshape(-1)
    text = np.empty((n, WIDTH), dtype=np.uint8)
    for start in range(0, n, _GATHER_ROWS):
        flat = np.take(templates, klass[start:start + _GATHER_ROWS], axis=0)
        flat += _ROW * np.arange(start, start + len(flat))[:, None]
        np.take(source, flat, out=text[start:start + _GATHER_ROWS])

    unsure = np.flatnonzero(~(placed | zero))
    if unsure.size:
        text[unsure] = np.array([b"%.17g" % v for v in values[unsure].tolist()],
                                dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return text.view(f"S{WIDTH}").reshape(n)
