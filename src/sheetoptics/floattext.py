"""The texts of ``'%.17g' % v`` and of json's ``repr(v)`` for every float64
of an array, vectorized: two kernels with one scaling and one byte gather.

``g17(values)`` gives the ``%.17g`` texts.  It formats each run of bit-equal
neighbours once and copies its text along the run, as the envelope columns
of a profile, with one value on each side of the sheet, have long runs; an
array with no equal neighbours pays for one comparison.  ``shortest(values)``
gives json's texts: the ``repr`` texts, the shortest digits that read back
as v, and NaN, Infinity and -Infinity for the values that are not finite.

Both kernels scale each |v| by 10**(16 - E), E = floor(log10 |v|), in
double-double arithmetic: Dekker's split and exact two-product (Numer. Math.
18, 1971) against a table of 10**k as hi + lo pairs built from exact
integers.  The result, accurate to about 1e-13, gives the 17-digit integer
D: ``g17`` rounds it, ``shortest`` takes the nearest candidate of 15, 16 or
17 digits that lies inside v's scaled half-ulp interval, the fewest that
does.  D is spelled through a 4-digit lookup table, and the sign, the
decimal point and the exponent are placed by one byte template per class
(fixed or exponent form, digits left after stripping trailing zeros, sign),
from one template table per text layout.

This is the fast path with an exact bail-out of Loitsch's Grisu3 (PLDI
2010): a cell whose text is not certain goes through ``'%.17g' %`` or
``codec.json_float`` itself, so the bytes are always those of CPython's
correctly rounded dtoa.  For both kernels those cells are the non-finite
ones, those with |E| beyond the table (subnormals among them) and scaled
values outside [10**16, 10**17) (``log10`` misjudged E).  For ``g17`` they are also scaled
values within 1e-6 of a rounding tie or of 10**16, so 1.0 and every other
power of ten a float64 holds exactly go through ``'%.17g' %``.  For
``shortest`` they are also the cells whose chosen candidate or the one a
digit shorter lies within 1e-6 of the interval's edge, or whose chosen
candidate lies within 1e-6 of a rounding tie or carries to 10**17;
significands of exactly 2**52, whose interval is lopsided; and the cells
of 14 digits or fewer.

The command line's long tables and vectors are laid out here too, as byte
matrices around the kernels' texts: ``csv_pieces`` writes a CSV chunk,
``json_vector`` a JSON array.  This module loads on first use and builds
its shared tables as it runs, so a command that writes neither compiles
none of it and builds no table.
"""

from __future__ import annotations

import functools

import numpy as np

from .codec import json_float

#: Bytes in the longest text, ``-1.2345678901234567e-308``.
WIDTH = 24
#: Exponents E in the table of powers; cells with 10**(E_MIN + 1) <= |v| <
#: 10**E_MAX are placed.  Within them every split and partial product of
#: the scaling is a finite, normal float, and ``log10`` stays in the table.
E_MIN, E_MAX = -281, 281
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
#: A scaled value within this distance of a rounding tie or of 10**16 is
#: not placed with certainty; nor is a candidate of ``shortest`` within it
#: of the edge of v's scaled half-ulp interval.
_MARGIN = 1e-6
#: Stands in for the cells placed otherwise; its 17th digit is not 0.
_STAND_IN = 1.0000000000000002
# The significand bits of a float64, and the bits of 1.0.
_MANTISSA, _ONE = np.uint64(2**52 - 1), np.uint64(0x3FF0000000000000)

# Bytes of a source row, from which each class template picks its text:
# "-", ".", "0", the 17 digits of D, a NUL, "e", the exponent's sign and its
# last 3 digits (of 4 from the digit table).
_MINUS, _POINT, _ZERO, _DIGIT0, _NUL, _E, _EXP_SIGN, _EXP_DIGITS = 0, 1, 2, 3, 20, 24, 25, 29
_ROW = 32
# Forms: fixed for E = -4 ... 16, exponent form with 2 or 3 exponent digits,
# and zero.  A class is a form, the digits left (1 ... 17) and the sign.
_FORMS, _EXP2_FORM, _EXP3_FORM, _ZERO_FORM = 24, 21, 22, 23
_NEGATIVE = _FORMS * 17


def _template(form: int, digits: int, integral: list[int]) -> list[int]:
    """Source-row positions of the text of a positive cell of one class:
    a form, with ``digits`` digits left once trailing zeros are stripped.
    ``integral`` follows the digits of zero and of an integral value in
    fixed form: nothing for ``%.17g``, ".0" for ``repr``."""
    if form == _ZERO_FORM:
        return [_ZERO] + integral
    if form < _EXP2_FORM:
        e = form - 4
        if e < 0:
            return [_ZERO, _POINT] + [_ZERO] * (-e - 1) + list(range(_DIGIT0, _DIGIT0 + digits))
        whole = list(range(_DIGIT0, _DIGIT0 + e + 1))
        if digits <= e + 1:
            return whole + integral
        return whole + [_POINT] + list(range(_DIGIT0 + e + 1, _DIGIT0 + digits))
    text = [_DIGIT0]
    if digits > 1:
        text += [_POINT] + list(range(_DIGIT0 + 1, _DIGIT0 + digits))
    exp_digits = 2 if form == _EXP2_FORM else 3
    return text + [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + 3 - exp_digits, _EXP_DIGITS + 3))


def _templates(integral: list[int]) -> np.ndarray:
    """The source-row positions of every class's text, one row per class,
    positive classes first (see ``_template``)."""
    texts = (bytes(_template(form, digits, integral)).ljust(WIDTH, bytes([_NUL]))
             for form in range(_FORMS) for digits in range(1, 18))
    positive = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, WIDTH)
    # a positive text is at most WIDTH - 1 bytes, so the last column is NUL
    negative = np.hstack([np.full((_NEGATIVE, 1), _MINUS, dtype=np.uint8), positive[:, :-1]])
    return np.vstack([positive, negative]).astype(np.intp)


def _powers():
    """10**(16 - E) for E = E_MIN ... E_MAX as hi + lo, hi split in Dekker's
    head and tail: hi is the power rounded, lo the rest rounded (int to
    float and int / int are correctly rounded)."""
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
    hi, lo = np.array(ups[::-1] + downs).T
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    return head, hi - head, np.ascontiguousarray(lo)


def _read_only(tables):
    for table in tables:
        table.flags.writeable = False
    return tables


# The lookup tables both kernels share, built as the module runs and
# read-only: 4-digit groups as little-endian words, and the position of D's
# last non-zero digit when the group ends D (16 less the group's trailing
# zeros, 12 for 0000); per E, one 8-byte word of "e", the exponent's sign,
# two NULs and the exponent's 4 digits; and 10**(16 - E) as hi + lo, one
# table each for hi's two halves and for lo.
_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view("<u4").reshape(-1)
_LAST_DIGIT = np.full(10000, 16)
_LAST_DIGIT[::10] = 15
_LAST_DIGIT[::100] = 14
_LAST_DIGIT[::1000] = 13
_LAST_DIGIT[0] = 12
_EXPONENTS = np.arange(E_MIN, E_MAX + 1)
_EXPONENT_WORDS = (ord("e") + (np.where(_EXPONENTS < 0, ord("-"), ord("+")).astype("<u8") << 8)
                   + (_WORDS[np.abs(_EXPONENTS)].astype("<u8") << 32))
_POWER_HEAD, _POWER_TAIL, _POWER_LO = _powers()
_read_only((_WORDS, _LAST_DIGIT, _EXPONENTS, _EXPONENT_WORDS, _POWER_HEAD, _POWER_TAIL, _POWER_LO))


@functools.cache
def _layout(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The tables of one text layout, "g17" or "repr", built on first use
    and read-only: per E, the class of a positive cell with one digit, and
    the class templates.  ``%.17g`` writes E = -4 ... 16 in fixed form;
    ``repr`` writes E = -4 ... 15, and ".0" after the digits of zero and of
    an integral value."""
    fixed_max, integral = (16, []) if name == "g17" else (15, [_POINT, _ZERO])
    forms = np.where((_EXPONENTS >= -4) & (_EXPONENTS <= fixed_max), _EXPONENTS + 4,
                     np.where(np.abs(_EXPONENTS) < 100, _EXP2_FORM, _EXP3_FORM))
    return _read_only((forms * 17, _templates(integral)))


def g17(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each element of a 1-D float64 array, as bytes of
    dtype ``S24`` (NUL-padded)."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    new = bits[1:] != bits[:-1]
    if new.all():  # also an empty array, which the run index cannot take
        return _g17(values)
    # each run of bit-equal neighbours is formatted once
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return np.repeat(_g17(values[starts]), np.diff(starts, append=values.size))


def _g17(values: np.ndarray) -> np.ndarray:
    """``g17`` of an array, each cell through the kernel."""
    placed, zero, index, x_hi, x_lo = _scaled(values)
    # x_hi >= 2**53 is an integer, so x_lo holds the fraction
    rounded = np.rint(x_lo)
    d = x_hi.astype(np.int64) + rounded.astype(np.int64)
    placed &= ((np.abs(x_lo - rounded) <= 0.5 - _MARGIN) & (x_hi < 1e17)
               & ((x_hi - 1e16) + x_lo >= _MARGIN))
    del x_hi, x_lo, rounded
    return _spell(values, d, index, placed, zero, _layout("g17"), "%.17g".__mod__)


def shortest(values: np.ndarray) -> np.ndarray:
    """json's text of each element of a 1-D float64 array, ``repr(v)`` or
    NaN, Infinity and -Infinity, as bytes of dtype ``S24`` (NUL-padded)."""
    values = np.asarray(values, dtype=np.float64)
    # the work arrays of the digits are dropped before the spelling
    return _spell(values, *_shortest_digits(values), _layout("repr"), json_float)


def _shortest_digits(values: np.ndarray):
    """``d``, ``index``, ``placed`` and ``zero`` of ``shortest``'s cells for
    ``_spell``: D is the fewest digits that read back, padded to 17."""
    placed, zero, index, x_hi, x_lo = _scaled(values)
    floor = np.floor(x_lo)
    frac = x_lo - floor
    whole = x_hi.astype(np.int64) + floor.astype(np.int64)
    # the scaled value less its digits above the last three
    low = whole % 1000
    rest = low + frac
    # v reads back from within half its ulp, 2**(e - 53) for v = s 2**e and
    # s in [1, 2): scaled, x 2**-53 / s
    mantissa = values.view(np.uint64) & _MANTISSA
    half_ulp = x_hi * 2.0**-53 / (mantissa | _ONE).view(np.float64)
    inner, outer = half_ulp - _MARGIN, half_ulp + _MARGIN
    # distances to the nearest candidates of 14, 15 and 16 digits
    far14 = np.minimum(rest, 1000.0 - rest) > outer
    near15 = np.abs(rest - np.rint(rest * 0.01) * 100.0)
    near16 = np.abs(rest - np.rint(rest * 0.1) * 10.0)
    # the fewest digits that read back: that candidate inside the interval,
    # the one a digit shorter outside it, neither within the margin of the
    # edge, and the candidate not within the margin of a rounding tie
    # (candidates of 15 digits are never near one inside the interval)
    digits15 = (near15 < inner) & far14
    far15 = near15 > outer
    digits16 = (near16 < inner) & far15 & (near16 < 5.0 - _MARGIN)
    digits17 = (near16 > outer) & (np.abs(frac - 0.5) > _MARGIN)
    unit = np.where(digits15, 100.0, np.where(digits16, 10.0, 1.0))
    d = (whole - low) + (np.rint(rest / unit) * unit).astype(np.int64)
    placed &= ((digits15 | digits16 | digits17) & (mantissa != 0)
               & (whole >= 10**16) & (d < 10**17))
    return d, index, placed, zero


def _scaled(values: np.ndarray):
    """Each |v| scaled by 10**(16 - E) in double-double arithmetic.

    Returns ``placed``, false for zeros, non-finite cells and cells beyond
    the table, ``zero``, the table index of each cell's E, and the scaled
    value as x_hi + x_lo; cells not placed are scaled as a stand-in.
    """
    a = np.abs(values)
    zero = a == 0.0
    placed = (a >= 10.0**(E_MIN + 1)) & (a < 10.0**E_MAX)
    a[~placed] = _STAND_IN
    # E; log10 may misjudge it by one, which the kernels' range checks catch
    index = np.floor(np.log10(a)).astype(np.intp) - E_MIN
    p_head, p_tail, p_lo = _POWER_HEAD[index], _POWER_TAIL[index], _POWER_LO[index]
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
    return placed, zero, index, x_hi, x_lo


def _spell(values, d, index, placed, zero, layout, fallback) -> np.ndarray:
    """The text of each cell, as bytes of dtype ``S24``: the 17-digit
    integer D = ``d`` of a placed cell spelled in ``layout`` (``_layout``
    of one text layout), and the ASCII str ``fallback(v)`` of every other
    cell but zeros."""
    classes, templates = layout
    n = values.size
    # Source rows: "-.0" and the first digit, four 4-digit groups, a NUL
    # word, "e" and the exponent's sign, the exponent's 4 digits.
    rows = np.empty((n, _ROW // 4), dtype="<u4")
    head = d // 10**8
    tail = d - head * 10**8
    first = head // 10**8
    head -= first * 10**8
    rows[:, 0] = _WORDS[first] - 0x0203  # "000d" less "\0\2\3" is "-.0d"
    g1 = head // 10**4
    g2 = head - g1 * 10**4
    g3 = tail // 10**4
    g4 = tail - g3 * 10**4
    rows[:, 1] = _WORDS[g1]
    rows[:, 2] = _WORDS[g2]
    rows[:, 3] = _WORDS[g3]
    rows[:, 4] = _WORDS[g4]
    rows[:, 5] = 0
    rows.view("<u8")[:, 3] = _EXPONENT_WORDS[index]
    text = rows.view(np.uint8)
    del d, head, tail, first, g1, g2, g3

    last = _LAST_DIGIT[g4]
    short = np.flatnonzero(g4 == 0)
    if short.size:  # trailing zeros before the last group
        nonzero = text[short, _DIGIT0 + 12:_DIGIT0 - 1:-1] != ord("0")
        last[short] = 12 - nonzero.argmax(axis=1)
    klass = np.where(zero, _ZERO_FORM * 17, classes[index] + last)
    klass += np.signbit(values) * _NEGATIVE
    flat = np.take(templates, klass, axis=0)
    flat += _ROW * np.arange(n)[:, None]
    text = np.take(text.reshape(-1), flat)

    unsure = np.flatnonzero(~(placed | zero))
    if unsure.size:
        text[unsure] = np.array(list(map(fallback, values[unsure].tolist())),
                                dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return text.view(f"S{WIDTH}").reshape(n)


#: Characters of CSV text yielded in one piece at most, unless the piece is
#: one row.  An ASCII str of 460 characters takes 509 bytes, so each piece
#: comes from CPython's small-object allocator (up to 512 bytes).  Larger
#: strs come from the C heap, next to a growing output buffer such as a
#: StringIO's.  The pieces trade time for memory.  Measured by
#: ``bench/run.py`` with its command count fixed at 160 and at 480
#: sheet_tools commands (seeds 1101-1106), whole 1024-row pieces peaked at
#: 68.6 and 73.9 MB RSS against 65.1 and 70.4 MB in pieces, and ran 8-9%
#: more commands per second.
_PIECE_CHARS = 460


def csv_pieces(columns: list, codes: list) -> list[str]:
    """The CSV rows of equal-length columns, one printf code each, as pieces
    of whole rows.

    A ``%.17g`` column is an array or a list of floats.  A ``%s`` column of
    labels may be a numpy str array, as a profile's side labels are; any
    other column is a list or a non-str array of the values its cells show
    (ints, bools, labels, None for an empty cell).  Every text is ASCII
    with no NUL or newline.  The columns are laid out as one ``(rows,
    columns, width + 1)`` byte matrix: each cell NUL-padded to the widest
    cell, then a ``,`` or, after a row's last cell, a newline.  The float
    cells are the texts of ``g17``, the bytes of ``%.17g``, of all the float
    columns in one call; a str array's cells are laid out from the array
    itself (``_labels``), any other column's cells are encoded
    (``_encoded``).  The text is the matrix with its NULs dropped
    (``_unpadded``), decoded once as ASCII, and cut into pieces of
    ``_PIECE_CHARS // widest row`` rows (at least one).
    """
    size = len(columns[0])
    float_at = [j for j, code in enumerate(codes) if code == "%.17g"]
    others = {j: _labels(column) if isinstance(column, np.ndarray) and column.dtype.kind == "U"
              else _encoded(column, code)
              for j, (column, code) in enumerate(zip(columns, codes)) if code != "%.17g"}
    width = max([WIDTH, *(text.shape[1] for text in others.values())])
    cells = np.zeros((size, len(codes), width + 1), dtype=np.uint8)
    floats = g17(np.array([columns[j] for j in float_at], dtype=np.float64).reshape(-1))
    cells[:, float_at, :WIDTH] = floats.view(np.uint8).reshape(
        len(float_at), size, WIDTH).transpose(1, 0, 2)
    for j, text in others.items():
        cells[:, j, :text.shape[1]] = text
    cells[:, :, width] = ord(",")
    cells[:, -1, width] = ord("\n")
    data = _unpadded(cells)
    text = str(data, "ascii")
    ends = np.flatnonzero(data == ord("\n")) + 1
    widest = max(ends[0], (ends[1:] - ends[:-1]).max(initial=0))
    per_piece = max(1, _PIECE_CHARS // int(widest))
    ends = ends[per_piece - 1::per_piece].tolist()
    if size % per_piece:
        ends.append(len(text))
    return [text[start:end] for start, end in zip([0] + ends, ends)]


def _labels(column: np.ndarray) -> np.ndarray:
    """The cells of a 1-D numpy str array of ASCII labels as a NUL-padded
    byte matrix, a row per cell as wide as the dtype: the low byte of each
    UCS4 code unit, read in the array's own byte order."""
    units = np.ascontiguousarray(column).view(column.dtype.str[0] + "u4")
    return units.reshape(len(column), column.dtype.itemsize // 4).astype(np.uint8)


def _encoded(cells, code: str) -> np.ndarray:
    """``(code % v).encode()`` of each cell of a list or a non-str array as
    a NUL-padded byte matrix, a row per cell as wide as the longest, None
    as an empty cell: the ``%d`` ints of an n_layers sweep, bools and
    labels held as lists."""
    texts = np.array([b"" if v is None else (code % v).encode() for v in cells])
    return texts.view(np.uint8).reshape(len(cells), texts.itemsize)


def _unpadded(rows: np.ndarray) -> np.ndarray:
    """The bytes of a byte matrix, in order, with its NUL padding dropped."""
    flat = rows.reshape(-1)
    return flat[flat != 0]


def json_vector(values: np.ndarray, pad: str) -> str:
    """The JSON text, as ``json.dumps(value, indent=2)`` writes it, of a 1-D
    complex128 array on a line indented by ``pad``.  An element with zero
    imaginary part is a plain number, any other an [re, im] pair (the
    codec's forms).  The floats are written by ``shortest``, as json
    spells them.

    Each element's item, with the separator after it, is one NUL-padded
    row of bytes; the text is every row with its NULs dropped.
    """
    size = len(values)
    cells = np.concatenate((values.real, values.imag))
    texts = shortest(cells).view(np.uint8).reshape(2, size, WIDTH)
    # the bytes around the texts of an element's parts, and after its item
    inner = pad + "  "
    pair_open, middle, close, end = (
        np.frombuffer(text.encode(), dtype=np.uint8)
        for text in (f"[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]", f",\n{inner}"))
    pieces = [pair_open, texts[0], middle, texts[1], close, end]
    widths = [piece.shape[-1] for piece in pieces]
    rows = np.concatenate([np.broadcast_to(piece, (size, width))
                           for piece, width in zip(pieces, widths)], axis=1)
    # an element with zero imaginary part is its real part alone
    pair_only = np.repeat([True, False, True, True, True, False], widths)
    rows[np.ix_(values.imag == 0.0, pair_only)] = 0
    text = str(_unpadded(rows), "ascii")
    return f"[\n{inner}" + text[:-len(end)] + f"\n{pad}]"
