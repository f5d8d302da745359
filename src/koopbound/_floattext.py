"""CSV rows whose floats are written exactly as ``repr`` writes them.

Python's ``repr(float)`` is the shortest decimal string that reads back as the
same double, and of several such strings the one closest to it (Steele &
White; Gay, 1990).  For 1e-4 <= |x| < 1e16 it writes the digits positionally,
with at least one digit on each side of the point.  Ryu (Adams, PLDI 2018)
shows that the same digits come from fixed-width integer arithmetic; here
numpy does that arithmetic for a whole block of values:

* Scaling.  For s with y = |x| * 10**s in [1e16, 1e17), y is computed exactly
  as a double-double by Dekker's TwoProduct, since 10**s is an exact double.
  Its high part is an integer, because y > 2**53, so y is held as an int64
  integer part and an int64 fraction in units of 2**-58; every bit of y lies
  at or above 2**-51.
* Rounding interval.  The decimals that read back as x lie within half an ulp
  of it; scaled by 10**s, the half-ulp is exact at 2**-58 too.  Below a
  power-of-two significand the half-ulp is halved, and the end points are
  included exactly when the significand is even.
* Digits.  The shortest string is a multiple of 10**t in that interval, for
  the largest t that has one (every smaller t has one too).  Of those
  multiples the one closest to y is taken, ties going to the even digit.  The
  digits are laid out as ``repr`` does ('-', integer digits, '.', fraction
  digits or '0') through a 4-digit lookup table, and one boolean-mask
  compress per block keeps the characters each value uses.

Any other value, zero aside (written as '0.0' or '-0.0'), goes through
``repr`` one value at a time and is spliced into its cell.

Reading runs the same arithmetic backwards, for a block of lines at a time:

* Fields.  One scan finds the commas, points and line ends; each field of
  at most 24 bytes is gathered right-aligned as three 8-byte words, with the
  bytes before it, a leading '-' and its one point set to '0'.  Eight ASCII
  digits to a word become an integer by the SWAR multiply-shift (Lemire,
  2018), which gives the field's digits as an integer M and its fraction
  digits f.
* Scaling.  For M <= 2**53, M and 10**f (f <= 22) are exact doubles, so one
  IEEE division rounds M / 10**f correctly (Clinger, 1990).  Up to 10**18 the
  quotient of float(M) is within two ulps; it is settled against the
  midpoints of its rounding interval, each times 10**f held exactly by
  Dekker's TwoProduct plus the scaled half-ulp, ties going to even.
* Anything else (exponents, 'inf', spaces, '+', '_', non-ASCII digits, over
  18 significant digits, longer fields) goes through ``float()`` or, for the
  integers, numpy's int64 conversion, one value at a time, and is spliced
  into its cell, so every field reads as those read it.
"""

from __future__ import annotations

import numpy as np

# Rows are written in blocks of about this many cells, which bounds the
# working memory (a few hundred bytes a cell) whatever the input size.
_BLOCK_CELLS = 1 << 14

_FRACTION_BITS = 58
_UNIT = 1 << _FRACTION_BITS
# 10**k as exact doubles for k = 0..22 (each partial product is exact), and
# their halves for Dekker's product.
_POW10 = np.cumprod(np.full(23, 10.0)) / 10.0
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HIGH = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH
# 10**k as uint64 for k = 0..19 and as int64 for k = 0..18.
_POW10_UINT = np.cumprod(np.r_[1, np.full(19, 10)].astype(np.uint64))
_POW10_INT = _POW10_UINT[:19].astype(np.int64)
# The ASCII digits of 0..9999, four bytes to a word.
_DIGITS = (np.arange(10000)[:, None] // _POW10_INT[3::-1] % 10 + ord("0")).astype(np.uint8)
_DIGITS = _DIGITS.view(np.uint32).ravel()


def _word(text: str) -> np.uint32:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)[0]


# A cell is a run of 4-byte words, of which a mask keeps the bytes written.
# An integer cell: "   -", the 20 digits of its magnitude, the separator.
# A float cell: "  -0" (the '0' of an empty integer part), the 20 digits of
# the integer Z that y is rounded to, "   .", Z again, the separator.  Its
# integer digits come from the first copy of Z and its fraction digits from
# the second.  A float formatted by repr, or an empty cell, keeps its first
# 0..24 bytes.
_INT_WORDS, _FLOAT_WORDS = 7, 13
_SIGN, _POINT, _COMMA, _NEWLINE = _word("   -"), _word("   ."), _word(",   "), _word("\n   ")
_SIGN_ZERO = _word("  -0")
_MAX_REPR = 24  # len(repr(-2.2250738585072014e-308))


def _masks():
    """Byte masks of integer and float cells, one row per cell key."""
    columns = np.arange(20)
    neg, digits = np.indices((2, 21)).reshape(2, -1, 1)
    ints = np.zeros((neg.size, 4 * _INT_WORDS), dtype=bool)
    ints[:, 3] = neg[:, 0]
    ints[:, 4:24] = columns >= 20 - digits
    ints[:, 24] = True

    neg, first, point, digits = np.indices((2, 2, 21, 21)).reshape(4, -1, 1)
    first = first + 2
    floats = np.zeros((neg.size + _MAX_REPR + 1, 4 * _FLOAT_WORDS), dtype=bool)
    floats[: neg.size, 2] = neg[:, 0]
    floats[: neg.size, 3] = (point <= first)[:, 0]
    floats[: neg.size, 4:24] = (columns >= first) & (columns < point)
    floats[: neg.size, 27] = True
    floats[: neg.size, 28:48] = (columns >= point) & (columns < point + digits)
    floats[neg.size :, :_MAX_REPR] = np.arange(_MAX_REPR) < np.arange(_MAX_REPR + 1)[:, None]
    floats[:, 48] = True
    return ints, floats


# Integer cell key: 21 * negative + digit count.  Float cell key:
# ((2 * negative + (Z below 10**17)) * 21 + first fraction digit in Z) * 21
# + fraction digit count; _TEXT + length for a cell holding that many bytes.
_INT_MASKS, _FLOAT_MASKS = _masks()
_TEXT = 2 * 2 * 21 * 21


def _digit_words(magnitude: np.ndarray, cells: np.ndarray, offsets) -> None:
    """Write the 20 zero-padded digits of each uint64 magnitude (below
    10**20) as five words at each of the word offsets of its cell."""
    shape = cells.shape[:-1]
    for group in range(5):
        power = _POW10_UINT[16 - 4 * group]
        quad = magnitude // power
        magnitude = magnitude - quad * power
        word = np.take(_DIGITS, quad).reshape(shape)
        for offset in offsets:
            cells[..., offset + group] = word


def _two_product(a: np.ndarray, s: np.ndarray):
    """(high, low) with high + low == a * 10**s exactly (Dekker)."""
    high = a * np.take(_POW10, s)
    c = _SPLITTER * a
    a_high = c - (c - a)
    a_low = a - a_high
    b_high, b_low = np.take(_POW10_HIGH, s), np.take(_POW10_LOW, s)
    low = ((a_high * b_high - high) + a_high * b_low + a_low * b_high) + a_low * b_low
    return high, low


def _multiples(integer, fraction, lower, upper, even, p):
    """For y = integer + fraction * 2**-58 and its interval [y - lower,
    y + upper] (2**-58 units): y // p, the distances from y down to the
    multiple of p below it and up to the one above, and whether each of
    those multiples lies in the interval.  p is a power of ten up to 10**17,
    one for all values or one per value."""
    quotient = integer // p
    rem = integer - quotient * p
    # The distances are capped above every half-ulp where they would overflow.
    down = np.minimum(rem, 16) * _UNIT + fraction
    up = np.minimum(p - rem, 16) * _UNIT - fraction
    down_in = (down < lower) | (even & (down == lower))
    up_in = (up < upper) | (even & (up == upper))
    return quotient, down, up, down_in, up_in


def _shortest(a: np.ndarray):
    """For doubles 1e-4 <= a < 1e16 (1-d): (Z, s, t) such that Z * 10**-s is
    the shortest decimal that reads back as a, the closest to a of those,
    ties to even; Z is a multiple of 10**t, and a * 10**s is in [1e16, 1e17)."""
    # log10 may be off by one next to a power of ten; the exact product
    # settles s there.
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    high, low = _two_product(a, s)
    below = (high < 1e16) | ((high == 1e16) & (low < 0))
    above = (high > 1e17) | ((high == 1e17) & (low >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        s[fix] += below[fix].astype(np.int64) - above[fix]
        high[fix], low[fix] = _two_product(a[fix], s[fix])

    significand, exponent = np.frexp(a)  # a = significand * 2**exponent
    scaled_low = np.ldexp(low, _FRACTION_BITS).astype(np.int64)
    integer = high.astype(np.int64) + (scaled_low >> _FRACTION_BITS)
    fraction = scaled_low & (_UNIT - 1)
    # Half an ulp of a is 2**(exponent - 54): scaled by 10**s, in units of
    # 2**-58, below 2**62.
    upper = np.ldexp(np.take(_POW10, s), exponent + (_FRACTION_BITS - 54)).astype(np.int64)
    lower = np.where(significand == 0.5, upper >> 1, upper)
    even = np.ldexp(significand, 53).astype(np.int64) & 1 == 0

    # Every value has a multiple of 10**0 in its interval, whose halves are
    # at least 0.55 wide; t is the last power with one.
    t = np.zeros(a.shape, dtype=np.int64)
    active = np.arange(a.size)
    state = (integer, fraction, lower, upper, even)
    for k in range(1, 18):
        _, _, _, down_in, up_in = _multiples(*state, _POW10_INT[k])
        found = np.flatnonzero(down_in | up_in)
        if not found.size:
            break
        active = np.take(active, found)
        t[active] = k
        state = tuple(np.take(v, found) for v in state)
    # Of the multiples of 10**t in the interval, the one closest to y, ties
    # going to the even digit.
    p = np.take(_POW10_INT, t)
    quotient, down, up, down_in, up_in = _multiples(integer, fraction, lower, upper, even, p)
    take_up = up_in & (~down_in | (up < down) | ((up == down) & (quotient & 1 == 1)))
    return (quotient + take_up) * p, s, t


# What _shortest sees in place of a zero, an empty cell or a value for repr:
# its shortest digits end in a nonzero 17th, so the search for t drops it at
# the first power of ten (1.0, a multiple of 10**16, kept it through all 17).
_STAND_IN = 0.30000000000000004


def _float_cells(x: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Fill the float cells (shape (rows, columns, _FLOAT_WORDS)) of the
    values x (rows * columns, flat), separators aside; return their mask keys
    and how many values were formatted by repr."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0
    z, s, t = _shortest(np.where(fast, a, _STAND_IN))
    z[zero], s[zero], t[zero] = 0, 17, 17
    _digit_words(z.view(np.uint64), cells, (1, 7))
    cells[..., 0] = _SIGN_ZERO
    cells[..., 6] = _POINT
    key = (((np.signbit(x) * 2 + (z < _POW10_INT[17])) * 21 + (20 - s)) * 21
           + np.maximum(s - t, 1))
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        text = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{_MAX_REPR}")
        text = text.view(np.uint8).reshape(-1, _MAX_REPR)
        row, column = np.divmod(slow, cells.shape[1])
        cells.view(np.uint8)[row, column, :_MAX_REPR] = text
        key[slow] = _TEXT + np.count_nonzero(text, axis=1)
    return key, slow.size


def _int_cells(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Fill the integer cells (shape (rows, columns, _INT_WORDS)) of the
    int64 values (rows * columns, flat), separators aside; return their mask
    keys."""
    negative = values < 0
    # Negation modulo 2**64 gives every magnitude, that of -2**63 included.
    magnitude = np.where(negative, -values, values).view(np.uint64)
    _digit_words(magnitude, cells, (1,))
    cells[..., 0] = _SIGN
    digits = np.maximum(np.searchsorted(_POW10_UINT, magnitude, side="right"), 1)
    return negative * 21 + digits


def write_rows(fh, ints, floats, empty) -> int:
    """Write one CSV line per row to the binary file fh: the row's integers,
    then its floats, comma-separated.

    Integers come out as ``str`` writes them and floats as ``repr`` does; a
    float cell where ``empty`` is True is written as nothing.  Returns how
    many floats were formatted by ``repr`` itself.
    """
    ints = np.asarray(ints, dtype=np.int64)
    floats = np.asarray(floats, dtype=np.float64)
    n_ints, n_floats = ints.shape[1], floats.shape[1]
    split = n_ints * _INT_WORDS
    step = max(1, _BLOCK_CELLS // (n_ints + n_floats))
    fallback = 0
    for start in range(0, len(floats), step):
        size = min(step, len(floats) - start)
        words = np.empty((size, split + n_floats * _FLOAT_WORDS), dtype=np.uint32)
        mask = np.empty((size, 4 * words.shape[1]), dtype=bool)
        int_key = _int_cells(np.ascontiguousarray(ints[start : start + size]).ravel(),
                             words[:, :split].reshape(size, n_ints, _INT_WORDS))
        blank = np.asarray(empty[start : start + size], dtype=bool).ravel()
        float_key, slow = _float_cells(
            np.where(blank, 0.0, floats[start : start + size].ravel()),
            words[:, split:].reshape(size, n_floats, _FLOAT_WORDS))
        fallback += slow
        float_key[blank] = _TEXT
        words[:, _INT_WORDS - 1 : split : _INT_WORDS] = _COMMA
        words[:, split + _FLOAT_WORDS - 1 :: _FLOAT_WORDS] = _COMMA
        words[:, -1] = _NEWLINE
        np.take(_INT_MASKS, int_key.reshape(size, n_ints), axis=0,
                out=mask[:, : 4 * split].reshape(size, n_ints, 4 * _INT_WORDS))
        np.take(_FLOAT_MASKS, float_key.reshape(size, n_floats), axis=0,
                out=mask[:, 4 * split :].reshape(size, n_floats, 4 * _FLOAT_WORDS))
        fh.write(words.view(np.uint8).ravel()[mask.ravel()])
    return fallback


# Reading: a field of up to _CELL bytes is decoded in bulk from its cell,
# three little-endian words whose low byte holds its leftmost character.
_CELL = 24
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_HIGH_BITS = np.uint64(0x8080808080808080)
# _PREFIX[:, c]: the words of a cell with its first c bytes set, c = 0.._CELL.
_PREFIX = np.array([[(1 << 8 * min(max(c - 8 * k, 0), 8)) - 1 for c in range(_CELL + 1)]
                    for k in range(_CELL // 8)], dtype=np.uint64)
_SIGNIFICAND = (1 << 52) - 1


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The values of words of eight digits 0..9, the first in the low byte
    (the SWAR multiply-shift: pairs, then quads, then the eight)."""
    v = (v * np.uint64(10 * 2**8 + 1)) >> np.uint64(8)
    v = ((v & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 2**16 + 1)) >> np.uint64(16)
    return ((v & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 * 2**32 + 1)) >> np.uint64(32)


def _cell_values(b: np.ndarray, points: np.ndarray, ends: np.ndarray, cut: np.ndarray):
    """The cells of the fields of the text b that end at ends: the _CELL
    bytes before each end, read from b behind _CELL '0' bytes, with the
    points at points and the cell's first cut bytes made '0'.  Returns the
    value of each cell's 24 digits, and whether every byte of it is an ASCII
    digit and the value below 10**19 (so that it fits a uint64)."""
    padded = np.empty(b.size + _CELL, dtype=np.uint8)
    padded[:_CELL] = 48
    padded[_CELL:] = b
    padded[_CELL + points] = 48
    # Every cell of padded as one item, so that a gather copies 24 bytes at once.
    cells = np.ndarray((padded.size - _CELL + 1,), dtype=f"V{_CELL}", buffer=padded,
                       strides=(1,))
    words = np.ascontiguousarray(cells[ends].view(np.uint64).reshape(-1, _CELL // 8).T)
    del padded, cells
    clear = np.take(_PREFIX, cut, axis=1)
    words ^= (words ^ _ASCII_ZEROS) & clear
    v = words - _ASCII_ZEROS
    # The lowest byte that is no digit sets its high bit in v, or in v plus
    # 0x76 (a byte of v above 9), and no byte below it borrows or carries.
    faults = (v | (v + np.uint64(0x7676767676767676))) & _HIGH_BITS
    parts = _eight_digits(v)
    # Wraps (silently, as arrays do) only where parts[0] is 1000 or more.
    value = parts[0] * _POW10_UINT[16] + parts[1] * _POW10_UINT[8] + parts[2]
    return value, ((faults[0] | faults[1] | faults[2]) == 0) & (parts[0] < 1000)


def _power_of_two(k: np.ndarray) -> np.ndarray:
    """2.0**k for int64 k in [-1022, 1023], from its exponent bits (an exact
    factor, several times faster than ldexp)."""
    return ((k + 1023) << 52).view(np.float64)


def _settle(q: np.ndarray, mantissa: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Round mantissa / 10**f (2**53 < mantissa < 10**18, f <= 22) correctly,
    from q within two ulps of it: q moves an ulp at a time until the quotient
    lies in its rounding interval.

    q = s * 2**e with s in [0.5, 1) has ulp 2**(e-53).  The residual
    d = mantissa - q * 10**f, against the half-ulp h = 10**f * 2**(e-54),
    places the quotient: above q + ulp/2 when d > h, below q - ulp/2 when
    d < -h (-h/2 when s == 0.5, where the ulp below is half), ties going to
    the even significand.  Every term is a multiple of 2**(e-54+f): h is 5**f
    times it, q * 10**f = high + low is q's 53-bit significand times 5**f
    times 2**(e-53+f), and high and the mantissa are integers (high is near
    the mantissa, above 2**52).  In that unit, or in 1 when it is larger, the
    terms are int64 integers: |d| is at most 4h, h is at most 5**22 < 2**52
    there, and |mantissa - high| at most 8h.
    """
    bits = q.view(np.int64)
    exponent = (bits >> 52) - 1022
    k = np.maximum(54 - exponent - f, 0)
    high, low = _two_product(q, f)
    d = ((mantissa - high.astype(np.int64)) << k) - (low * _power_of_two(k)).astype(np.int64)
    half = (np.take(_POW10, f) * _power_of_two(exponent - 54 + k)).astype(np.int64)
    odd = bits & 1
    up = d + odd > half
    down = d - odd < -(half >> (bits & _SIGNIFICAND == 0))
    moved = np.flatnonzero(up | down)
    if moved.size:
        step = np.nextafter(q[moved], np.where(up[moved], np.inf, 0.0))
        q[moved] = _settle(step, mantissa[moved], f[moved])
    return q


def read_rows(text, ints: np.ndarray, floats: np.ndarray):
    """Read the CSV lines of the bytes-like text, each ending in LF, into
    ints (rows, i) and floats (rows, j): each line holds i integers, then j
    floats, comma-separated, as ``write_rows`` writes them.

    Integers read as numpy's int64 conversion reads them and floats as
    ``float()`` does; an empty float field reads as 0.0.  Returns the mask of
    empty float fields, or None when a line does not hold i + j fields, an
    integer field does not convert (an empty one neither), or a float field
    does not convert or is not finite.
    """
    rows, n_ints = ints.shape
    width = n_ints + floats.shape[1]
    b = np.frombuffer(text, dtype=np.uint8)
    marks = np.flatnonzero(((b | 2) == 46) | (b == 10))  # ',', '.' and LF
    is_point = b[marks] == 46
    ends = np.compress(~is_point, marks)
    if ends.size != rows * width or (b[ends[width - 1 :: width]] != 10).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    length = ends - starts
    negative = b[starts] == 45
    points = np.compress(is_point, marks)
    pointed = np.flatnonzero(is_point) - np.arange(points.size)  # the field of each point
    has_point = np.zeros(ends.size, dtype=bool)
    has_point[pointed] = True
    f = np.zeros(ends.size, dtype=np.int64)
    f[pointed] = ends[pointed] - points - 1

    # A field's cell holds its last _CELL bytes with its point made '0', and
    # the bytes before the field and its sign cleared to '0'.  With its point
    # a '0', the integer part I of a field reads ten times too large: its
    # digits M are V - 9 * I * 10**f.
    value, ok = _cell_values(b, points, ends, np.clip(_CELL - length + negative, 0, _CELL))
    integer = value // np.take(_POW10_UINT, np.minimum(f + 1, 19)) * has_point
    mantissa = value - np.uint64(9) * integer * np.take(_POW10_UINT, np.minimum(f, 18))
    ok &= ((mantissa < _POW10_UINT[18]) & (length <= _CELL)
           & (length - negative - has_point >= 1) & (f <= 22))
    mantissa = mantissa.view(np.int64)
    ok[pointed[1:][pointed[1:] == pointed[:-1]]] = False  # a second point
    ok.reshape(rows, width)[:, :n_ints] &= ~has_point.reshape(rows, width)[:, :n_ints]
    mantissa *= ok

    # The quotient is correctly rounded where float(M) is exact, as it is up
    # to 2**53; elsewhere it is settled.
    f = np.minimum(f, 22)
    m = mantissa.astype(np.float64)
    q = m / np.take(_POW10, f)
    hard = np.flatnonzero(m.astype(np.int64) != mantissa)
    if hard.size:
        q[hard] = _settle(q[hard], mantissa[hard], f[hard])
    mantissa, negative = mantissa.reshape(rows, width), negative.reshape(rows, width)
    ints[...] = np.where(negative[:, :n_ints], -mantissa[:, :n_ints], mantissa[:, :n_ints])
    floats[...] = np.where(negative, -q.reshape(rows, width), q.reshape(rows, width))[:, n_ints:]

    empty = (length == 0).reshape(rows, width)
    empty[:, :n_ints] = False
    slow = np.flatnonzero(~(ok | empty.ravel()))
    if slow.size:
        row, column = np.divmod(slow, width)
        is_int = column < n_ints
        try:
            texts = [str(text[start:end], "utf-8")
                     for start, end in zip(starts[slow].tolist(), ends[slow].tolist())]
            ints[row[is_int], column[is_int]] = np.array(
                [t for t, i in zip(texts, is_int.tolist()) if i], dtype=np.int64)
            values = [float(t) for t, i in zip(texts, is_int.tolist()) if not i]
        except (ValueError, OverflowError):  # UnicodeDecodeError is a ValueError
            return None
        if not np.isfinite(values).all():
            return None
        floats[row[~is_int], column[~is_int] - n_ints] = values
    return empty[:, n_ints:]
