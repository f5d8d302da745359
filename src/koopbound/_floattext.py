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


def _float_cells(x: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, int]:
    """Fill the float cells (shape (rows, columns, _FLOAT_WORDS)) of the
    values x (rows * columns, flat), separators aside; return their mask keys
    and how many values were formatted by repr."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = a == 0
    z, s, t = _shortest(np.where(fast, a, 1.0))
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
