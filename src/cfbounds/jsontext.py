"""JSON text of numeric arrays, formatted as bytes a whole array at a time.

``json_cells`` turns a 1-d array of bools, ints or floats into a ``uint8``
matrix with one row per value: the row holds the value's text and then a
row end (``", "`` by default), with NUL bytes as padding anywhere between
or around their characters.  ``joined`` lays such matrices side by side
and drops the NULs in one pass (``bytes.translate``), which joins the
rows into one string.  No value is formatted by ``str`` on its own.

A float's text is that of ``float.__repr__``, computed in ``uint64``
arithmetic.  Its digits are the shortest decimal that rounds back to the
float, nearest to it among the shortest, by Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2021).  Two changes to Java's
version follow from ``repr`` printing a single digit where Java prints
at least two: the one-digit-shorter candidate is tried from 10 on (Java:
from 100 on), and a tiny subnormal's decimal shift applies on that path
too.  Without them 5e-324 prints as 4.9e-324 or 5e-323.
"""
from __future__ import annotations

import numpy as np

__all__ = ["json_cells", "joined"]

_U64 = np.uint64
_MASK32 = _U64(0xFFFF_FFFF)
_MASK63 = _U64(0x7FFF_FFFF_FFFF_FFFF)

# Schubfach's constants for float64: the smallest binary exponent, the
# smallest normal significand, the subnormal significands that are scaled
# by 10 first, and the range of decimal exponents k
_Q_MIN, _C_MIN, _C_TINY, _K_MIN, _K_MAX = -1074, 1 << 52, 3, -324, 292


def _flog10pow2(q):
    """floor(q log10 2), exact for |q| <= 5456721 (ints or int64 arrays)."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)), exact for |q| <= 5456721."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for each k in
    [_K_MIN, _K_MAX], a 126-bit number split into g >> 63 and g mod 2^63."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = 10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift
        else:
            g = (1 << shift) // 10 ** k
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & ((1 << 63) - 1))
    return np.array(g1, dtype=_U64), np.array(g0, dtype=_U64)


_G1, _G0 = _g_table()
_POW10 = 10 ** np.arange(20, dtype=_U64)
# the two ASCII digits of 0..99 as one little-endian uint16 each, so that
# a matrix of them viewed as bytes spells the digits in order
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
# "0." and the zeros before a value's first digit, by -decpt: three words each
_PREFIXES = np.array([b"0.", b"0.0", b"0.00", b"0.000", b""], "S6").view("<u2").reshape(5, 3).T
_COLS = np.arange(18, dtype=np.int8)
# the words of the tens and the units digit of 0..99
_TENS, _UNITS = (_PAIRS & np.uint16(0xFF)), (_PAIRS >> np.uint16(8))
_ZERO, _DOT, _MINUS, _PLUS, _E = b"0.-+e"


def _limbs(a):
    """The 32-bit halves (high, low) of the ``uint64`` array a."""
    return a >> _U64(32), a & _MASK32


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of ``uint64`` arrays given
    as ``_limbs``, for b < 2^63."""
    (a1, a0), (b1, b0) = a, b
    hi = a1 * b1
    low = a0 * b0
    low >>= _U64(32)
    low += a0 * b1      # with b1 < 2^31 the sums in low stay below 2^64
    cross = a1 * b0
    low += cross & _MASK32
    low >>= _U64(32)
    cross >>= _U64(32)
    hi += cross
    hi += low
    return hi


def _rop(g, cp):
    """Schubfach's round-to-odd product: g cp / 2^127 for cp < 2^63,
    truncated, with its lowest bit set where the dropped bits are not zero.

    g = g1 2^63 + g0 is given as g1, ``_limbs(g1)`` and ``_limbs(g0)``,
    and the product of g1 and cp wraps at 2^64, as in Java's version.
    """
    g1, g1_limbs, g0_limbs = g
    b = _limbs(cp)
    z = g1 * cp
    z >>= _U64(1)
    z += _mulhi(g0_limbs, b)
    vb = _mulhi(g1_limbs, b)
    vb += z >> _U64(63)
    z &= _MASK63
    z += _MASK63
    z >>= _U64(63)
    vb |= z
    return vb


def _shortest(bits):
    """Schubfach's shortest decimal d 10^e of each finite float64 with the
    ``uint64`` bit pattern in ``bits``, as ``uint64`` and ``int64`` arrays;
    a zero gives some d > 0, which the caller overwrites.

    At 8192 values each ``uint64`` array is 64 KB, and the trace writer's
    memory peak is made of them: the products run in place, and each
    array is dropped once it has been used.
    """
    q = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    c = bits & _U64(_C_MIN - 1)
    subnormal = q == 0
    tiny = subnormal & (c < _U64(_C_TINY))      # scaled by 10, one decimal down
    if subnormal.any():
        c[tiny] *= _U64(10)
        c[subnormal & (c == 0)] = 10      # a zero: any valid significand
        np.maximum(q, 1, out=q)
    c |= (~subnormal).astype(_U64) << _U64(52)
    q += _Q_MIN - 1
    odd = (c & _U64(1)).astype(bool)
    irregular = (c == _U64(_C_MIN)) & (q != _Q_MIN)     # the gap below c halves
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    q += _flog2pow10(-k) + 2
    h = q.astype(np.uint8)
    del q
    g1 = _G1[k - _K_MIN]
    g = g1, _limbs(g1), _limbs(_G0[k - _K_MIN])
    del g1
    k -= tiny
    c <<= _U64(2)
    vb = _rop(g, c << h)
    vbl = _rop(g, (c - _U64(2) + irregular) << h)
    vbl += odd
    c += _U64(2)
    c <<= h
    vbr = _rop(g, c)
    vbr -= odd
    del g, c, odd, irregular
    s = vb >> _U64(2)
    # one digit shorter: a multiple of 10 inside the rounding interval
    sp10 = s // _U64(10)
    sp10 *= _U64(10)
    upin = vbl <= sp10 << _U64(2)
    short = (sp10 + _U64(10)) << _U64(2) <= vbr
    short ^= upin
    short &= s >= _U64(10)
    # full length: s or s + 1, whichever is inside, else the nearer, else the even
    uin = vbl <= s << _U64(2)
    del vbl
    win = (s + _U64(1)) << _U64(2) <= vbr
    del vbr
    mid = s << _U64(2)
    mid += _U64(2)
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0)))
    del vb, mid, uin, win
    s += ~lower
    sp10 += ~upin * _U64(10)
    np.copyto(s, sp10, where=short)
    return s, k


def _pairs(x, count: int) -> np.ndarray:
    """The ``uint64`` array x < 100^count as ``count`` rows of ``_PAIRS``
    words, the most significant first."""
    out = np.empty((count, len(x)), dtype=_PAIRS.dtype)
    for j in range(count - 1, -1, -1):
        q = x // _U64(100)      # np.divmod takes half as long again
        out[j] = _PAIRS.take(x - q * _U64(100))
        x = q
    return out


def _digit_count(x) -> np.ndarray:
    """The number of decimal digits of each ``uint64`` in x, 0 for 0."""
    return np.searchsorted(_POW10, x, side="right")


def _words(text: bytes) -> np.ndarray:
    """``text`` as little-endian uint16 words, NUL-padded to an even length."""
    return np.frombuffer(text + b"\0" * (len(text) % 2), "<u2")


def _text_rows(words: np.ndarray) -> np.ndarray:
    """The text matrix of a word matrix with one column per value."""
    return np.ascontiguousarray(words.T).view(np.uint8)


def _float_cells(x: np.ndarray, end: bytes) -> np.ndarray:
    """The text matrix of the finite float64 array x, as ``float.__repr__``
    spells it: positional for a decimal point position -4 < decpt <= 16,
    with ``.0`` on an integral value, else ``d[.ddd]e±XX``.

    The text is built as a matrix of uint16 words with one column per
    value, so that every step works on contiguous rows: the sign, the
    ``0.000`` before a small value, one word per digit holding the digit
    and the point that may follow it, the exponent, and ``end``.  Sections
    no value needs are left out.
    """
    n = len(x)
    bits = x.view(_U64)
    neg = bits >= _U64(1 << 63)
    zero = (bits << _U64(1)) == 0
    d, e = _shortest(bits)
    # the digits left-aligned in 18 places, and where the point goes
    length = _digit_count(d)
    decpt = e + length
    del e
    d *= _POW10[18 - length]
    d[zero], decpt[zero], length[zero] = 0, 1, 1
    positional = (decpt > -4) & (decpt <= 16)
    lead = positional & (decpt <= 0)                        # 0.000ddd
    point = positional & (decpt > 0)                        # ddd.ddd
    # a word per digit, for at least as many digits as any value prints
    width = int(np.where(point, np.maximum(length, decpt + 1), length).max(initial=1))
    del length
    # word offsets of the sections
    tail = _words(end)
    body_at = int(neg.any()) + 3 * int(lead.any())
    exp_at = body_at + width
    end_at = exp_at + 3 * int(not positional.all())
    out = np.empty((end_at + len(tail), n), dtype="<u2")
    body = out[body_at:exp_at]
    for j in range(0, width, 2):
        place = _POW10[16 - j]
        pair = d // place
        d -= pair * place
        _TENS.take(pair, out=body[j])
        if j + 1 < width:
            _UNITS.take(pair, out=body[j + 1])
    del d
    # nd significant digits, of which kept are printed: more where ddd0.0
    cols = _COLS[:width, None]
    nd = ((body != _ZERO) * _COLS[1:width + 1, None]).max(axis=0)
    nd[zero] = 1
    kept = np.where(point, np.maximum(nd, decpt + 1), nd)
    body *= cols < kept
    dot = np.where(point, decpt - 1, np.where(~positional & (nd > 1), 0, -1))
    has = np.flatnonzero(dot >= 0)
    body[dot[has], has] |= np.uint16(_DOT << 8)
    if neg.any():
        out[0] = neg * np.uint16(_MINUS)
    if lead.any():
        out[body_at - 3:body_at] = _PREFIXES.take(np.where(lead, -decpt, 4), axis=1)
    if end_at > exp_at:
        exp = np.abs(decpt - 1)
        sign = np.where(decpt > 0, _PLUS, _MINUS).astype(np.uint16) << np.uint16(8)
        out[exp_at] = (sign | _E) * ~positional
        out[exp_at + 1] = (exp // 100 + _ZERO) * (~positional & (exp >= 100))
        out[exp_at + 2] = _PAIRS[exp % 100] * ~positional
    out[end_at:] = tail[:, None]
    return _text_rows(out)


def _int_cells(values: np.ndarray, end: bytes) -> np.ndarray:
    """The text matrix of the integer array ``values``, as ``str`` spells it.

    Built as ``_float_cells`` builds its matrix, from the sign, two digits
    per word, and ``end``.
    """
    if values.dtype.kind == "u":
        neg, mag = np.zeros(len(values), dtype=bool), values.astype(_U64)
    else:
        v = values.astype(np.int64).view(_U64)
        neg = (v >> _U64(63)).astype(bool)
        mag = np.where(neg, ~v + _U64(1), v)
    count = (max(int(_digit_count(mag.max(initial=0))), 1) + 1) // 2
    tail = _words(end)
    signed = int(neg.any())
    out = np.empty((signed + count + len(tail), len(values)), dtype="<u2")
    out[:signed] = neg * np.uint16(_MINUS)
    # keep a pair's first digit (its low byte) from 10 p on and its second
    # from p on, for p its place value; the units digit always
    place = _POW10[2 * np.arange(count - 1, -1, -1)][:, None]
    mask = (mag >= place * _U64(10)) * np.uint16(0xFF)
    mask |= (mag >= place) * np.uint16(0xFF00)
    mask[-1] |= np.uint16(0xFF00)
    np.bitwise_and(_pairs(mag, count), mask, out=out[signed:signed + count])
    out[signed + count:] = tail[:, None]
    return _text_rows(out)


def _table(texts) -> np.ndarray:
    """The ASCII ``texts`` as one fixed-width bytes array, NUL-padded."""
    return np.array([t.encode("ascii") for t in texts], dtype=bytes)


def _rows(table: np.ndarray, index) -> np.ndarray:
    """The rows ``table[index]`` of a ``_table`` as a uint8 matrix."""
    return table.take(index).view(np.uint8).reshape(len(index), table.itemsize)


def json_cells(values: np.ndarray, nonfinite: dict, end: bytes = b", ") -> np.ndarray:
    """The text matrix of the 1-d array ``values``, each row ended by ``end``.

    The texts are ``false``/``true`` for bools, ``str`` for ints and
    ``float.__repr__`` for floats (other float types as float64), with the
    texts ``"nan"``, ``"inf"`` and ``"-inf"`` respelled by ``nonfinite``.
    """
    if values.dtype == bool:
        return _rows(_table([t + end.decode("ascii") for t in ("false", "true")]),
                     values.view(np.uint8))
    if values.dtype.kind in "iu":
        return _int_cells(values, end)
    x = values.astype(np.float64, copy=False)
    finite = np.isfinite(x)
    if finite.all():
        return _float_cells(x, end)
    table = _table([nonfinite[key] + end.decode("ascii") for key in ("nan", "inf", "-inf")])
    special = _rows(table, np.where(np.isnan(x), 0, np.where(x > 0, 1, 2))[~finite])
    if not finite.any():
        return special
    cells = _float_cells(x[finite], end)
    out = np.zeros((len(x), max(cells.shape[1], table.itemsize)), dtype=np.uint8)
    out[finite, :cells.shape[1]] = cells
    out[~finite, :table.itemsize] = special
    return out


def joined(*parts) -> str:
    """The rows of the text matrices ``parts`` (a bytes constant repeats on
    every row) side by side, as one string without its final ``", "``."""
    if len(parts) > 1:
        n = next(len(p) for p in parts if isinstance(p, np.ndarray))
        parts = [np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p)))
                 if isinstance(p, bytes) else p for p in parts]
    rows = np.hstack(parts) if len(parts) > 1 else parts[0]
    return rows.tobytes().translate(None, b"\0")[:-2].decode("ascii")
