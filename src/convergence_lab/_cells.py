"""Cell engine: the CSV rows of numpy columns, byte for byte as ``repr``
and ``str`` write their cells.

Every table the CLI writes, and the weights of
:meth:`~convergence_lab.measures.LatticeMeasure.to_text`, go through
:func:`csv_rows`.  A float64 cell gets its shortest round-trip digits by
the Schubfach method (R. Giulietti, "The Schubfach way to render doubles",
2020) in ``uint64`` numpy arithmetic, laid out as CPython's ``repr`` lays
them out: positionally when the decimal point falls at -4 < decpt <= 16,
with ``.0`` after an integer, and as ``d.ddde±XX`` otherwise.  An integer
cell gets its decimal digits from a table of 4-digit groups.  Two kinds of
cell take a per-cell route instead: nan and the infinities (``repr``), and
every cell of a column that is neither float64 nor integer (``str``).

Each cell becomes a fixed-width record of ASCII bytes and a mask of the
bytes it keeps.  Records place the pieces of a cell's text at fixed
offsets, so its layout is chosen by the mask alone, a row of a table of
every layout; a chunk's records side by side, masked, are its rows.  Rows
are formatted a chunk at a time, so the memory the engine holds does not
grow with the table.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

#: Float cells formatted per call (or integer cells, in a table of no
#: floats).  The float digits take the largest temporaries, about a dozen
#: arrays of 8 bytes a cell; much beyond this size they come as fresh pages
#: from the system, whose faults cost more than the numpy calls saved.
_CHUNK_CELLS = 3072

_M32 = 0xFFFF_FFFF
_M63 = 0x7FFF_FFFF_FFFF_FFFF
_FRACTION = (1 << 52) - 1
_INF_BITS = 0x7FF0_0000_0000_0000
_ONE_BITS = 0x3FF0_0000_0000_0000

#: Least decimal point position of a double, that of 5e-324; the greatest
#: is 309, that of 1.7976931348623157e+308.
_DECPT_MIN, _DECPT_MAX = -323, 309

# Float record: sign, the 20-digit field as integer part, point, the field
# again as fraction, then the exponent (or the text of nan or an infinity),
# then the separator.  The field holds 17 significant digits from column 3.
_SIGN, _INT, _POINT, _FRAC, _TAIL, _FLOAT_WIDTH = 0, 1, 21, 22, 42, 48
_FIELD_LEAD = 3
#: Layouts of a finite float: positional for decpt in [-3, 16] by 17 digit
#: counts, then exponential for two exponent widths by 17 digit counts;
#: each unsigned and signed.  Two more rows keep a 3- or 4-byte fallback text.
_POSITIONAL = 20 * 17
_LAYOUTS = _POSITIONAL + 2 * 17
_FALLBACK = 2 * _LAYOUTS


class _Tables(NamedTuple):
    digits4: np.ndarray  # uint32: the 4 ASCII digits of 0..9999
    trailing_zeros: np.ndarray  # uint8: trailing zeros of the 4 digits of 0..9999
    pow10: np.ndarray  # uint64: 10**0 .. 10**19
    # Schubfach parameters by biased exponent, plus 2048 where the lower
    # neighbour is closer (a power of two above the subnormals):
    k: np.ndarray  # int16: decimal exponent of the scaled value
    h: np.ndarray  # uint8: left shift of the scaled significand
    k_min: int
    # g(k) = g1 2^63 + g0, a 126-bit power of ten, by k - k_min: g1 and the
    # 32-bit limbs of g1 and g0.
    g: np.ndarray  # (5, k_max - k_min + 1) uint64
    # By decimal point position, _DECPT_MIN to _DECPT_MAX:
    exponents: np.ndarray  # (633, 5) uint8: "e-324" .. "e+308"
    layouts: np.ndarray  # layout of 17 significant digits, unsigned
    float_masks: np.ndarray  # (2 * _LAYOUTS + 2, _FLOAT_WIDTH) bool
    int_masks: np.ndarray  # (42, 22) bool, by sign and digit count


def _powers_of_ten(k_min: int, k_max: int) -> list[int]:
    """g(k) = floor(10^-k 2^-r) + 1 for k_min <= k <= k_max, with the r
    that puts 10^-k 2^-r in [2^125, 2^126)."""
    out = []
    p = 10**-k_min
    for k in range(k_min, min(k_max, 0) + 1):
        r = p.bit_length() - 126
        out.append((p >> r if r >= 0 else p << -r) + 1)
        p //= 10
    p = 10
    for k in range(1, k_max + 1):
        out.append((1 << (125 + p.bit_length())) // p + 1)
        p *= 10
    return out


@functools.cache
def _tables() -> _Tables:
    """Built at first use, so that importing the package costs nothing."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
    z0, z1, z2, z3 = (quads == ord("0")).T
    trailing_zeros = (z3 * (1 + z2 * (1 + z1 * (1 + z0)))).astype(np.uint8)

    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for the irregular
    # spacing, and h = q + floor(log2(10^-k)) + 2, by the exact integer forms
    # of Schubfach's reference implementation.
    index = np.arange(4096, dtype=np.int64)
    q = np.maximum(index & 2047, 1) - 1075
    k = (q * 661_971_961_083 - np.where(index >= 2048, 274_743_187_321, 0)) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    k_min = int(k.min())
    powers = _powers_of_ten(k_min, int(k.max()))
    g1 = np.array([x >> 63 for x in powers], dtype=np.uint64)
    g0 = np.array([x & _M63 for x in powers], dtype=np.uint64)

    decpt = np.arange(_DECPT_MIN, _DECPT_MAX + 1)
    exponent = np.abs(decpt - 1)
    exponents = np.empty((len(decpt), 5), np.uint8)
    exponents[:, 0] = ord("e")
    exponents[:, 1] = np.where(decpt > 0, ord("+"), ord("-"))
    exponents[:, 2:] = quads[exponent, 1:]
    short = exponent < 100
    exponents[short, 2:4] = quads[exponent[short], 2:]
    wide = exponent >= 100
    layouts = 16 + np.where((decpt > -4) & (decpt < 17), (decpt + 3) * 17, _POSITIONAL + 17 * wide)

    # Each layout as (integer part, fraction) column bands of the field,
    # whether the point is written, and the exponent's width.
    digits = np.tile(np.arange(1, 18), 20)
    decpt = np.repeat(np.arange(-3, 17), 17)
    lead = _FIELD_LEAD
    int_lo = np.where(decpt > 0, lead, 0)
    int_hi = np.where(decpt > 0, lead + decpt, 1)
    frac_hi = lead + np.where(decpt > 0, np.maximum(digits, decpt + 1), digits)
    exp_digits = np.tile(np.arange(1, 18), 2)
    bands = [
        np.concatenate(parts)
        for parts in (
            (int_lo, np.full(34, lead)),
            (int_hi, np.full(34, lead + 1)),
            (np.ones(_POSITIONAL, bool), exp_digits > 1),
            (lead + decpt, np.full(34, lead + 1)),
            (frac_hi, lead + exp_digits),
            (np.zeros(_POSITIONAL, int), np.repeat([4, 5], 17)),
        )
    ]
    i_lo, i_hi, point, f_lo, f_hi, tail = bands
    field = np.arange(20)
    unsigned = np.concatenate(
        [
            np.zeros((_LAYOUTS, 1), bool),
            (field >= i_lo[:, None]) & (field < i_hi[:, None]),
            point[:, None],
            (field >= f_lo[:, None]) & (field < f_hi[:, None]),
            np.arange(5) < tail[:, None],
            np.ones((_LAYOUTS, 1), bool),
        ],
        axis=1,
    )
    signed = unsigned.copy()
    signed[:, _SIGN] = True
    fallback = np.zeros((2, _FLOAT_WIDTH), bool)
    fallback[:, _TAIL : _TAIL + 3] = True
    fallback[1, _TAIL + 3] = True
    fallback[:, -1] = True
    float_masks = np.concatenate([unsigned, signed, fallback])

    width = np.arange(21)
    int_masks = np.zeros((42, 22), bool)
    int_masks[:, 1:21] = np.arange(20) >= 20 - np.tile(width, 2)[:, None]
    int_masks[21:, 0] = True
    int_masks[:, -1] = True

    return _Tables(
        digits4=quads.view(np.uint32).ravel(),
        trailing_zeros=trailing_zeros,
        pow10=10 ** np.arange(20, dtype=np.uint64),
        k=k.astype(np.int16),
        h=h.astype(np.uint8),
        k_min=k_min,
        g=np.stack([g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32]),
        exponents=exponents,
        layouts=layouts,
        float_masks=float_masks,
        int_masks=int_masks,
    )


def csv_rows(blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    """The CSV rows of ``blocks`` of equal-length columns, one ``bytes`` per
    chunk of rows that hold at most :data:`_CHUNK_CELLS` float cells.

    A block longer than a chunk is cut into chunks; consecutive shorter
    blocks whose columns share their dtypes are joined into one, so a
    stream of small blocks costs few calls and holds at most a chunk.
    """
    pending: list[list[np.ndarray]] = []
    held = 0
    dtypes: tuple = ()
    for block in blocks:
        rows = len(block[0]) if len(block) else 0
        if not rows:
            continue
        if pending and tuple(c.dtype for c in block) != dtypes:
            yield _format(pending)
            pending, held = [], 0
        dtypes = tuple(c.dtype for c in block)
        size = max(1, _CHUNK_CELLS // max(1, sum(c.dtype == np.float64 for c in block)))
        start = 0
        while start < rows:
            take = min(rows - start, size - held)
            pending.append([c[start : start + take] for c in block])
            held += take
            start += take
            if held == size:
                yield _format(pending)
                pending, held = [], 0
    if pending:
        yield _format(pending)


def _format(pieces: list[list[np.ndarray]]) -> bytes:
    """The rows of consecutive row ranges ``pieces`` of the same columns."""
    columns = [np.concatenate(parts) if len(parts) > 1 else parts[0] for parts in zip(*pieces)]
    rows = len(columns[0])
    floats = [c for c in columns if c.dtype == np.float64]
    if floats:
        # Every float of the chunk in one call, row by row.
        values = np.stack(floats, axis=1).ravel() if len(floats) > 1 else floats[0]
        float_chars, float_masks = (a.reshape(rows, len(floats), -1) for a in _float_records(values))
    records = []
    j = 0
    for col in columns:
        if col.dtype == np.float64:
            records.append((float_chars[:, j], float_masks[:, j]))
            j += 1
        elif col.dtype.kind in "iu":
            records.append(_int_records(col))
        else:
            records.append(_text_records([str(x).encode() for x in col.tolist()]))
        records[-1][0][:, -1] = ord(",")
    records[-1][0][:, -1] = ord("\n")
    if len(floats) == len(columns):
        chars, masks = float_chars.reshape(rows, -1), float_masks.reshape(rows, -1)
    else:
        chars, masks = (np.concatenate(parts, axis=1) for parts in zip(*records))
    return chars[masks].tobytes()


def _groups(u: np.ndarray) -> list[np.ndarray]:
    """The five 4-digit groups, most significant first, of the 20-digit
    decimal of each uint64, as int64."""
    top = u // 10**16
    rest = (u - top * 10**16).view(np.int64)
    high = rest // 10**8
    groups = [top.view(np.int64)]
    for part in (high, rest - high * 10**8):
        quot = part // 10**4
        groups += [quot, part - quot * 10**4]
    return groups


def _field(groups: list[np.ndarray]) -> np.ndarray:
    """(n, 20) ASCII of the 20-digit decimals given by their groups."""
    digits4 = _tables().digits4
    return np.stack([digits4[g] for g in groups], axis=1).view(np.uint8)


def _int_records(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Records of an integer column: sign, 20 right-aligned digits, separator."""
    t = _tables()
    u = col.astype(np.uint64)
    neg = col < 0
    if neg.any():
        u = np.where(neg, -u, u)
    count = np.searchsorted(t.pow10, u, side="right")
    count = np.maximum(count, 1) + 21 * neg
    chars = np.empty((len(col), 22), np.uint8)
    chars[:, 0] = ord("-")
    chars[:, 1:21] = _field(_groups(u))
    return chars, t.int_masks[count]


def _text_records(texts: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Records of cells written by their own text."""
    width = max(map(len, texts)) + 1
    chars = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    masks = np.arange(width) < np.array([len(x) for x in texts])[:, None]
    masks[:, -1] = True
    return chars, masks


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of a b, from 32-bit limbs of a < 2^63 and b < 2^60: the
    cross sums then stay below 2^64 without a carry out."""
    cross = ((a_lo * b_lo) >> 32) + a_hi * b_lo + a_lo * b_hi
    return a_hi * b_hi + (cross >> 32)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's round-to-odd of g cp / 2^127, g = g1 2^63 + g0 given as
    g1 and the limbs of g1 and g0."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(t: _Tables, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits d and exponent k, v = d 10^k, of positive
    finite doubles given by their bits; of two shortest the closer, and of
    two as close the even one."""
    e = bits.view(np.int64) >> 52
    f = bits & _FRACTION
    c = np.where(e != 0, f | (1 << 52), f)
    irregular = (f == 0) & (e > 1)
    idx = e + 2048 * irregular
    k = t.k[idx]
    g = t.g[:, k - t.k_min]
    # The scaled lower bound, value and upper bound, 4 times the value over
    # 10^k and rounded to odd, in one array; c odd leaves the bounds out.
    cb = c << 2
    vbl, vb, vbr = _rop(g, np.stack([cb - 2 + irregular, cb, cb + 2]) << t.h[idx])
    odd = c & 1
    lower = vbl + odd
    upper = vbr - odd
    # One digit fewer: of the multiples of ten next to s = vb / 4, at most
    # one lies in the rounding interval.
    s = vb >> 2
    tens = s // 10
    up = tens * 40
    up_in = lower <= up
    wp_in = up + 40 <= upper
    # Else s or s + 1: the one in the interval, or the closer, or the even.
    u_in = lower <= vb - (vb & 3)
    w_in = vb - (vb & 3) + 4 <= upper
    round_up = (vb & 3) + (s & 1) >= 3
    d = np.where(up_in | wp_in, (tens + wp_in) * 10, s + (w_in & (round_up | ~u_in)))
    return d, k


def _float_records(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Records of float64 cells: see the module docstring."""
    t = _tables()
    bits = x.view(np.uint64) & _M63
    zero = bits == 0
    finite = bits < _INF_BITS
    special = zero | ~finite
    if special.any():
        bits = np.where(special, _ONE_BITS, bits)
    d, k = _shortest(t, bits)
    count = np.searchsorted(t.pow10, d, side="right")
    d17 = d * t.pow10[17 - count]
    if zero.any():
        d17[zero] = 0
    groups = _groups(d17)
    # Trailing zeros of the 17 digits, by groups from the last; zero has 16.
    tz4 = t.trailing_zeros
    g1, g2, g3, g4 = groups[1:]
    tz = tz4[g4] + (g4 == 0) * (tz4[g3] + (g3 == 0) * (tz4[g2] + (g2 == 0) * tz4[g1]))
    at = count + k - _DECPT_MIN
    layout = t.layouts[at] - tz + _LAYOUTS * np.signbit(x)

    field = _field(groups)
    chars = np.empty((len(x), _FLOAT_WIDTH), np.uint8)
    chars[:, _SIGN] = ord("-")
    chars[:, _INT : _INT + 20] = field
    chars[:, _POINT] = ord(".")
    chars[:, _FRAC : _FRAC + 20] = field
    chars[:, _TAIL : _TAIL + 5] = t.exponents[at]
    if not finite.all():
        (rows,) = np.nonzero(~finite)
        texts = [repr(v).encode() for v in x[rows].tolist()]
        chars[rows, _TAIL : _TAIL + 5] = np.array(texts, dtype="S5").view(np.uint8).reshape(-1, 5)
        layout[rows] = _FALLBACK + np.array([len(s) - 3 for s in texts])
    return chars, t.float_masks[layout]
