"""Spec files, attractor caches, and raster emission.

All formats are parser-trivial on purpose: JSON specs, a one-line-header
text format for clouds (17 significant digits, so round trips are exact
for float64), binary PGM (P5) for rasters.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import NonInvertibleMapError, SpecFormatError, StaleCacheError
from .ifs import AttractorCloud, IfsSystem
from .maps import AffineMap, MoebiusMap

CACHE_ENV = "FBE_CACHE_DIR"


def _numbers(v, what: str) -> np.ndarray:
    """JSON numbers as a float array; anything else is a SpecFormatError."""
    try:
        arr = np.asarray(v)
        ok = arr.dtype.kind in "iuf" and np.isfinite(arr).all()
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise SpecFormatError(f"{what} must be finite numbers")
    return arr.astype(float)


def _complex_from_pair(v, what: str) -> complex:
    pair = _numbers(v, what)
    if pair.shape != (2,):
        raise SpecFormatError(f"{what} must be a [re, im] pair")
    return complex(pair[0], pair[1])


def _parse_map(idx: int, m):
    if not isinstance(m, dict):
        raise SpecFormatError(f"map {idx} must be a JSON object")
    kind = m.get("type")
    if kind == "affine":
        amap = AffineMap(
            _numbers(m.get("matrix"), f"map {idx} matrix"),
            _numbers(m.get("offset"), f"map {idx} offset"),
        )
        if abs(np.linalg.det(amap.matrix)) < 1e-300:
            raise NonInvertibleMapError(idx, f"map {idx}: affine matrix is singular")
        return amap
    if kind == "moebius":
        coefs = [_complex_from_pair(m.get(k), f"map {idx} {k}") for k in "abcd"]
        try:
            return MoebiusMap(*coefs)
        except NonInvertibleMapError:
            raise NonInvertibleMapError(
                idx, f"map {idx}: moebius map has ad - bc = 0"
            ) from None
    raise SpecFormatError(f"map {idx}: unknown type {kind!r}")


def parse_spec(data: dict) -> IfsSystem:
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    raw_maps = data.get("maps")
    if not isinstance(raw_maps, list) or not raw_maps:
        raise SpecFormatError("maps must be a nonempty list")
    # AffineMap's shape check and IfsSystem's space, type and dimension
    # checks raise ValueError
    try:
        maps = [_parse_map(idx, m) for idx, m in enumerate(raw_maps, start=1)]
        return IfsSystem(data.get("space"), tuple(maps))
    except ValueError as e:
        raise SpecFormatError(str(e)) from None


def load_spec(path) -> IfsSystem:
    """Load and validate an IFS spec file (JSON)."""
    try:
        data = json.loads(Path(path).read_bytes())
    except UnicodeDecodeError:
        raise SpecFormatError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise SpecFormatError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    return parse_spec(data)


def save_spec(ifs: IfsSystem, path) -> None:
    Path(path).write_text(json.dumps(ifs.spec_dict(), indent=2) + "\n")


# -- number text ------------------------------------------------------------------
#
# Clouds and raster CSVs are written as rows of fixed-width byte slots.
# A value's text sits in its slot with NUL bytes anywhere around it; a
# chunk's rows are laid out as slots and separators, and one
# `bytes.translate` deletes the NULs. Digits are gathered four at a time,
# as uint32 words, from a table of the 10**4 four-digit groups g, in four
# forms: index g + 10**4 * form.

# Words are little-endian whatever the host, so that a word's bytes land in
# the slot in the order they are written
_WORD, _WORD8 = np.dtype("<u4"), np.dtype("<u8")
_CHUNK = 4096  # values or rows per batch: every digit and slot buffer is this short
_SLOT = 24  # bytes of a float's slot; "-2.2250738585072014e-308" fills it
_NO_TRAIL, _NO_LEAD, _NO_LEAD_0 = 1, 2, 3  # form 0 has all four digits


def _digit_table() -> np.ndarray:
    """The four-digit groups in each form, built a byte column at a time
    from 10**4-long arrays: 40,000 bytes objects, or wide temporaries, would
    leave up to 1 MiB of freed memory resident."""
    g = np.arange(10**4, dtype=np.uint16)
    table = np.zeros((4, 10**4, 4), np.uint8)
    for j in range(4):  # byte j: the digit of 10**(3 - j)
        digit = (g // 10 ** (3 - j) % 10).astype(np.uint8) + ord("0")
        table[0, :, j] = digit
        table[_NO_TRAIL, :, j] = np.where(g % 10 ** (4 - j) != 0, digit, 0)
        lead = g >= 10 ** (3 - j)
        table[_NO_LEAD, :, j] = np.where(lead, digit, 0)
        table[_NO_LEAD_0, :, j] = np.where(lead | (j == 3), digit, 0)
    return table.view(_WORD).ravel()


_DIGITS = _digit_table()

# 10**p for the scales p = 16 - X, X in [-4, 16]: 5**20 < 2**53, so exact,
# and each split into halves of 26 bits for Dekker's product
_POW10 = np.array([float(10**p) for p in range(21)])


def _split(a):
    """Veltkamp's split: a = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# Slot bytes 0-7 by (sign, k, leading digit D0), k = 0 for |v| >= 1, else
# k = -X: the sign, a gap, "0." and k - 1 zeros for |v| < 1, then D0 at byte
# 7. D1..D16 follow in bytes 8-23.
_HEAD = np.frombuffer(
    b"".join(
        sign
        + (b"\x000." if k else b"\0\0\0")
        + (b"0" * (k - 1)).rjust(3, b"\0")
        + b"%d" % d
        for sign in (b"\0", b"-")
        for k in range(5)
        for d in range(10)
    ),
    _WORD8,
)


# For |v| >= 1 with exponent e, byte t of the slot takes byte
# _MOVE[e, f, t] of the slot extended by a NUL and a ".", f = 1 when a
# fraction digit is left: the integer digits D0..De move one byte down, to
# bytes 6..6+e, and byte 7+e takes the point or a NUL. _INT_ZEROS[e] turns
# the cut digits among D1..De back into zeros.
def _point_tables():
    move = np.tile(np.arange(_SLOT, dtype=np.uint8), (17, 2, 1))
    zeros = np.zeros((17, _SLOT), np.uint8)
    for e in range(17):
        move[e, :, 6 : 7 + e] += 1
        move[e, :, 7 + e] = _SLOT, _SLOT + 1
        zeros[e, 8 : 8 + e] = ord("0")
    return move, zeros


_MOVE, _INT_ZEROS = _point_tables()


def _scaled(a, a_hi, a_lo, p):
    """round-half-even(a * 10**p) as int64, exact once a * 10**p >= 2**53:
    Dekker's product gives a * 10**p = hi + lo exactly, and hi is then an
    even integer, so rounding lo rounds the sum."""
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    hi = a * _POW10[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def float_slots(values) -> np.ndarray:
    """The `'%.17g' % v` text of each float64, NUL-padded into a 24-byte
    slot: an (n, 24) uint8 array, byte-exact for every float.

    For |v| in [1e-4, 1e17) the 17 digits are computed exactly in numpy:
    q = round-half-even(|v| * 10**(16 - X)), X = floor(log10 |v|) corrected
    until 10**16 <= q < 10**17. Zeros and values outside that range (the
    ones `%.17g` writes with an exponent) take one batched `%` call per 4096
    values."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((len(values), _SLOT), np.uint8)
    for s in range(0, len(values), _CHUNK):
        v, o = values[s : s + _CHUNK], out[s : s + _CHUNK]
        a = np.abs(v)
        fixed = (a >= 1e-4) & (a < 1e17)
        count = np.count_nonzero(fixed)
        if count == 0:
            o[:] = _percent_slots(v)
        elif count == len(v):
            _fixed_slots(v, a, o)
        else:
            rest = np.flatnonzero(~fixed)
            o[rest] = _percent_slots(v[rest])
            fixed = np.flatnonzero(fixed)
            slots = np.empty((count, _SLOT), np.uint8)
            _fixed_slots(v[fixed], a[fixed], slots)
            o[fixed] = slots
    return out


_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _percent_slots(v) -> np.ndarray:
    """The slots of v from one `%` call, each distinct bit pattern formatted
    once: zeros and other values outside the numpy range may repeat."""
    keys, index = np.unique(v.view(np.int64), return_inverse=True)
    text = (f"%-{_SLOT}.17g" * len(keys)) % tuple(keys.view(np.float64).tolist())
    slots = np.frombuffer(text.encode().translate(_SPACE_TO_NUL), np.uint8)
    return slots.reshape(-1, _SLOT)[index]


def _fixed_slots(v, a, out) -> None:
    """Fill `out` with the slots of v, 1e-4 <= |v| = a < 1e17."""
    x = np.floor(np.log10(a))
    p = (16 - np.clip(x, -4, 16, out=x)).astype(np.intp)
    a_hi, a_lo = _split(a)
    q = _scaled(a, a_hi, a_lo, p)
    while (fix := (q >= 10**17).view(np.int8) - (q < 10**16).view(np.int8)).any():
        p -= fix
        q = _scaled(a, a_hi, a_lo, p)
    # q's 17 digits: D0, then the four-digit groups g1..g4
    top = q // 10**8
    bottom = q - top * 10**8
    g = top // 10**4
    g2 = top - g * 10**4
    d0 = g // 10**4
    g1 = g - d0 * 10**4
    g3 = bottom // 10**4
    g4 = bottom - g3 * 10**4
    k = np.maximum(p - 16, 0)
    k += 5 * np.signbit(v)
    k *= 10
    k += d0
    out.view(_WORD8)[:, 0] = _HEAD[k]
    # trailing zeros: a group loses them when every later group is zero
    words = out.view(_WORD)
    cut = np.ones(len(q), bool)
    for col, group in zip((5, 4, 3, 2), (g4, g3, g2, g1)):
        group += cut * (_NO_TRAIL * 10**4)
        words[:, col] = _DIGITS[group]
        cut &= group == _NO_TRAIL * 10**4
    big = np.flatnonzero(p <= 16)
    if len(big):
        _place_point(out, big, 16 - p[big])


def _place_point(out, rows, e) -> None:
    """Move the integer digits and set the point of the slots `rows`, |v| >= 1
    with exponents e. Only trailing zeros are cut, so a fraction is left
    when the digit after De is."""
    slots = np.empty((len(rows), _SLOT + 2), np.uint8)
    slots[:, :_SLOT] = out[rows] | _INT_ZEROS[e]
    slots[:, _SLOT :] = 0, ord(".")
    fraction = slots[np.arange(len(rows)), 8 + e] != 0
    out[rows] = np.take_along_axis(slots, _MOVE[e, fraction.view(np.uint8)], axis=1)


def int_rows(columns):
    """Yield the text of the rows of equal-length non-negative integer
    columns, `'%d'` of each value, comma-separated, 4096 rows per chunk."""
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    # words per value: four digits each, from the column's largest value
    widths = [(len(str(int(c.max()))) + 3) // 4 if len(c) else 1 for c in columns]
    comma, newline = np.frombuffer(b",\0\0\0\n\0\0\0", _WORD)
    n = len(columns[0])
    for s in range(0, n, _CHUNK):
        words = np.empty((min(_CHUNK, n - s), sum(widths) + len(columns)), _WORD)
        col = 0
        for c, width in zip(columns, widths):
            v = c[s : s + _CHUNK]
            # a group before the first nonzero one is blank; the last shows 0
            lead = np.ones(len(v), bool)
            for i in range(width - 1, -1, -1):
                g = v // 10 ** (4 * i) if i else v
                if i < width - 1:
                    g = g % 10**4
                form = lead * (_NO_LEAD_0 if i == 0 else _NO_LEAD)
                words[:, col] = _DIGITS[g + form * 10**4]
                lead &= g == 0
                col += 1
            words[:, col] = comma
            col += 1
        words[:, -1] = newline
        yield words.tobytes().translate(None, b"\0")


# -- attractor caches ------------------------------------------------------------


def _grid_text(columns):
    """Per float64 column, its sorted distinct bit patterns and the text of
    each (float_slots), followed by the row's separator; None from the
    first column with more than half as many distinct values as rows. Bits,
    not values, tell values apart, so -0.0 and 0.0 keep their own text."""
    distinct = []
    for c in columns:
        bits = np.sort(c.view(np.int64))
        new = bits[1:] != bits[:-1]
        if 2 * (np.count_nonzero(new) + 1) > len(bits):
            return None
        distinct.append(np.concatenate((bits[:1], bits[1:][new])))
    # every distinct value in one call, each text followed by its separator
    # and a \x01 to split on
    counts = [len(keys) for keys in distinct]
    slots = np.empty((sum(counts), _SLOT + 2), np.uint8)
    slots[:, :_SLOT] = float_slots(np.concatenate(distinct).view(np.float64))
    slots[:, _SLOT] = np.repeat(_separators(len(columns)), counts)
    slots[:, -1] = 1
    text = slots.tobytes().translate(None, b"\0").decode().split("\x01")
    ends = np.cumsum(counts).tolist()
    return [
        (keys, np.array(text[end - len(keys) : end], dtype=object))
        for keys, end in zip(distinct, ends)
    ]


def _separators(d: int) -> np.ndarray:
    return np.frombuffer(b" " * (d - 1) + b"\n", np.uint8)


_ROW = np.dtype([("text", f"V{_SLOT}"), ("sep", "u1")])


def _cloud_rows(points):
    """Yield the bytes of a cloud's rows, the `%.17g` text of each value,
    4096 rows per chunk. A grid cloud, snapped to cell centres, has few
    distinct values per column (_grid_text): each is formatted once, and a
    chunk's rows are joined from that text. Other clouds are formatted a
    chunk at a time into rows of float_slots."""
    n, d = points.shape
    columns = points.T
    tables = _grid_text(columns)
    for s in range(0, n, _CHUNK):
        if tables is None:
            values = points[s : s + _CHUNK]
            chunk = np.empty(values.shape, _ROW)
            slots = float_slots(values.ravel()).view(_ROW["text"])
            chunk["text"] = slots.reshape(values.shape)
            chunk["sep"] = _separators(d)
            yield chunk.tobytes().translate(None, b"\0")
        else:
            chunk = np.column_stack(
                [
                    text[np.searchsorted(keys, c[s : s + _CHUNK].view(np.int64))]
                    for (keys, text), c in zip(tables, columns)
                ]
            )
            yield "".join(chunk.ravel().tolist()).encode()


def cache_attractor(ifs: IfsSystem, cloud: AttractorCloud, path) -> None:
    """Write the header line, then the rows: 17 significant digits each."""
    pts = cloud.points
    header = f"FBE-CLOUD v1 {ifs.ifs_hash()} {cloud.epsilon:.17g} {pts.shape[0]}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.writelines(_cloud_rows(pts))


def load_cached(path, ifs: IfsSystem) -> AttractorCloud:
    """Read a cloud cache of `ifs`: a stored hash of another system raises
    StaleCacheError; a malformed header or body, a non-finite row, or an
    epsilon that is not a finite number >= 0 raises SpecFormatError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != "FBE-CLOUD" or header[1] != "v1":
            raise SpecFormatError(f"{path}: not an FBE-CLOUD v1 file")
        stored_hash = header[2]
        if stored_hash != ifs.ifs_hash():
            raise StaleCacheError(
                f"{path}: cache hash {stored_hash} does not match the spec "
                f"hash {ifs.ifs_hash()}"
            )
        # np.loadtxt warns, rather than raises, on a body with no rows; a
        # warnings filter is process-wide, so the rows are looked for here
        start = fh.tell()
        while (line := fh.readline()) and not line.partition("#")[0].strip():
            pass
        if not line:
            raise SpecFormatError(f"{path}: no point rows")
        fh.seek(start)
        try:
            eps, count = float(header[3]), int(header[4])
            pts = np.loadtxt(fh, ndmin=2)
        except ValueError as e:
            raise SpecFormatError(f"{path}: malformed cloud: {e}") from None
    if pts.shape[0] != count:
        raise SpecFormatError(f"{path}: expected {count} points, found {pts.shape[0]}")
    if pts.shape[1] != ifs.dim:
        raise SpecFormatError(
            f"{path}: {pts.shape[1]} coordinates per row, not {ifs.dim}"
        )
    if not np.isfinite(pts).all():
        raise SpecFormatError(f"{path}: a point row is not finite")
    if not 0.0 <= eps < np.inf:
        raise SpecFormatError(f"{path}: epsilon {eps!r} is not a finite number >= 0")
    return AttractorCloud(pts, eps, {"ifs_hash": stored_hash, "method": "cache"})


def cache_dir() -> Path | None:
    d = os.environ.get(CACHE_ENV)
    return Path(d) if d else None


def cached_attractor_path(ifs: IfsSystem, cell: float) -> Path | None:
    """The cache file of the system's cloud at this exact cell: repr
    round-trips the float, so two cells share a file only when equal."""
    d = cache_dir()
    if d is None:
        return None
    return d / f"{ifs.ifs_hash()}-{float(cell)!r}.cloud"


# -- raster files -----------------------------------------------------------------


def write_pgm(raster, path) -> None:
    Path(path).write_bytes(raster.to_pgm())


def write_csv(raster, path) -> None:
    Path(path).write_text(raster.to_csv())
