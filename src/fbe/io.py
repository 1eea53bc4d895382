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


# -- attractor caches ------------------------------------------------------------


def format_rows(row: str, columns):
    """Yield `row % values` for the rows of the equal-length columns, 4096
    rows per chunk: each chunk is stacked alone and formatted in one call."""
    for s in range(0, len(columns[0]), 4096):
        chunk = np.column_stack([c[s : s + 4096] for c in columns])
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())


def _grid_text(columns):
    """Per float64 column, its sorted distinct bit patterns and the `%.17g`
    text of each, followed by the row's separator; None from the first
    column with more than half as many distinct values as rows. Bits, not
    values, tell values apart, so -0.0 and 0.0 keep their own text."""
    distinct = []
    for c in columns:
        bits = np.sort(c.view(np.int64))
        new = bits[1:] != bits[:-1]
        if 2 * (np.count_nonzero(new) + 1) > len(bits):
            return None
        distinct.append(np.concatenate((bits[:1], bits[1:][new])))
    tables = []
    for keys, sep in zip(distinct, [" "] * (len(distinct) - 1) + ["\n"]):
        text = [f"{v:.17g}{sep}" for v in keys.view(np.float64).tolist()]
        tables.append((keys, np.array(text, dtype=object)))
    return tables


def _cloud_rows(points):
    """Yield the rows of a cloud file, 17 significant digits per value, 4096
    rows per chunk. A grid cloud, snapped to cell centres, has few distinct
    values per column: each is formatted once, and a chunk's rows are
    gathered from that text. Other clouds go through format_rows."""
    columns = points.T
    tables = _grid_text(columns)
    if tables is None:
        yield from format_rows(" ".join(["%.17g"] * len(columns)) + "\n", columns)
        return
    for s in range(0, len(points), 4096):
        chunk = np.column_stack(
            [
                text[np.searchsorted(keys, c[s : s + 4096].view(np.int64))]
                for (keys, text), c in zip(tables, columns)
            ]
        )
        yield "".join(chunk.ravel().tolist())


def cache_attractor(ifs: IfsSystem, cloud: AttractorCloud, path) -> None:
    """Write the header line, then the rows: 17 significant digits each."""
    pts = cloud.points
    with open(path, "w") as fh:
        fh.write(
            f"FBE-CLOUD v1 {ifs.ifs_hash()} {cloud.epsilon:.17g} {pts.shape[0]}\n"
        )
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
