"""Independent exact-arithmetic oracles used by the tests.

Everything here is written against the defining digit structure of the
example systems (ternary digits for the middle-thirds set, dyadic
intervals for the binary interval system) and never calls the library's
own geometry kernels, so tolerance artifacts in the implementation
cannot silently pass. Two exceptions use the library on purpose:
`chordal_distance` measures through its sphere embedding, which tests
check against the closed-form chordal metric, `full_iteration` steps
with its maps and `grid_dedup`, since it checks how `attractor`
iterates, not the maps or the snapping, and `sequential_orbit` steps a
sphere orbit with `apply_complex`, since it checks how `chaos_game`
batches the orbit, not the maps. `affine_row`, with which it steps an
affine orbit, is the affine formula in Python floats, the reference for
`fbe.maps.affine_image`. `format_rows` is Python's `%` formatting, the
reference for the library's numpy number text. `nesting_gaps` pulls the
cloud back with `finite_continuation`, since it checks which rows verify's
continuation-nesting queries, not the maps.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

import fbe.ifs
from fbe.basin import finite_continuation
from fbe.errors import NoConvergenceError, ResolutionError
from fbe.maps import to_sphere

Q = Fraction


def cantor_intersects(lo: Q, hi: Q, depth: int = 80) -> bool:
    """Exact decision: does the middle-thirds set meet [lo, hi]?"""
    if hi < 0 or lo > 1:
        return False
    if lo <= 0 <= hi or lo <= 1 <= hi:
        return True
    if depth == 0:
        return True  # interval is within 3^-80 of the set: treat as touching
    # recurse into the two affine copies
    return cantor_intersects(3 * lo, 3 * hi, depth - 1) or cantor_intersects(
        3 * lo - 2, 3 * hi - 2, depth - 1
    )


def cantor_distance(x: Q, depth: int = 80) -> Q:
    """Exact distance from a rational point to the middle-thirds set
    (up to 3^-depth, at which point 0 is returned)."""
    if x < 0:
        return -x
    if x > 1:
        return x - 1
    if depth == 0:
        return Q(0)
    third = Q(1, 3)
    if x <= third:
        return cantor_distance(3 * x, depth - 1) / 3
    if x >= 2 * third:
        return cantor_distance(3 * x - 2, depth - 1) / 3
    return min(x - third, 2 * third - x)


def cantor_pieces(depth: int) -> list[tuple[Q, Q, int]]:
    """(scale, offset, word length) for every inverse image f_w^{-1}(C),
    |w| <= depth, of the middle-thirds system {x/3, x/3+2/3}.

    f_1^{-1}(x) = 3x, f_2^{-1}(x) = 3x - 2; extending a word applies the
    new inverse to the current piece: piece s*C + t maps to 3s*C + g(t).
    """
    pieces = [(Q(1), Q(0), 0)]
    frontier = [(Q(1), Q(0))]
    for k in range(1, depth + 1):
        new_frontier = []
        for s, t in frontier:
            for g_t in (3 * t, 3 * t - 2):
                new_frontier.append((3 * s, g_t))
        # distinct (s, t) only; duplicates arise from different words
        seen = set()
        for s, t in new_frontier:
            if (s, t) not in seen:
                seen.add((s, t))
                pieces.append((s, t, k))
        frontier = list(seen)
    return pieces


def piece_intersects(s: Q, t: Q, lo: Q, hi: Q) -> bool:
    """Does s*C + t meet [lo, hi]? (s > 0)"""
    return cantor_intersects((lo - t) / s, (hi - t) / s)


def piece_distance(s: Q, t: Q, x: Q) -> Q:
    """Exact distance from x to s*C + t."""
    return s * cantor_distance((x - t) / s)


def cantor_raster_oracle(
    x0: Q, x1: Q, nx: int, tau: Q, depth: int
) -> list[int]:
    """Minimal witness depth per cell (or -1) for the fast-basin raster of
    the middle-thirds system, decided exactly.

    A cell [e0, e1] is hit at depth k when some inverse image of word
    length <= k meets [e0 - tau, e1 + tau].
    """
    pieces = cantor_pieces(depth)
    width = (x1 - x0) / nx
    out = []
    for i in range(nx):
        e0 = x0 + i * width - tau
        e1 = x0 + (i + 1) * width + tau
        best = -1
        for s, t, k in pieces:
            if (best == -1 or k < best) and piece_intersects(s, t, e0, e1):
                best = k if best == -1 else min(best, k)
        out.append(best)
    return out


def cantor_level_points(level: int) -> list[Q]:
    """Both endpoints of every level-k interval covering the middle-thirds set."""
    pts = set()
    for bits in product((0, 2), repeat=level):
        left = sum(Q(b, 3 ** (i + 1)) for i, b in enumerate(bits))
        pts.add(left)
        pts.add(left + Q(1, 3**level))
    return sorted(pts)


def binary_orbit_has_one_forever(x: Q, depth: int) -> bool:
    """Middle-thirds non-membership witness for the fast basin: every
    forward orbit of x within `depth` steps keeps a ternary digit 1.

    Checks that no composition f_{w_1} o ... o f_{w_k}(x) lands on the
    set, i.e. the exact distance stays positive for every word.
    """
    frontier = [x]
    for _ in range(depth):
        new = []
        for y in frontier:
            for fy in (y / 3, y / 3 + Q(2, 3)):
                if cantor_distance(fy) == 0:
                    return False
                new.append(fy)
        frontier = new
    return True


def sierpinski_vertices(level: int) -> np.ndarray:
    """Integer coordinates (scale 2^level) of the vertices of every triangle
    of that level of the gasket on (0,0), (1,0), (0,1).

    The maps are (x + v)/2, so at scale 2^(k+1) the level-(k+1) vertex set
    is the level-k set shifted by v * 2^k for each corner v; the integers
    keep it exact.
    """
    pts = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)
    corners = pts.copy()
    for k in range(level):
        pts = np.unique(np.concatenate([pts + v * 2**k for v in corners]), axis=0)
    return pts


def chordal_distance(z: complex, w: complex) -> float:
    """Distance of the sphere images of two complex values."""
    return float(np.linalg.norm(to_sphere(np.array([z]))[0] - to_sphere(np.array([w]))[0]))


def certified_cover(ifs, delta: float) -> np.ndarray:
    """Points P of the attractor of an affine system with every point of
    the attractor within delta of P (Hepting, Prusinkiewicz & Saupe 1991).

    Reads only the maps' matrices and offsets: no grid, no iteration, no
    contraction factor of the library. The ball B(c, r) with
    r = max_i |f_i(c) - c| / (1 - sigma_max(A_i)) is sent into itself by
    every map, so it holds the attractor A, and f_w(A) lies in a ball of
    diameter 2 * sigma_max(M_w) * r, M_w the matrix of f_w. A word is split
    while that diameter exceeds delta; each leaf emits f_w(p), p the fixed
    point of f_1, which lies on f_w(A).
    """
    mats = [np.asarray(m.matrix, dtype=float) for m in ifs.maps]
    offs = [np.asarray(m.offset, dtype=float) for m in ifs.maps]
    d = len(offs[0])
    fixed = [np.linalg.solve(np.eye(d) - a, b) for a, b in zip(mats, offs)]
    c = np.mean(fixed, axis=0)
    sig = [np.linalg.svd(a, compute_uv=False)[0] for a in mats]
    assert max(sig) < 1.0, "the cover needs every map to contract"
    r = max(np.linalg.norm(a @ c + b - c) / (1 - s) for a, b, s in zip(mats, offs, sig))
    p = fixed[0]
    # f_w(x) = M x + t for every open word; f_{wi} = f_w o f_i
    m, t = np.eye(d)[None], np.zeros((1, d))
    leaves = []
    while len(m):
        split = 2 * np.linalg.svd(m, compute_uv=False)[:, 0] * r > delta
        leaves.append(m[~split] @ p + t[~split])
        m, t = m[split], t[split]
        m, t = (
            np.concatenate([m @ a for a in mats]),
            np.concatenate([m @ b + t for b in offs]),
        )
    return np.concatenate(leaves)


def orbit_limit(ifs, addr, reps: int) -> np.ndarray:
    """f_u(f_p^reps(b)) for the address u.(p)*, as a point of the space.

    Plain loops over the maps' matrices and offsets, or their Moebius
    coefficients; inverse digits use the inverse matrix. The base point b
    is the origin, or 0.1 + 0.2i on the sphere, away from every repelling
    fixed point met in the tests.
    """
    if ifs.is_sphere:
        coef = {}
        for i, m in enumerate(ifs.maps, start=1):
            coef[i] = (m.a, m.b, m.c, m.d)
            coef[-i] = (m.d, -m.b, -m.c, m.a)

        def step(k, z):
            a, b, c, d = coef[k]
            return (a * z + b) / (c * z + d)

        x = 0.1 + 0.2j
    else:
        aff = {}
        for i, m in enumerate(ifs.maps, start=1):
            mat, off = np.asarray(m.matrix), np.asarray(m.offset)
            inv = np.linalg.inv(mat)
            aff[i], aff[-i] = (mat, off), (inv, -inv @ off)

        def step(k, v):
            mat, off = aff[k]
            return mat @ v + off

        x = np.zeros(len(ifs.maps[0].offset))
    for _ in range(reps):
        for k in reversed(addr.period):
            x = step(k, x)
    for k in reversed(addr.pre):
        x = step(k, x)
    return to_sphere(np.array([x]))[0] if ifs.is_sphere else x


def _snapped_step(ifs, pts: np.ndarray, cell: float) -> np.ndarray:
    """S(X) = grid_dedup(F(X), cell), refused past MAX_IMAGE_POINTS images."""
    rows = ifs.n_maps * pts.shape[0]
    if rows > fbe.ifs.MAX_IMAGE_POINTS:
        raise ResolutionError(
            f"a step would make {rows} points, cap {fbe.ifs.MAX_IMAGE_POINTS}, "
            f"cell {cell:g}"
        )
    return fbe.ifs.grid_dedup(ifs.images(pts), cell)


def full_iteration(ifs, cell: float):
    """The Hutchinson iteration with full steps, the reference for
    `fbe.ifs.attractor`'s delta steps: the same seed, stop rule, cycle
    union, refusals and meta, with each step S(X) made from all of F(X)
    and meta["changed"] counted from the union of successive sets."""
    pts = fbe.ifs.grid_dedup(ifs.fixed_points(), cell)
    seen: dict[bytes, int] = {}
    prev, sizes, changed = None, [], []

    def step(x):
        nxt = _snapped_step(ifs, x, cell)
        sizes.append(len(nxt))
        # |X' - X| + |X - X'| = 2 |X' + X| - |X'| - |X|
        union = fbe.ifs.grid_dedup(np.concatenate([nxt, x]), cell)
        changed.append(2 * len(union) - len(nxt) - len(x))
        return nxt

    while True:
        steps = len(sizes)
        period = steps - seen.setdefault(hashlib.sha256(pts).digest(), steps)
        if period == 1 and np.array_equal(pts, prev):
            break
        if period > 1:
            cycle = [pts]
            for _ in range(period):
                cycle.append(step(cycle[-1]))
            prev, pts = cycle[-2:]
            if np.array_equal(pts, cycle[0]):
                pts = fbe.ifs.grid_dedup(np.concatenate(cycle[:-1]), cell)
                break
        elif steps == fbe.ifs.MAX_STEPS:
            residual = np.inf if prev is None else fbe.ifs.hausdorff_distance(pts, prev)
            raise NoConvergenceError(
                f"no repeated set after {steps} iterations (residual {residual:.3g})",
                residual=residual,
            )
        else:
            prev, pts = pts, step(pts)
    meta = {
        "method": "hutchinson",
        "depth": len(sizes),
        "cell": cell,
        "cycle": period,
        "sizes": sizes,
        "changed": changed,
    }
    return fbe.ifs._resolved_cloud(ifs, pts, cell, meta)


def affine_row(matrix, offset, x) -> list[float]:
    """M x + b for one point in Python floats, each coordinate
    ((x_0 M[k,0] + x_1 M[k,1]) + ...) + b[k], one IEEE rounding per
    operation: no numpy, no BLAS and no fused multiply-add. Each argument
    is a list of floats (the matrix one per row)."""
    out = []
    for row, b in zip(matrix, offset):
        s = x[0] * row[0]
        for xj, m in zip(x[1:], row[1:]):
            s = s + xj * m
        out.append(s + b)
    return out


def sequential_orbit(ifs, digits, x0) -> np.ndarray:
    """The orbit x_k = f_{digits[k]}(x_{k-1}) from x_{-1} = x0, one step at
    a time: the reference for `fbe.ifs._orbit`'s lanes. An affine step is
    `affine_row`; a sphere orbit stays in the plane (x0 is a complex
    value), each step one map's apply_complex on a one-element array."""
    if ifs.is_sphere:
        zs, z = np.empty(len(digits), dtype=complex), np.atleast_1d(x0)
        for k, d in enumerate(digits):
            z = ifs.maps[d - 1].apply_complex(z)
            zs[k] = z[0]
        return zs
    maps = [(m.matrix.tolist(), m.offset.tolist()) for m in ifs.maps]
    orbit, x = np.empty((len(digits), ifs.dim)), np.asarray(x0, dtype=float).tolist()
    for k, d in enumerate(np.asarray(digits).tolist()):
        x = orbit[k] = affine_row(*maps[d - 1], x)
    return orbit


def nesting_gaps(ifs, cloud, rng_seed: int) -> list[float]:
    """verify's continuation-nesting gaps with every row of B_{w|k-1}
    queried on a tree of B_w, one tree per prefix w: the reference for the
    check's per-row bounds. The prefixes, in sorted order, are those of
    lengths 1-3 of the 12 four-digit words `run_verify` draws first from
    its generator."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    thetas = [
        tuple(int(rng.integers(1, ifs.n_maps + 1)) for _ in range(4)) for _ in range(12)
    ]
    gaps = []
    for w in sorted({theta[:k] for theta in thetas for k in range(1, 4)}):
        tree = cKDTree(finite_continuation(ifs, cloud, w, len(w)))
        inner = finite_continuation(ifs, cloud, w, len(w) - 1)
        lip = ifs.word_lipschitz(tuple(-d for d in w))
        gaps.append(tree.query(inner)[0].max() / max(lip, 1.0))
    return gaps


def format_rows(row: str, columns):
    """Yield `row % values` for the rows of the equal-length columns, 4096
    rows per chunk: Python's own `%` on every value, the reference text of
    the cloud and raster-CSV writers."""
    for s in range(0, len(columns[0]), 4096):
        chunk = np.column_stack([c[s : s + 4096] for c in columns])
        yield (row * len(chunk)) % tuple(chunk.ravel().tolist())
