"""IFS systems, attractor clouds, the coding map and its extension.

Composition follows the convention f_{w} = f_{w_1} o f_{w_2} o ... o f_{w_k}
(the last digit acts first); negative digits denote inverse maps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .addresses import Address, sigma, validate
from .errors import DomainError, NoConvergenceError, ResolutionError
from .maps import (
    AffineMap,
    MoebiusMap,
    affine_image,
    from_sphere,
    row_distances,
    to_sphere,
)

SPACE_DIMS = {"R1": 1, "R2": 2, "R4": 4, "sphere": 3}

Word = tuple[int, ...]


def _attracting_point(f) -> np.ndarray:
    """The attracting fixed point of one map, as a point of its space.

    An affine map has one when its spectral radius is < 1. A det-1 Moebius
    map has one when it is loxodromic: its eigenvalues l and 1/l differ in
    modulus, that is tr^2 = (l + 1/l)^2 lies outside [0, 4] (Beardon 1983,
    classification by trace). Any other map raises DomainError.
    """
    if isinstance(f, MoebiusMap):
        tr2 = (f.a + f.d) ** 2
        if tr2.imag != 0.0 or not 0.0 <= tr2.real <= 4.0:
            return to_sphere(f.attracting_fixed_point())[0]
    elif np.abs(np.linalg.eigvals(f.matrix)).max() < 1.0:
        return f.fixed_point()
    raise DomainError(f"map {f.coefficients()} has no attracting fixed point")


@dataclass(frozen=True, eq=False)
class IfsSystem:
    space: str
    maps: tuple

    def __post_init__(self):
        if not isinstance(self.space, str) or self.space not in SPACE_DIMS:
            raise ValueError(f"space must be R1, R2, R4 or sphere, got {self.space!r}")
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        dim = SPACE_DIMS[self.space]
        for i, m in enumerate(maps):
            if self.space == "sphere" and not isinstance(m, MoebiusMap):
                raise ValueError(f"map {i + 1}: sphere systems take moebius maps")
            if self.space != "sphere" and not isinstance(m, AffineMap):
                raise ValueError(f"map {i + 1}: {self.space} systems take affine maps")
            if isinstance(m, AffineMap) and m.dim != dim:
                raise ValueError(f"map {i + 1} has dimension {m.dim}, expected {dim}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_inverses", tuple(m.inverse() for m in maps))
        blob = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(self, "_hash", hashlib.sha256(blob.encode()).hexdigest()[:16])

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return SPACE_DIMS[self.space]

    @property
    def is_sphere(self) -> bool:
        return self.space == "sphere"

    def map_for(self, digit: int):
        if digit > 0:
            return self.maps[digit - 1]
        return self._inverses[-digit - 1]

    def check_digit(self, digit: int):
        if digit == 0 or abs(digit) > self.n_maps:
            raise DomainError(f"digit {digit} outside alphabet for N={self.n_maps}")

    def transform(self, digit: int, pts: np.ndarray) -> np.ndarray:
        self.check_digit(digit)
        return self.map_for(digit)(pts)

    def images(self, pts: np.ndarray) -> np.ndarray:
        """F(X): the images of the points under maps 1..N, map after map."""
        digits = range(1, self.n_maps + 1)
        return np.concatenate([self.transform(i, pts) for i in digits])

    def apply_word(self, word: Word, pts: np.ndarray) -> np.ndarray:
        """f_{w_1} o ... o f_{w_k} applied to points (w_k acts first)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        for d in reversed(word):
            pts = self.transform(d, pts)
        return pts

    # -- Lipschitz bounds -----------------------------------------------------

    def map_lipschitz(self, digit: int) -> float:
        """Exact Lipschitz bound for one (possibly inverse) map: the largest
        singular value of an affine matrix, sigma_max^2 of a det-1 Moebius
        matrix (the supremum of its chordal derivative over the sphere)."""
        self.check_digit(digit)
        return self.map_for(digit).lipschitz()

    def word_lipschitz(self, word: Word) -> float:
        """The product of the map bounds along the word, each digit's bound
        taken once; it stops at inf, which no positive factor undoes."""
        lips = {d: self.map_lipschitz(d) for d in set(word)}
        out = 1.0
        for d in word:
            out *= lips[d]
            if out == np.inf:
                break
        return out

    def lam(self) -> float:
        """Contraction factor: the largest map bound."""
        return max(self.map_lipschitz(i) for i in range(1, self.n_maps + 1))

    # -- base points in the basin ----------------------------------------------

    def fixed_points(self) -> np.ndarray:
        """Each map's attracting fixed point pi((n)*), as a point of the space."""
        return np.vstack([_attracting_point(m) for m in self.maps])

    def dual(self) -> "IfsSystem":
        """The system of inverse maps, same digit order."""
        return IfsSystem(self.space, self._inverses)

    def spec_dict(self) -> dict:
        return {
            "space": self.space,
            "maps": [m.coefficients() for m in self.maps],
        }

    def ifs_hash(self) -> str:
        return self._hash


# -- attractor clouds ----------------------------------------------------------


@dataclass(eq=False)
class AttractorCloud:
    """Finite approximation of an attractor with a stated resolution."""

    points: np.ndarray
    epsilon: float
    meta: dict = field(default_factory=dict)
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise DomainError("attractor cloud cannot be empty")
        self.points = pts

    @property
    def tau(self) -> float:
        """Membership tolerance: a point is 'in A' within tau of the cloud."""
        return 3.0 * self.epsilon

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def nearest_dist(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d, _ = self.tree.query(pts)
        return np.atleast_1d(d)

    def dist_point(self, x) -> float:
        return float(self.nearest_dist(np.atleast_2d(x))[0])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)


def grid_dedup(pts: np.ndarray, cell: float) -> np.ndarray:
    """Keep one representative per grid cell: the cell centre.

    One np.lexsort pass sorts the integer cell rows, first column first,
    and drops each row equal to its predecessor. The output is in
    lexicographic order of the cell indices whatever the input order, so
    parallel or reordered evaluation produces identical clouds.
    """
    idx = np.floor(pts / cell).astype(np.int64)
    idx = idx[np.lexsort(idx.T[::-1])]
    keep = np.ones(idx.shape[0], dtype=bool)
    keep[1:] = np.any(idx[1:] != idx[:-1], axis=1)
    return (idx[keep] + 0.5) * cell


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Hausdorff distance between finite point sets.

    Nearest-neighbour queries use a KD-tree; identical to the O(|a||b|)
    brute force. Each point's distance is computed alone, so the result
    does not depend on the number of query threads.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("hausdorff distance needs nonempty sets")
    d_ab = cKDTree(b).query(a, workers=-1)[0].max()
    d_ba = cKDTree(a).query(b, workers=-1)[0].max()
    return float(max(d_ab, d_ba))


def _resolved_cloud(
    ifs: IfsSystem, pts: np.ndarray, err: float, meta: dict
) -> AttractorCloud:
    """The cloud with resolution err/(1-lam), or 4*err if not contractive.

    Moebius lam is sampled: the largest chordal derivative at the points.
    """
    if ifs.is_sphere:
        z = from_sphere(pts)
        lam = max(float(m.chordal_derivative(z).max()) for m in ifs.maps)
    else:
        lam = ifs.lam()
    contractive = lam < 1.0
    eps = err / (1.0 - lam) if contractive else 4.0 * err
    tail = {"lam": lam, "contractive": contractive}
    return AttractorCloud(pts, eps, {"ifs_hash": ifs.ifs_hash(), **meta, **tail})


# The most image points one step of `attractor`, or the F(X) of a chaos
# orbit, may make: admits triangle at cell 1e-3 (2,005,084) and stops
# expanding systems and huge orbits before memory does.
MAX_IMAGE_POINTS = 1 << 22
# The most words a walk over all words of length <= depth may take: admits
# depth 15 on two maps, 9 on three and 7 on four, past every depth of the
# tests, the benchmark and the README; depth 40 on two maps, 2^41 words,
# would never finish.
MAX_WORDS = 1 << 16
# The most steps `attractor` takes: the slowest built-in at the cells of
# the tests and the benchmark, koch, repeats within 31.
MAX_STEPS = 200


def check_word_tree(n_maps: int, depth: int) -> None:
    """Refuse a walk over the sum_{k <= depth} n_maps^k words of length
    <= depth when depth is negative or they number more than MAX_WORDS;
    counted level by level, so a huge depth stops early."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    words, level = 0, 1
    for _ in range(depth + 1):
        words += level
        if words > MAX_WORDS:
            raise ResolutionError(
                f"depth {depth} over {n_maps} maps passes {MAX_WORDS} words"
            )
        level *= n_maps


class _RowKeys:
    """One-to-one between int64 rows within [lo, hi] and 1-D keys that sort
    and compare as the rows do, first column first. When the column ranges
    fit in 63 bits a key is one int64, each column shifted to 0 and given
    its bits; otherwise it is the row's big-endian bytes with the sign bits
    flipped, one bytes item that numpy compares byte by byte, and [lo, hi]
    widens to every int64 row."""

    _SIGN = np.uint64(1 << 63)

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        widths = [(int(h) - int(l)).bit_length() for l, h in zip(lo, hi)]
        self.packed = sum(widths) <= 63
        if not self.packed:
            info = np.iinfo(np.int64)
            lo, hi = np.full_like(lo, info.min), np.full_like(hi, info.max)
        self.lo, self.hi = lo, hi
        self.shifts = [sum(widths[j + 1 :]) for j in range(len(lo))]
        self.masks = [(1 << w) - 1 for w in widths]

    def covers(self, rows: np.ndarray) -> bool:
        return bool((rows >= self.lo).all() and (rows <= self.hi).all())

    def pack(self, rows: np.ndarray) -> np.ndarray:
        if not self.packed:
            flipped = (rows.view(np.uint64) ^ self._SIGN).astype(">u8")
            return flipped.view(f"S{8 * len(self.lo)}").ravel()
        key = np.zeros(len(rows), dtype=np.int64)
        for j, s in enumerate(self.shifts):
            key |= (rows[:, j] - self.lo[j]) << s
        return key

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        if not self.packed:
            flipped = keys.view(">u8").reshape(len(keys), len(self.lo))
            return (flipped.astype(np.uint64) ^ self._SIGN).view(np.int64)
        rows = np.empty((len(keys), len(self.lo)), dtype=np.int64)
        for j, (s, m) in enumerate(zip(self.shifts, self.masks)):
            rows[:, j] = ((keys >> s) & m) + self.lo[j]
        return rows


def _set_hash(rows: np.ndarray, signs: np.ndarray | None = None) -> int:
    """A 64-bit hash of a set of int64 cell rows: the wrapping sum of a
    multiply-xorshift hash of each row, times its sign (+1 or -1) when
    signs are given. A sum moves by the hashes of the rows added and
    removed alone (an incremental multiset hash, Clarke et al. 2003), so
    a set that changes by a few cells is hashed by a few."""
    cols = rows.view(np.uint64).T
    h = cols[0] * np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 over the golden ratio
    for col in cols[1:]:
        h ^= h >> np.uint64(29)  # the product's high bits down
        h ^= col
        h *= np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    if signs is not None:
        h *= signs.view(np.uint64)  # -1 is 2^64 - 1
    return int(h.sum())


def _hutchinson_sets(ifs: IfsSystem, start: np.ndarray, cell: float):
    """Yield X_0 = grid_dedup(start, cell), X_1, X_2, ... with X_{t+1} =
    S(X_t) = grid_dedup(F(X_t), cell), each as (hash, size, changed,
    points): its _set_hash, its number of cells, the number of cells the
    step added and removed (None for X_0), and a function that makes its
    points, bit for bit grid_dedup's; refuse a step past MAX_IMAGE_POINTS
    images.

    `table` holds X_t as the sorted `_RowKeys` keys of its int64 cell rows,
    and `counts` for each cell the number of pairs (x, i), x in X_{t-1},
    with f_i(x) in it, so X_t is the cells with a count above 0. A step
    transforms the cells the previous step added (their images count +1)
    and removed (-1), merges the summed signs into the table with one
    sorted search, and moves the hash by the same cells. When those cells
    are at least as many as X_t, as for X_0, the step counts all of X_t
    afresh from zero instead: the same merge, with fewer images. That also
    holds a step's images to n_maps * |X_t|, the count the
    MAX_IMAGE_POINTS check reads.
    """
    idx = np.floor(start / cell).astype(np.int64)
    keys = _RowKeys(idx.min(axis=0), idx.max(axis=0))
    table = np.unique(keys.pack(idx))
    moved = keys.unpack(table)
    digest, changed = _set_hash(moved), None
    while True:
        def points(t=table, k=keys):
            return (k.unpack(t) + 0.5) * cell

        yield digest, len(table), changed, points
        rows = ifs.n_maps * len(table)
        if rows > MAX_IMAGE_POINTS:
            raise ResolutionError(
                f"a step would make {rows} points, cap {MAX_IMAGE_POINTS}, cell {cell:g}"
            )
        if len(moved) >= len(table):
            moved, signs = keys.unpack(table), np.ones(len(table), dtype=np.int64)
            counts = np.zeros(len(table), dtype=np.int64)
        idx = np.floor(ifs.images((moved + 0.5) * cell) / cell).astype(np.int64)
        weights = np.tile(signs, ifs.n_maps)
        if not keys.covers(idx):
            cells = keys.unpack(table)
            lo = np.minimum(keys.lo, idx.min(axis=0))
            keys = _RowKeys(lo, np.maximum(keys.hi, idx.max(axis=0)))
            table = keys.pack(cells)
        # the signs summed per cell, then merged into the table; the images'
        # temporaries are freed once read, so that none outlives the step
        key = keys.pack(idx)
        del idx
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        first = np.flatnonzero(first)
        wanted, sums = key[first], np.add.reduceat(weights[order], first)
        del key, order, first, weights
        wanted, sums = wanted[sums != 0], sums[sums != 0]
        at = np.searchsorted(table, wanted)
        old = at < len(table)
        old[old] = table[at[old]] == wanted[old]
        counts[at[old]] += sums[old]
        gone, new = np.flatnonzero(counts == 0), ~old
        added = wanted[new]
        moved = keys.unpack(np.concatenate([added, table[gone]]))
        signs = np.repeat(np.array([1, -1], dtype=np.int64), [len(added), len(gone)])
        changed = len(moved)
        digest = (digest + _set_hash(moved, signs)) % (1 << 64)
        at = at[new] - np.searchsorted(gone, at[new])
        table = np.insert(np.delete(table, gone), at, added)
        counts = np.insert(np.delete(counts, gone), at, sums[new])


def attractor(ifs: IfsSystem, cell: float = 1e-3) -> AttractorCloud:
    """Iterate S(X) = grid_dedup(F(X), cell) from the maps' attracting fixed
    points until a set repeats; return the union U of the cycle, so that
    S(U) = U exactly.

    S maps a finite grid into itself, so the orbit ends in a fixed point or
    a cycle (Dubuc & Elqortobi 1990). A step that changes no cell reaches
    the fixed point, exactly. A longer cycle is found by a repeat of the
    sets' running 64-bit hash (_set_hash) and confirmed by taking its
    period of steps again and comparing the points exactly. Snapping moves
    a point by at most delta = cell*sqrt(d)/2 <= cell (d <= 4), so with
    Lip(F) <= lam,
    H(U, A) <= H(S(U), F(U)) + H(F(U), F(A)) <= delta + lam * H(U, A)
    and epsilon = cell/(1 - lam) bounds H(U, A).

    Each step is semi-naive (Bancilhon & Ramakrishnan 1986): for each cell
    of S(X_t) it keeps the number n_t(c) of pairs (x, i), x in X_t, with
    f_i(x) in c. As X_{t+1} = X_t + A - R for the cells A added and R
    removed, n_{t+1} = n_t + (pairs from A) - (pairs from R), so the step
    transforms only A and R (or all of X_{t+1}, counted afresh, when A and
    R are as many), and X_{t+2} is the cells with n_{t+1} > 0.
    A point's image is the same float in any batch, so the sets are the
    full iteration's, as the tests check byte for byte. meta["changed"]
    records |A| + |R| per step. Points are made only for the result, a
    cycle's sets and the NoConvergenceError residual.

    Raises DomainError for a cell that is not a finite positive number and
    for a map with no attracting fixed point, NoConvergenceError, carrying
    H(last, previous), if no set repeats within MAX_STEPS steps, and
    ResolutionError if a step would make more than MAX_IMAGE_POINTS points.
    """
    if not 0.0 < cell < np.inf:
        raise DomainError(f"cell must be a finite positive number, got {cell!r}")
    sets = _hutchinson_sets(ifs, ifs.fixed_points(), cell)
    digest, _, _, points = next(sets)
    seen: dict[int, int] = {}
    prev, sizes, changed = None, [], []

    def step():
        digest, size, moved, points = next(sets)
        sizes.append(size)
        changed.append(moved)
        return digest, points

    while True:
        steps = len(sizes)
        period = steps - seen.setdefault(digest, steps)
        if steps and not changed[-1]:  # S(X) = X, found exactly
            pts, period = points(), 1
            break
        if period > 1:
            cycle = [points]
            for _ in range(period):
                digest, points = step()
                cycle.append(points)
            prev = cycle[-2]
            if np.array_equal(points(), cycle[0]()):
                pts = grid_dedup(np.concatenate([c() for c in cycle[:-1]]), cell)
                break
        elif steps == MAX_STEPS:
            residual = np.inf if prev is None else hausdorff_distance(points(), prev())
            raise NoConvergenceError(
                f"no repeated set after {steps} iterations (residual {residual:.3g})",
                residual=residual,
            )
        else:
            prev = points  # the older set is freed before the step, not after it
            digest, points = step()
    meta = {
        "method": "hutchinson",
        "depth": len(sizes),
        "cell": cell,
        "cycle": period,
        "sizes": sizes,
        "changed": changed,
    }
    return _resolved_cloud(ifs, pts, cell, meta)


# Steps per lane of a chaos orbit (see _orbit): long enough that the lanes
# of a contraction forget their guessed starts within one lane, short
# enough that ~n / LANE_STEPS rows share each batched step.
LANE_STEPS = 512
# Leaf positions per chunk of _orbit_residual's first direction, and the
# rows it queries exactly while its maximum is 0.
_CHUNK = 1 << 14
_SEEDS = 64


def _lane_step(ifs: IfsSystem):
    """One orbit step on a batch of lanes, step(x, i, out): lane r goes to
    f_{i[r] + 1}(x[r]), written to out, by the float operations of a one-row
    step: affine_image with each lane's matrix and offset, or each Moebius
    map's apply_complex on the plane values of its rows."""
    if ifs.is_sphere:

        def step(z, i, out):
            for m, f in enumerate(ifs.maps):
                sel = i == m
                if sel.any():
                    out[sel] = f.apply_complex(z[sel])

        return step
    mats = np.stack([m.matrix for m in ifs.maps])
    offs = np.stack([m.offset for m in ifs.maps])
    return lambda x, i, out: affine_image(x, mats[i], offs[i], out)


def _orbit(
    ifs: IfsSystem, digits: np.ndarray, x0: np.ndarray, lane: int = LANE_STEPS
) -> tuple[np.ndarray, int]:
    """The orbit x_k = f_{digits[k]}(x_{k-1}) from x_{-1} = x0, one row per
    step, bit for bit the one-step-at-a-time loop, and the rounds it took.

    The steps are cut into lanes of `lane` steps that run side by side,
    one batched step at a time. Each lane starts from a guess, x0 at
    first. After a round, lane j's start becomes lane j-1's last point
    (lane 0 keeps x0), and the next round reruns the lanes from the first
    whose start changed in its bits (-0.0 and 0.0 differ). When no start
    changes, every lane began at its predecessor's last point, so by
    induction from lane 0 the orbit is the sequential one. Each round
    makes at least one more lane exact, so there are at most
    ceil(n / lane) rounds; maps that contract make the lanes forget their
    guesses, so they agree after a round or two (a Parareal-style
    fixpoint, Lions, Maday & Turinici 2001). Overflow is left to the
    caller's check.
    """
    x0 = np.asarray(x0, dtype=complex if ifs.is_sphere else float)
    n = len(digits)
    lanes = -(-n // lane)
    idx = np.zeros(lanes * lane, dtype=np.intp)  # padded steps apply map 1
    idx[:n] = digits - 1
    idx = idx.reshape(lanes, lane).T.copy()  # idx[k] is step k of every lane
    step = _lane_step(ifs)
    orbit = np.empty((lane, lanes) + x0.shape, dtype=x0.dtype)
    starts = np.repeat(x0[None], lanes, axis=0)
    first, rounds = 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            rounds += 1
            x = starts[first:]
            for k in range(lane):
                step(x, idx[k, first:], orbit[k, first:])
                x = orbit[k, first:]
            new = np.concatenate([x0[None], orbit[-1, :-1]])
            moved = new.view(np.int64) != starts.view(np.int64)
            moved = np.flatnonzero(moved.reshape(lanes, -1).any(axis=1))
            if not moved.size:
                break
            first, starts = moved[0], new
    return orbit.swapaxes(0, 1).reshape((-1,) + x0.shape)[:n], rounds


def _orbit_residual(
    imgs: np.ndarray, out: np.ndarray, digits: np.ndarray
) -> tuple[float, list[int]]:
    """hausdorff_distance(imgs, out) for an orbit with imgs = F(out) and
    out[j + 1] = f_{digits[j]}(out[j]), and the rows queried in each
    direction.

    Row t_j = (digits[j] - 1) * len(out) + j of imgs is out[j + 1]'s twin:
    equal up to rounding, at distance u_j. So u_j bounds both the twin's
    distance to out and out[j + 1]'s distance to imgs, and a row with
    u_j <= h/2, h the maximum found so far, cannot raise the maximum and is
    not queried; the margin of 1/2 covers rounding, and a NaN u_j is
    queried. out[0] has no twin; its bound is its brute-force distance to
    the nearest row of imgs.

    A row f_i(out[j]) that is no twin has a bound too: out[k + 1] =
    f_i(out[k]) is a point of out for each k with digits[k] = i, so its
    distance to the nearest such out[k + 1], k taken before and after j in
    the leaf order of the tree of out (a near point), bounds the row's
    distance to out (Taha & Hanbury 2015 skip rows that cannot raise the
    maximum likewise). The first direction works map by map, in chunks of
    leaf positions: it queries exactly the rows with the largest bounds
    while h is 0, skips the rows whose bound is below h by a relative
    1e-12 (rounding) and 1e-160 (squares that underflow), queries the
    others with distance_upper_bound=h and again without a bound those
    that come back inf, at or past h; then it queries the twins that fail
    their bound. The second direction queries the tree of imgs with the
    rows of out that fail theirs, and builds that tree only if there are
    any. Every distance taken into h is a tree query's, so the result is
    the same float as hausdorff_distance.
    """
    n = out.shape[0]
    twins = (digits - 1) * n + np.arange(n - 1)
    u = np.empty(n)
    # out[0]'s bound, map by map as below
    u[0] = min(
        row_distances(imgs[s : s + n], out[0]).min() for s in range(0, len(imgs), n)
    )
    u[1:] = row_distances(out[1:], np.take(imgs, twins, axis=0))
    # an unbalanced tree builds faster, shrunk node boxes pay for
    # themselves over this tree's many queries, and a query is exact on
    # any tree shape, so every distance keeps its bits
    tree = cKDTree(out, balanced_tree=False)
    leaf = tree.indices
    nxt = np.append(digits, 0)[leaf]  # the next digit at each leaf position
    h, first = 0.0, 0
    for i in range(1, imgs.shape[0] // n + 1):
        block = imgs[(i - 1) * n : i * n]
        # the leaf positions p with f_i(out[leaf[p]]) = out[leaf[p] + 1],
        # and those points of out, in leaf order
        hit = nxt == i
        near = np.take(out, leaf[hit] + 1, axis=0)
        before = 0
        for s in range(0, n, _CHUNK):
            # the chunk's rows that are no twin, in leaf order, so that
            # successive queries, images of nearby points, walk the same
            # nodes (np.take gathers rows several times faster than [])
            ranks = np.cumsum(hit[s : s + _CHUNK]) + before
            before = ranks[-1]
            keep = np.flatnonzero(~hit[s : s + _CHUNK])
            rows = np.take(block, leaf[s + keep], axis=0)
            # the nearest hits before and after a row are near[rank - 1]
            # and near[rank]; clipped, a hit still gives a bound
            bound = np.full(len(rows), np.inf)
            for k in (ranks[keep] - 1, ranks[keep]) if len(near) else ():
                k = np.take(near, np.clip(k, 0, len(near) - 1), axis=0)
                np.minimum(bound, row_distances(rows, k), out=bound)
            # these queries are small: one thread each
            if not h and len(rows):
                top = np.argsort(bound)[-_SEEDS:]
                h = tree.query(rows[top])[0].max()
                first += len(top)
                bound[top] = -np.inf  # their distances are in h
            rows = rows[~(bound < h * (1 - 1e-12) - 1e-160)]
            if len(rows):
                # every row comes back inf from a bound of 0: query without one
                d = tree.query(rows, distance_upper_bound=h or np.inf)[0]
                first += len(rows)
                if np.isinf(d).any():
                    h = max(h, tree.query(rows[np.isinf(d)])[0].max())
    far = twins[~(u[1:] <= h / 2)]
    if far.size:
        h = max(h, tree.query(imgs[far], workers=-1)[0].max())
    del tree, twins, leaf  # freed before the second tree is built
    rows = np.flatnonzero(~(u <= h / 2))
    if rows.size:
        # no shrunk node boxes: this tree answers only a few rows
        tree = cKDTree(imgs, balanced_tree=False, compact_nodes=False)
        h = max(h, tree.query(out[rows], workers=-1)[0].max())
    return float(h), [first + far.size, rows.size]


def chaos_game(
    ifs: IfsSystem,
    n: int,
    burn_in: int = 64,
    rng_seed: int = 0,
) -> AttractorCloud:
    """Random-orbit cloud; deterministic for a given seed (PCG64).

    The orbit runs in lanes (_orbit); a sphere orbit stays in the plane
    and one to_sphere call embeds it. An orbit or image that leaves the
    floats raises ResolutionError, as does an n whose F(X) would pass
    MAX_IMAGE_POINTS rows, before any digit is drawn.
    """
    if not 0 <= burn_in < n:
        raise DomainError(f"need 0 <= burn_in < n, got burn_in={burn_in}, n={n}")
    rows = n * ifs.n_maps
    if rows > MAX_IMAGE_POINTS:
        raise ResolutionError(
            f"{n} chaos points would make {rows} images, cap {MAX_IMAGE_POINTS}"
        )
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    digits = rng.integers(1, ifs.n_maps + 1, size=n)
    x0 = ifs.fixed_points()[0]
    if ifs.is_sphere:
        zs, rounds = _orbit(ifs, digits, from_sphere(x0)[0])
        out = to_sphere(zs[burn_in:])
    else:
        orbit, rounds = _orbit(ifs, digits, x0)
        out = orbit[burn_in:]
    with np.errstate(over="ignore", invalid="ignore"):
        imgs = ifs.images(out)
    if not (np.isfinite(out).all() and np.isfinite(imgs).all()):
        raise ResolutionError(f"the chaos orbit of {n} points overflows")
    residual, queried = _orbit_residual(imgs, out, digits[burn_in + 1 :])
    meta = {
        "method": "chaos",
        "n": n,
        "burn_in": burn_in,
        "rng": "PCG64",
        "rng_seed": rng_seed,
        "residual": residual,
        "queried": queried,
        "rounds": rounds,
    }
    return _resolved_cloud(ifs, out, residual, meta)


# -- coding map -----------------------------------------------------------------


def _period_map(ifs: IfsSystem, period: Word):
    """f_p = f_{p_1} o ... o f_{p_m} as one map of the system's family."""
    maps = [ifs.map_for(d) for d in period]
    if ifs.is_sphere:
        mat = np.eye(2)
        for m in maps:
            mat = mat @ m.matrix()
        return MoebiusMap(*mat.ravel())
    mat, off = np.eye(ifs.dim), np.zeros(ifs.dim)
    for m in maps:
        mat, off = mat @ m.matrix, mat @ m.offset + off
    return AffineMap(mat, off)


def coding_map(ifs: IfsSystem, addr: Address) -> np.ndarray:
    """pi(u.(p)*) = f_u(Fix f_p): the address's projection into X.

    For an eventually periodic address the limit of f_{addr|k}(b) is the
    attracting fixed point of the one map f_p, moved by the (possibly
    inverse-containing) preperiod u. Raises DomainError outside J+ and when
    f_p has no attracting fixed point.
    """
    cls = validate(addr, ifs.n_maps)
    if not addr.is_infinite or not cls.in_Jplus:
        raise DomainError(f"address {addr} is not in the coding map's domain")
    fixed = _attracting_point(_period_map(ifs, addr.period))
    return ifs.apply_word(addr.pre, fixed)[0]


# -- semiconjugacy check ----------------------------------------------------------


def random_address(
    rng: np.random.Generator,
    n_maps: int,
    max_pre: int = 4,
    max_period: int = 3,
    tail: str = "positive",
) -> Address:
    """Random valid eventually-periodic address (no adjacent cancellations).

    The period takes positive digits with tail="positive" and any digit
    otherwise. A period digit avoids at most -period[-1] and -period[0],
    which are equal when N = 1, so some digit is always allowed.
    """
    full = [d for d in range(-n_maps, n_maps + 1) if d != 0]
    tail_alphabet = list(range(1, n_maps + 1)) if tail == "positive" else full
    plen = int(rng.integers(1, max_period + 1))
    period: list[int] = []
    for i in range(plen):
        # no cancellation with the digit before, nor across the wrap
        banned = {-d for d in period[-1:]}
        if i == plen - 1:
            banned |= {-d for d in period[:1]}
        period.append(int(rng.choice([d for d in tail_alphabet if d not in banned])))
    pre: list[int] = []
    for _ in range(int(rng.integers(0, max_pre + 1))):
        nxt = pre[0] if pre else period[0]
        pre.insert(0, int(rng.choice([d for d in full if d != -nxt])))
    return Address(tuple(pre), tuple(period))


def verify_semiconjugacy(
    ifs: IfsSystem, n_samples: int = 100, rng_seed: int = 0
) -> np.ndarray:
    """Residuals d(pi(sigma_n(addr)), f_n(pi(addr))) on random addresses.

    All n in the signed alphabet are exercised: one residual per (address,
    n), in draw order, so the array has n_samples * 2N entries. Residuals
    are measured in the system's metric (chordal on the sphere).
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    digits = [d for d in range(-ifs.n_maps, ifs.n_maps + 1) if d != 0]
    res = []
    for _ in range(n_samples):
        addr = random_address(rng, ifs.n_maps)
        pi_addr = coding_map(ifs, addr)
        for n in digits:
            lhs = coding_map(ifs, sigma(n, addr))
            rhs = ifs.transform(n, pi_addr[None, :])[0]
            res.append(np.linalg.norm(lhs - rhs))
    return np.array(res)
