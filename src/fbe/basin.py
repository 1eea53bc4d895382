"""Fractal continuations, fast-basin rasters, membership search, and the
basin-inclusion criterion.

Membership is tolerance-relative in *source* space: a point reaches the
attractor via the word w when it lies within tol of f_w^{-1}(cloud).
For contractive systems this implies the image-space residual
d(f_w(x), cloud) <= tol as well, but the converse would be satisfied by
every point at large depth, so the pullback test is the decisive one.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .addresses import Address
from .errors import DomainError, ResolutionError
from .ifs import AttractorCloud, IfsSystem, check_word_tree, coding_map
from .io import int_rows
from .maps import from_sphere, row_distances

Word = tuple[int, ...]


class ResolutionWarning(UserWarning):
    """Raster cells finer than the cloud tolerance: hits are tolerance-dominated."""


def _theta_digits(ifs: IfsSystem, theta, k: int) -> Word:
    """First k digits of a positive word over ifs's digits, given as
    Address or sequence."""
    if k < 0:
        raise DomainError(f"continuation depth {k} must be >= 0")
    if isinstance(theta, Address):
        theta = theta.prefix(k) if theta.is_infinite else theta.pre
    theta = tuple(theta)
    if k > len(theta):
        raise DomainError(
            f"continuation depth {k} exceeds the {len(theta)} digits of theta"
        )
    digits = theta[:k]
    if any(d <= 0 for d in digits):
        raise DomainError("theta must be a positive word")
    for d in set(digits):
        ifs.check_digit(d)
    return digits


def finite_continuation(
    ifs: IfsSystem, cloud: AttractorCloud, theta, k: int
) -> np.ndarray:
    """The points of B_{theta|k}: f_{theta_1}^{-1} o ... o f_{theta_k}^{-1}
    applied to the cloud. Refused when a float cannot hold them: at once
    when the word's Lipschitz factor overflows, else once a point does."""
    word = tuple(-d for d in _theta_digits(ifs, theta, k))
    if ifs.word_lipschitz(word) == np.inf:
        raise ResolutionError(f"the Lipschitz factor of theta|{k}'s inverse overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        pts = ifs.apply_word(word, cloud.points)
    if not np.isfinite(pts).all():
        raise ResolutionError(f"the points of B_theta|{k} overflow")
    return pts


# -- rasters -------------------------------------------------------------------


@dataclass(eq=False)
class Raster:
    """Axis-aligned hit grid with minimal witness depth per cell.

    depth[iy, ix] is the shortest word length whose inverse image touched
    the cell, or -1 for a miss. Row iy=0 is the low-y edge; PGM emission
    flips so the top image row is the high-y edge.
    """

    lo: np.ndarray
    hi: np.ndarray
    nx: int
    ny: int
    depth: np.ndarray

    @property
    def hit(self) -> np.ndarray:
        return self.depth >= 0

    @property
    def hit_count(self) -> int:
        return int(self.hit.sum())

    def to_pgm(self) -> bytes:
        header = f"P5\n{self.nx} {self.ny}\n255\n".encode()
        d = self.depth[::-1, :].astype(np.int32)
        gray = np.where(d < 0, 0, 255 - np.minimum(d * 16, 254)).astype(np.uint8)
        return header + gray.tobytes()

    def to_csv(self) -> str:
        # np.nonzero is row-major: rows by iy, then ix
        ys, xs = np.nonzero(self.hit)
        rows = int_rows((xs, ys, self.depth[ys, xs]))
        return b"".join([b"ix,iy,depth\n", *rows]).decode()


def _normalize_region(region, rdim: int) -> tuple[np.ndarray, np.ndarray]:
    region = np.array(region, dtype=float)  # a copy: lo and hi are its views
    if region.shape != (2 * rdim,):
        raise DomainError("region must be (x0,x1) on R1, else (x0,y0,x1,y1)")
    lo, hi = np.split(region, 2)
    if not (np.isfinite(region).all() and np.all(lo < hi)):
        raise DomainError("region must be finite with positive extent")
    return lo, hi


def _raster_coords(ifs: IfsSystem, pts: np.ndarray) -> np.ndarray:
    """Project ambient points to raster coordinates, min(ifs.dim, 2) of them.

    R1/R2 points pass through; the sphere projects to the complex plane
    (points at infinity are dropped); higher-dimensional affine spaces
    use their first two coordinates.
    """
    if ifs.space == "sphere":
        z = from_sphere(pts)
        finite = np.isfinite(z.real) & np.isfinite(z.imag)
        z = z[finite]
        return np.stack([z.real, z.imag], axis=1)
    return pts[:, :2]


class _RasterGrid:
    def __init__(self, lo, hi, nx, ny, tau):
        self.lo, self.hi = lo, hi
        self.nx, self.ny = nx, ny
        self.tau = tau
        self.rdim = lo.shape[0]
        self.widths = (hi - lo) / np.array([nx, ny][: self.rdim])
        # per word length, the (+, -) corner lists of the queued rectangles
        self.corners: dict[int, tuple[list, list]] = {}

    def _axis_ranges(self, vals, axis, n):
        """Clipped cell index ranges [lo, hi] and the mask of nonempty ones."""
        w = self.widths[axis]
        lo = np.floor((vals - self.tau - self.lo[axis]) / w).astype(np.int64)
        hi = np.floor((vals + self.tau - self.lo[axis]) / w).astype(np.int64)
        ok = (lo <= hi) & (lo <= n - 1) & (hi >= 0)
        return np.clip(lo, 0, n - 1), np.clip(hi, 0, n - 1), ok

    def mark(self, pts: np.ndarray, word_len: int):
        """Queue the rectangle of cells that each point's tau-box touches
        under word_len: its four signed corners, as flat int32 indices into
        a (ny+1) x (nx+1) difference array."""
        if pts.size == 0:
            return
        ix_lo, ix_hi, keep = self._axis_ranges(pts[:, 0], 0, self.nx)
        if self.rdim == 2:
            iy_lo, iy_hi, oky = self._axis_ranges(pts[:, 1], 1, self.ny)
            keep &= oky
        else:
            iy_lo = iy_hi = np.zeros(ix_lo.shape, dtype=np.int64)
        if not keep.any():
            return
        w = self.nx + 1
        r0, r1 = iy_lo[keep] * w, (iy_hi[keep] + 1) * w
        c0, c1 = ix_lo[keep], ix_hi[keep] + 1
        pos, neg = self.corners.setdefault(word_len, ([], []))
        pos.append(np.concatenate([r0 + c0, r1 + c1]).astype(np.int32))
        neg.append(np.concatenate([r0 + c1, r1 + c0]).astype(np.int32))

    def finalize(self) -> Raster:
        """The raster of the least word length covering each cell.

        Word lengths go in ascending order; the rectangles of one length
        are summed at once (one bincount per corner sign, two prefix sums),
        and a covered cell still unmarked takes that length.
        """
        ny, nx = self.ny, self.nx
        size = (ny + 1) * (nx + 1)
        depth = np.full((ny, nx), -1, dtype=np.int32)
        for word_len in sorted(self.corners):
            pos, neg = self.corners[word_len]
            cover = np.bincount(np.concatenate(pos), minlength=size)
            cover -= np.bincount(np.concatenate(neg), minlength=size)
            cover = cover.reshape(ny + 1, nx + 1)
            np.cumsum(cover, axis=0, out=cover)
            np.cumsum(cover, axis=1, out=cover)
            depth[(cover[:-1, :-1] > 0) & (depth < 0)] = word_len
        return Raster(lo=self.lo, hi=self.hi, nx=nx, ny=ny, depth=depth)


def _tolerance(cloud: AttractorCloud, tol: float | None) -> float:
    """tol, or the cloud tolerance tau when None; a tol below tau or not
    finite is refused."""
    tol = cloud.tau if tol is None else tol
    if not cloud.tau <= tol < np.inf:
        raise ResolutionError(f"tol {tol:.3g} is not finite or < tau {cloud.tau:.3g}")
    return tol


def _raster_grid(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    region,
    nx: int,
    ny: int,
    depth: int,
    tau: float | None,
) -> _RasterGrid:
    """The empty grid of a raster builder, after the checks both builders share."""
    check_word_tree(ifs.n_maps, depth)
    if nx < 1 or ny < 1:
        raise DomainError(f"grid sizes must be >= 1, got {nx} x {ny}")
    if (nx + 1) * (ny + 1) > np.iinfo(np.int32).max:
        # the corner indices of _RasterGrid.mark are int32
        raise DomainError(f"grid {nx} x {ny} is too large for int32 cell indices")
    rdim = min(ifs.dim, 2)  # as _raster_coords projects
    if rdim == 1 and ny != 1:
        raise DomainError(f"an R1 raster has one row, not {ny}")
    lo, hi = _normalize_region(region, rdim)
    tau = _tolerance(cloud, tau)
    grid = _RasterGrid(lo, hi, nx, ny, tau)
    if grid.widths.min() < tau:
        # level 3 is the caller of the builder
        warnings.warn(
            "raster cells are smaller than the membership tolerance",
            ResolutionWarning,
            stacklevel=3,
        )
    return grid


def fast_basin_raster(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    region,
    nx: int,
    ny: int = 1,
    depth: int = 3,
    tau: float | None = None,
) -> Raster:
    """Mark cells hit by f_w^{-1}(cloud) over all positive words |w| <= depth.

    A cell is hit when a transformed cloud point lies in the closed cell
    inflated by tau (at least the cloud's tau); the recorded value is the
    minimal word length. Every word of the tree is visited: no subtree can
    be skipped, because f_w(A) is in A, so each pulled cloud
    f_w^{-1}(cloud) comes back to the attractor.
    """
    grid = _raster_grid(ifs, cloud, region, nx, ny, depth, tau)
    stack = [(0, cloud.points)]
    while stack:
        word_len, pts = stack.pop()
        grid.mark(_raster_coords(ifs, pts), word_len)
        if word_len < depth:
            for n in range(ifs.n_maps, 0, -1):
                stack.append((word_len + 1, ifs.transform(-n, pts)))
    return grid.finalize()


def raster_from_continuations(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    region,
    nx: int,
    ny: int = 1,
    depth: int = 3,
    tau: float | None = None,
) -> Raster:
    """The same hit set as fast_basin_raster, computed the other way:
    as the union of finite continuations B_{theta|k} over positive words.
    """
    grid = _raster_grid(ifs, cloud, region, nx, ny, depth, tau)
    for k in range(depth + 1):
        for theta in itertools.product(range(1, ifs.n_maps + 1), repeat=k):
            pts = finite_continuation(ifs, cloud, theta, k)
            grid.mark(_raster_coords(ifs, pts), k)
    return grid.finalize()


# -- membership ------------------------------------------------------------------


@dataclass
class MembershipResult:
    status: str  # "yes" | "no_up_to_depth"
    witness: Word | None
    depth_searched: int
    tolerance: float
    distance: float | None = None

    @property
    def reached(self) -> bool:
        return self.status == "yes"


def membership(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    x,
    depth: int = 8,
    tol: float | None = None,
    theta=None,
) -> MembershipResult:
    """Breadth-first search for the earliest word w with x in f_w^{-1}(A).

    Words are explored shortest-first with lexicographic tie-break, so the
    witness is canonical. tol must be at least the cloud tolerance tau.
    The decisive test is in source space (distance from x to the pulled
    cloud f_w^{-1}(cloud)); the cheap image-space distance only prunes.

    With theta, level k prepends theta_k alone, so the one word of length
    k is reversed(theta|k) and its pulled cloud is B_{theta|k}: the search
    runs over the finite continuations of theta.
    """
    tol = _tolerance(cloud, tol)
    digits = range(1, ifs.n_maps + 1)
    if theta is None:
        check_word_tree(ifs.n_maps, depth)
        levels = [digits] * depth
    else:
        check_word_tree(1, depth)
        levels = [(d,) for d in _theta_digits(ifs, theta, depth)]
    x = np.asarray(x, dtype=float).reshape(-1)
    d0 = cloud.dist_point(x)
    if d0 <= tol:
        return MembershipResult("yes", (), 0, tol, d0)
    lips = [ifs.map_lipschitz(n) for n in digits]
    # level k: the words of length k in lexicographic order, the images
    # f_w(x) and the Lipschitz products, extended by f_{(n)+w} = f_n o f_w
    words, ys, lip = [()], x[None, :], np.ones(1)
    for k, level in enumerate(levels, start=1):
        words = [(n,) + w for n in level for w in words]
        ys = ifs.images(ys) if theta is None else ifs.transform(level[0], ys)
        lip = np.concatenate([lip * lips[n - 1] for n in level])
        # no cloud point can pull back within tol where f_w(x) is farther
        # than tol * Lip(f_w) from the cloud
        far = cloud.nearest_dist(ys) > tol * np.maximum(lip, 1e-300)
        for j in np.flatnonzero(~far):
            word = words[j]
            pulled = ifs.apply_word(tuple(-d for d in reversed(word)), cloud.points)
            d = float(row_distances(pulled, x).min())
            if d <= tol:
                return MembershipResult("yes", word, k, tol, d)
    return MembershipResult("no_up_to_depth", None, depth, tol, None)


# -- reversible periodic words -----------------------------------------------------


def is_reversible_periodic(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    period: Word,
    margin: float,
) -> bool:
    """Sufficient-condition test for a periodic word: the coding-map image
    of the reversed periodic word must sit in the attractor's interior,
    witnessed by a covered ball of radius `margin`, at least the cloud's tau.
    """
    period = tuple(period)
    if not period:
        raise DomainError("period must be nonempty")
    if any(d <= 0 for d in period):
        raise DomainError("period must be a positive word")
    margin = _tolerance(cloud, margin)
    if ifs.is_sphere:
        raise DomainError("interior test implemented for affine spaces only")
    p = coding_map(ifs, Address((), tuple(reversed(period))))
    step = cloud.epsilon / 2
    n_side = max(2, int(np.ceil(2 * margin / step)) + 1)
    axes = [np.linspace(-margin, margin, n_side)] * ifs.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ifs.dim)
    ball = mesh[np.linalg.norm(mesh, axis=1) <= margin] + p
    return bool(cloud.nearest_dist(ball).max() <= cloud.tau)


# -- basin inclusion -----------------------------------------------------------------


@dataclass
class BasinInclusionReport:
    samples: np.ndarray
    results: list  # one MembershipResult per sample
    depth: int
    tol: float
    theta: str | None = None

    @property
    def n_samples(self) -> int:
        return len(self.results)

    @property
    def reached(self) -> int:
        return sum(r.reached for r in self.results)

    @property
    def failures(self) -> list:
        return [x.tolist() for x, r in zip(self.samples, self.results) if not r.reached]

    @property
    def fraction(self) -> float:
        return self.reached / self.n_samples if self.n_samples else 0.0


def basin_inclusion_check(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    samples: np.ndarray,
    depth: int,
    tol: float | None = None,
    theta=None,
) -> BasinInclusionReport:
    """Run membership on each sample and report the fraction reaching A.

    With theta supplied, the search is restricted to prefixes of theta
    (the continuation route); otherwise the full word tree is searched.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    tol = _tolerance(cloud, tol)
    results = [membership(ifs, cloud, x, depth, tol, theta) for x in samples]
    return BasinInclusionReport(
        samples, results, depth, tol, None if theta is None else str(theta)
    )
