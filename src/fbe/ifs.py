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
from .maps import AffineMap, MoebiusMap, from_sphere, to_sphere

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


# The most image points one step of `attractor` may make: admits triangle
# at cell 1e-3 (2,005,084) and stops expanding systems before memory does.
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
    <= depth when they number more than MAX_WORDS; counted level by level,
    so a huge depth stops early."""
    words, level = 0, 1
    for _ in range(depth + 1):
        words += level
        if words > MAX_WORDS:
            raise ResolutionError(
                f"depth {depth} over {n_maps} maps passes {MAX_WORDS} words"
            )
        level *= n_maps


def _snapped_step(ifs: IfsSystem, pts: np.ndarray, cell: float) -> np.ndarray:
    """S(X) = grid_dedup(F(X), cell), refused past MAX_IMAGE_POINTS images."""
    rows = ifs.n_maps * pts.shape[0]
    if rows > MAX_IMAGE_POINTS:
        raise ResolutionError(
            f"a step would make {rows} points, cap {MAX_IMAGE_POINTS}, cell {cell:g}"
        )
    return grid_dedup(ifs.images(pts), cell)


def attractor(ifs: IfsSystem, cell: float = 1e-3) -> AttractorCloud:
    """Iterate S(X) = grid_dedup(F(X), cell) from the maps' attracting fixed
    points until a set repeats; return the union U of the cycle, so that
    S(U) = U exactly.

    S maps a finite grid into itself, so the orbit ends in a fixed point or
    a cycle (Dubuc & Elqortobi 1990). A repeat is found by sha256 and
    confirmed by exact comparison. Snapping moves a point by at most
    delta = cell*sqrt(d)/2 <= cell (d <= 4), so with Lip(F) <= lam,
    H(U, A) <= H(S(U), F(U)) + H(F(U), F(A)) <= delta + lam * H(U, A)
    and epsilon = cell/(1 - lam) bounds H(U, A). Raises DomainError for a
    cell that is not a finite positive number and for a map with no
    attracting fixed point, NoConvergenceError, carrying H(last, previous),
    if no set repeats within MAX_STEPS steps, and ResolutionError if a step
    would make more than MAX_IMAGE_POINTS points.
    """
    if not 0.0 < cell < np.inf:
        raise DomainError(f"cell must be a finite positive number, got {cell!r}")
    pts = grid_dedup(ifs.fixed_points(), cell)
    seen: dict[bytes, int] = {}
    prev, sizes = None, []
    while True:
        steps = len(sizes)
        period = steps - seen.setdefault(hashlib.sha256(pts).digest(), steps)
        if period == 1 and np.array_equal(pts, prev):
            break
        if period > 1:
            cycle = [pts]
            for _ in range(period):
                cycle.append(_snapped_step(ifs, cycle[-1], cell))
                sizes.append(len(cycle[-1]))
            prev, pts = cycle[-2:]
            if np.array_equal(pts, cycle[0]):
                pts = grid_dedup(np.concatenate(cycle[:-1]), cell)
                break
        elif steps == MAX_STEPS:
            residual = np.inf if prev is None else hausdorff_distance(pts, prev)
            raise NoConvergenceError(
                f"no repeated set after {steps} iterations (residual {residual:.3g})",
                residual=residual,
            )
        else:
            prev = pts  # the older set is freed before the step, not after it
            pts = _snapped_step(ifs, prev, cell)
            sizes.append(len(pts))
    meta = {
        "method": "hutchinson",
        "depth": len(sizes),
        "cell": cell,
        "cycle": period,
        "sizes": sizes,
    }
    return _resolved_cloud(ifs, pts, cell, meta)


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
    queried. The first direction queries the tree of out with the other
    rows, map by map, then with the twins that fail the bound; the second
    queries the tree of imgs with out[0] and the rows that fail it. The
    result is the same float as hausdorff_distance.
    """
    n = out.shape[0]
    twins = (digits - 1) * n + np.arange(n - 1)
    u = np.linalg.norm(out[1:] - imgs[twins], axis=1)
    tree = cKDTree(out)
    # map by map, so that no copy of two thirds of imgs is made at once
    nxt = np.append(digits, 0)  # the images of out[n - 1] have no twin
    h, first = 0.0, 0
    for i in range(imgs.shape[0] // n):
        others = imgs[i * n : (i + 1) * n][nxt != i + 1]
        h = max(h, tree.query(others, workers=-1)[0].max())
        first += len(others)
    far = twins[~(u <= h / 2)]
    if far.size:
        h = max(h, tree.query(imgs[far], workers=-1)[0].max())
    del tree, twins  # freed before the second tree is built
    rows = np.concatenate([[0], np.flatnonzero(~(u <= h / 2)) + 1])
    d = cKDTree(imgs).query(out[rows], workers=-1)[0].max()
    return float(max(h, d)), [first + far.size, rows.size]


def chaos_game(
    ifs: IfsSystem,
    n: int,
    burn_in: int = 64,
    rng_seed: int = 0,
) -> AttractorCloud:
    """Random-orbit cloud; deterministic for a given seed (PCG64)."""
    if not 0 <= burn_in < n:
        raise DomainError(f"need 0 <= burn_in < n, got burn_in={burn_in}, n={n}")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    digits = rng.integers(1, ifs.n_maps + 1, size=n)
    x = ifs.fixed_points()[0]
    if ifs.is_sphere:
        # the orbit stays in the plane; one to_sphere call embeds it
        zs = np.empty(n, dtype=complex)
        z = from_sphere(x[None, :])
        for k, d in enumerate(digits):
            z = ifs.maps[d - 1].apply_complex(z)
            zs[k] = z[0]
        out = to_sphere(zs[burn_in:])
    else:
        # the same matmul and add per step as A @ x + b, with no temporaries
        mats = [m.matrix for m in ifs.maps]
        offs = [m.offset for m in ifs.maps]
        orbit, buf = np.empty((n, ifs.dim)), np.empty(ifs.dim)
        for k, d in enumerate(digits.tolist()):
            np.matmul(mats[d - 1], x, out=buf)
            x = np.add(buf, offs[d - 1], out=orbit[k])
        out = orbit[burn_in:]
    residual, queried = _orbit_residual(ifs.images(out), out, digits[burn_in + 1 :])
    meta = {
        "method": "chaos",
        "n": n,
        "burn_in": burn_in,
        "rng": "PCG64",
        "rng_seed": rng_seed,
        "residual": residual,
        "queried": queried,
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


@dataclass
class SemiconjugacyReport:
    n_samples: int
    n_checks: int
    max_residual: float
    tol: float
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


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
    ifs: IfsSystem,
    n_samples: int = 100,
    tol: float = 1e-9,
    rng_seed: int = 0,
) -> SemiconjugacyReport:
    """Check d(pi(sigma_n(addr)), f_n(pi(addr))) <= tol on random addresses.

    All n in the signed alphabet are exercised; residuals are measured in
    the system's metric (chordal on the sphere).
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    failures = []
    max_res = 0.0
    checks = 0
    for _ in range(n_samples):
        addr = random_address(rng, ifs.n_maps)
        pi_addr = coding_map(ifs, addr)
        for n in [d for d in range(-ifs.n_maps, ifs.n_maps + 1) if d != 0]:
            lhs = coding_map(ifs, sigma(n, addr))
            rhs = ifs.transform(n, pi_addr[None, :])[0]
            res = float(np.linalg.norm(lhs - rhs))
            checks += 1
            max_res = max(max_res, res)
            if res > tol:
                failures.append({"addr": str(addr), "n": n, "residual": res})
    return SemiconjugacyReport(
        n_samples=n_samples,
        n_checks=checks,
        max_residual=max_res,
        tol=tol,
        failures=failures,
    )
