"""The branched fractal manifold: quotient points, the panicle-constrained
path metric, shift actions, leaves, and branch points.

A manifold point is the pair (theta, x): a finite all-negative integer
part and a fractional point of the attractor. The manifold itself is
never materialised; the pair decides the equivalence class.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .addresses import Address, validate
from .errors import (
    AmbiguousMembershipError,
    DomainError,
    EmptyLeafError,
)
from .ifs import AttractorCloud, IfsSystem, check_word_tree, coding_map

Word = tuple[int, ...]

# Leaf index: per cloud, and per (system hash, map i), the KD-tree of
# f_i(cloud) and the mask of cloud points farther than tau from it, i.e.
# the cloud's share of A minus f_i(A). Entries live as long as their cloud.
_LEAF_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _leaf_index(
    ifs: IfsSystem, cloud: AttractorCloud, i: int
) -> tuple[cKDTree, np.ndarray]:
    """KD-tree of f_i(cloud) and the mask of cloud points outside f_i(A)."""
    entries = _LEAF_INDEX.setdefault(cloud, {})
    key = (ifs.ifs_hash(), i)
    if key not in entries:
        tree = cKDTree(ifs.transform(i, cloud.points))
        # bounded at 2 tau: a distance in (tau, 2 tau] reads as itself or
        # as inf, and either is > tau
        d = tree.query(cloud.points, distance_upper_bound=2 * cloud.tau)[0]
        entries[key] = (tree, d > cloud.tau)
    return entries[key]


def _on_cloud(cloud: AttractorCloud, v: np.ndarray, what: str) -> bool:
    """Whether v lies within tau of the cloud. A distance in the
    (tau, 2*tau] annulus is refused as ambiguous rather than guessed, since
    the class genuinely changes across the attractor boundary."""
    d = cloud.dist_point(v)
    if cloud.tau < d <= 2 * cloud.tau:
        raise AmbiguousMembershipError(
            f"{what} at distance {d:.3g} from the cloud (tau={cloud.tau:.3g}): "
            "membership is ambiguous at this resolution"
        )
    return d <= cloud.tau


@dataclass(eq=False)
class ManifoldPoint:
    theta: Word
    x: np.ndarray
    proj: np.ndarray

    def __repr__(self):
        theta = ".".join(str(d) for d in self.theta) or "()"
        return f"ManifoldPoint(theta={theta}, x={np.round(self.x, 6)})"


def manifold_point(
    ifs: IfsSystem, cloud: AttractorCloud, theta, x
) -> ManifoldPoint:
    """Validated constructor: x in A, and outside f_i(A) when theta ends in -i."""
    theta = tuple(int(d) for d in theta)
    if any(d >= 0 for d in theta):
        raise DomainError("integer part must be a word over the negative digits")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (ifs.dim,):
        raise DomainError(f"fractional point has {x.size} coordinates, not {ifs.dim}")
    if cloud.dist_point(x) > cloud.tau:
        raise DomainError("fractional point is not on the attractor cloud")
    if theta:
        tree, _ = _leaf_index(ifs, cloud, -theta[-1])
        if float(tree.query(x)[0]) <= cloud.tau:
            raise DomainError(
                "fractional point lies in f_i(A): not a leaf representative"
            )
    return ManifoldPoint(theta=theta, x=x, proj=ifs.apply_word(theta, x)[0])


def canonicalize(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    addr: Address,
) -> ManifoldPoint:
    """Split an address into integer part and fractional projection.

    Scans for the least k with pi(S^k(addr)) on the cloud (_on_cloud).
    """
    cls = validate(addr, ifs.n_maps)
    if not addr.is_infinite or not cls.in_Ihat:
        raise DomainError(f"address {addr} is not a negatives-then-positives word")
    neg_count = 0
    while addr.digit(neg_count + 1) < 0:
        neg_count += 1
    for k in range(neg_count + 1):
        val = coding_map(ifs, addr.shifted(k))
        if _on_cloud(cloud, val, f"pi(S^{k}({addr}))"):
            theta = addr.prefix(k)
            return ManifoldPoint(
                theta=theta, x=val, proj=ifs.apply_word(theta, val)[0]
            )
    raise AmbiguousMembershipError(
        f"no suffix of {addr} landed on the cloud within tau"
    )


def common_prefix(a: ManifoldPoint | Word, b: ManifoldPoint | Word) -> Word:
    """Longest common prefix of the two integer parts."""
    ta, tb = (tuple(getattr(p, "theta", p)) for p in (a, b))
    k = 0
    while k < min(len(ta), len(tb)) and ta[k] == tb[k]:
        k += 1
    return ta[:k]


def on_one_sheet(a: ManifoldPoint | Word, b: ManifoldPoint | Word) -> bool:
    """Whether one integer part is a prefix of the other: one sheet holds both."""
    ta, tb = (tuple(getattr(p, "theta", p)) for p in (a, b))
    return ta[: len(tb)] == tb[: len(ta)]


@dataclass
class ManifoldDistance:
    d_L: float
    d_X: float
    common_prefix: Word
    error_bound: float


def distance(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    a: ManifoldPoint,
    b: ManifoldPoint,
) -> ManifoldDistance:
    """Panicle-constrained path metric between two manifold points.

    d_L minimises d(proj_a, x) + d(x, proj_b) over x in f_{[a,b]}(A), a sum
    that the triangle inequality bounds below by d_X. On one sheet d_L = d_X
    exactly, as the shorter point's projection lies in f_{[a,b]}(A). Across
    sheets the transformed cloud is scanned, within the reported error bound
    2*Lip(f_{[a,b]})*eps.
    """
    common = common_prefix(a, b)
    d_X = float(np.linalg.norm(a.proj - b.proj))
    bound = 2.0 * ifs.word_lipschitz(common) * cloud.epsilon
    if on_one_sheet(a, b):
        return ManifoldDistance(d_X, d_X, common, bound)
    pts = ifs.apply_word(common, cloud.points)
    tot = np.linalg.norm(pts - a.proj, axis=1) + np.linalg.norm(
        pts - b.proj, axis=1
    )
    return ManifoldDistance(float(tot.min()), d_X, common, bound)


def sigma_tilde(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    n: int,
    a: ManifoldPoint,
) -> ManifoldPoint:
    """Shift action on the manifold; satisfies proj(sigma_tilde_n(a)) = f_n(proj(a)).

    Negative n always acts (prepend, or fall back into the attractor);
    positive n acts when it cancels the leading integer digit or when the
    integer part is empty. Other positive shifts leave the manifold.
    """
    ifs.check_digit(n)
    if n < 0:
        new_proj = ifs.transform(n, a.proj[None, :])[0]
        if _on_cloud(cloud, new_proj, f"f_{n}(proj)"):
            return ManifoldPoint(theta=(), x=new_proj, proj=new_proj)
        return ManifoldPoint(theta=(n,) + a.theta, x=a.x, proj=new_proj)
    if not a.theta:
        new_x = ifs.transform(n, a.x[None, :])[0]
        return ManifoldPoint(theta=(), x=new_x, proj=new_x)
    if a.theta[0] == -n:
        new_proj = ifs.transform(n, a.proj[None, :])[0]
        return ManifoldPoint(theta=a.theta[1:], x=a.x, proj=new_proj)
    raise DomainError(
        f"sigma_{n} maps this point outside the manifold "
        f"(integer part starts with {a.theta[0]})"
    )


def enumerate_leaves(n_maps: int, depth: int) -> list[Word]:
    """All integer parts up to the given length, length-then-lex order."""
    check_word_tree(n_maps, depth)
    digits = [-i for i in range(1, n_maps + 1)]
    out: list[Word] = [()]
    for length in range(1, depth + 1):
        out.extend(itertools.product(digits, repeat=length))
    return out


def leaf_projection(
    ifs: IfsSystem, cloud: AttractorCloud, theta
) -> np.ndarray:
    """Points of the leaf's projection: f_theta(A minus f_i(A)), i = -theta[-1]."""
    theta = tuple(int(d) for d in theta)
    if not theta:
        return cloud.points.copy()
    if any(d >= 0 for d in theta):
        raise DomainError("leaf labels are words over the negative digits")
    i = -theta[-1]
    kept = cloud.points[_leaf_index(ifs, cloud, i)[1]]
    if kept.size == 0:
        raise EmptyLeafError(f"leaf {theta} projects to nothing (A == f_{i}(A)?)")
    return ifs.apply_word(theta, kept)


# -- branch points ---------------------------------------------------------------


def _cluster_1d_or_nd(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Greedy clustering: centres of groups of points within `radius`."""
    remaining = points.copy()
    centres = []
    while remaining.shape[0]:
        seed = remaining[0]
        mask = np.linalg.norm(remaining - seed, axis=1) <= radius
        centres.append(remaining[mask].mean(axis=0))
        remaining = remaining[~mask]
    return centres


def _gluing_points(
    ifs: IfsSystem, cloud: AttractorCloud, i: int
) -> list[np.ndarray]:
    """Points of f_i(A) that are limits of A minus f_i(A).

    Detected from the cloud at tolerance tau, clustered, and each cluster
    centre replaced by the nearest pi(i.(j)*) = f_i(Fix f_j), j != i, within
    4*tau. On nested fractals the pieces f_i(A) meet only at such images of
    the fixed points, so there the gluing points are exact up to float
    rounding. Elsewhere a gluing point is only as good as the cloud: pieces
    that overlap or share edges (triangle, quadratic_graph) do not meet in
    finitely many junctions, so a junction stands for a longer contact, and
    a cluster with no junction within 4*tau keeps its centre.
    """
    tau = cloud.tau
    outside = _leaf_index(ifs, cloud, i)[1]
    inside = cloud.points[~outside]
    # bounded at 4 tau, clear of the 2 tau cut; a distance past the bound
    # and an empty tree both answer inf, which leaves no candidate
    d_far = cKDTree(cloud.points[outside]).query(inside, distance_upper_bound=4 * tau)[0]
    cand = inside[d_far <= 2 * tau]
    if cand.shape[0] == 0:
        return []
    junctions = ifs.transform(i, np.delete(ifs.fixed_points(), i - 1, axis=0))
    out = []
    for centre in _cluster_1d_or_nd(cand, 8 * tau):
        q = min(junctions, key=lambda q: np.linalg.norm(q - centre), default=centre)
        out.append(q if np.linalg.norm(q - centre) <= 4 * tau else centre)
    return out


def branch_points(
    ifs: IfsSystem,
    cloud: AttractorCloud,
    depth: int,
) -> list[tuple[ManifoldPoint, int]]:
    """Detect branch points from leaf-closure gluings up to `depth`.

    Candidates are the gluing points of consecutive leaf closures along
    each map's own inverse-iterate chain (the overline(-j) panicles);
    the incidence count is the number of chain-compatible leaf closures
    within 2*tau of the point. A candidate with fewer than two incident
    leaves, or within 2*tau of a point already kept, is dropped. Systems
    whose first-level images are separated (empty gluing sets) have no
    branch points.
    """
    tol = 2 * cloud.tau
    leaves = enumerate_leaves(ifs.n_maps, depth)  # refuses depth < 0
    if depth < 1:
        return []
    glue = {i: _gluing_points(ifs, cloud, i) for i in range(1, ifs.n_maps + 1)}
    if all(not g for g in glue.values()):
        return []

    # leaves[0] is (), whose closure is the cloud
    closure_trees = {(): cKDTree(cloud.points)}
    for phi in leaves[1:]:
        i = -phi[-1]
        base = np.vstack([cloud.points[_leaf_index(ifs, cloud, i)[1]], *glue[i]])
        closure_trees[phi] = cKDTree(ifs.apply_word(phi, base))

    results: list[tuple[ManifoldPoint, int]] = []
    for j in range(1, ifs.n_maps + 1):
        for g in glue[j]:
            # the unwinding f_j^-m(g), m = 0..depth, one map at a time
            unwound = [np.asarray(g, dtype=float)]
            for _ in range(depth):
                unwound.append(ifs.transform(-j, unwound[-1][None, :])[0])
            on_cloud = [cloud.dist_point(u) <= cloud.tau for u in unwound]
            for k in range(1, depth + 1):
                b = unwound[k]
                if any(np.linalg.norm(mp.proj - b) <= tol for mp, _ in results):
                    continue  # a point already kept stands for b
                # canonical class of the gluing point: trim (-j)^k to the
                # largest m <= k whose unwinding sits on the cloud
                m = max((i for i in range(k + 1) if on_cloud[i]), default=0)
                cls_theta, x = ((-j),) * (k - m), unwound[m]
                incidence = sum(
                    1
                    for phi in leaves
                    if on_one_sheet(cls_theta, phi)
                    and float(closure_trees[phi].query(b[None, :])[0][0]) <= tol
                )
                if incidence >= 2:
                    point = ManifoldPoint(theta=cls_theta, x=x, proj=b)
                    results.append((point, incidence))
    results.sort(key=lambda t: tuple(np.round(t[0].proj, 9)))
    return results
