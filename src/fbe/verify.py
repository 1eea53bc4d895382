"""The `verify` suite: mechanical checks of the library's structural
guarantees on a given system, with one pass/fail line per check."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .addresses import Address
from .basin import (
    fast_basin_raster,
    finite_continuation,
    membership,
    raster_from_continuations,
)
from .errors import DomainError, EmptyLeafError
from .ifs import (
    AttractorCloud,
    IfsSystem,
    _max_nearest,
    attractor,
    coding_map,
    hausdorff_distance,
    verify_semiconjugacy,
)
from .manifold import (
    _leaf_index,
    distance as manifold_distance,
    enumerate_leaves,
    leaf_projection,
    manifold_point,
    on_one_sheet,
)
from .maps import row_distances, to_sphere


@dataclass
class VerifyCheck:
    name: str
    tag: str
    status: str  # "pass" | "fail" | "skip"
    residual: float
    tolerance: float
    runtime: float


@dataclass
class VerifyReport:
    system: str
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(
                f"[{c.status.upper():4s}] {c.name:32s} residual={c.residual:.3e} "
                f"tol={c.tolerance:.3e} ({c.runtime * 1e3:.0f} ms)"
            )
        out.append("verify: " + ("all checks passed" if self.passed else "FAILURES"))
        return out


def _timed(report, name, tag, tolerance, fn):
    """Run one check: its residual is the largest of the values `fn` returns
    (a number, a list or an array), at least 0; a NaN among them fails."""
    t0 = time.perf_counter()
    try:
        residual = float(np.max(np.asarray(fn(), dtype=float), initial=0.0))
        status = "pass" if residual <= tolerance else "fail"
    except NotImplementedError:
        residual, status = 0.0, "skip"
    report.checks.append(
        VerifyCheck(name, tag, status, residual, tolerance, time.perf_counter() - t0)
    )


def _random_manifold_points(ifs, cloud, rng, n):
    pts = []
    guard = 0
    while len(pts) < n and guard < 50 * n:
        guard += 1
        k = int(rng.integers(0, 4))
        theta = tuple(-int(rng.integers(1, ifs.n_maps + 1)) for _ in range(k))
        x = cloud.points[int(rng.integers(0, cloud.points.shape[0]))]
        try:
            pts.append(manifold_point(ifs, cloud, theta, x))
        except DomainError:
            continue
    return pts


def run_verify(
    ifs: IfsSystem,
    cloud: AttractorCloud | None = None,
    cell: float = 1e-3,
    system_name: str = "ifs",
    rng_seed: int = 7,
) -> VerifyReport:
    report = VerifyReport(system=system_name)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    if cloud is None:
        cloud = attractor(ifs, cell)
    eps, tau = cloud.epsilon, cloud.tau

    def invariance():
        return hausdorff_distance(ifs.images(cloud.points), cloud.points)

    _timed(report, "attractor-invariance", "set-invariance", 2 * eps, invariance)

    def fixed_points():
        # against f_n itself: ifs.fixed_points() runs the coding map's solver
        pis = {n: coding_map(ifs, Address((), (n,))) for n in range(1, ifs.n_maps + 1)}
        return [np.linalg.norm(ifs.transform(n, pi) - pi) for n, pi in pis.items()]

    _timed(report, "coding-fixed-points", "coding-map", 1e-8, fixed_points)

    semi_tol = 1e-9 if not ifs.is_sphere else 1e-7
    _timed(
        report,
        "semiconjugacy",
        "shift-diagram",
        semi_tol,
        lambda: verify_semiconjugacy(ifs, 60, rng_seed),
    )

    def nesting():
        # the set nesting B_{w|k-1} in B_w is exact; at cloud level the
        # discretisation error is expanded by the composed inverse maps, so
        # the bound scales with their Lipschitz factor. The gap depends on
        # the prefix w = theta|k alone, so each distinct prefix is measured once
        thetas = [
            tuple(int(rng.integers(1, ifs.n_maps + 1)) for _ in range(4))
            for _ in range(12)
        ]
        # near[j - 1, c] is the cloud point nearest to f_j(c); for w ending
        # in j, row c of B_{w|k-1} and row near[j - 1, c] of B_w are the
        # images of f_j(c) and of that point under f_w^{-1} o f_j, so their
        # distance bounds row c's gap (the README's Lip * H(f_j(C), C) row
        # by row), and only rows above the largest gap found are queried
        near = cloud.tree.query(ifs.images(cloud.points), workers=-1)[1]
        near = near.reshape(ifs.n_maps, -1)
        gaps = []
        for w in sorted({theta[:k] for theta in thetas for k in range(1, 4)}):
            outer = finite_continuation(ifs, cloud, w, len(w))
            inner = finite_continuation(ifs, cloud, w, len(w) - 1)
            lip = ifs.word_lipschitz(tuple(-d for d in w))
            bound = row_distances(inner, np.take(outer, near[w[-1] - 1], axis=0))
            gaps.append(_max_nearest(inner, outer, bound) / max(lip, 1.0))
        return gaps

    _timed(report, "continuation-nesting", "nested-union", tau, nesting)

    # the word-tree raster that union-equivalence draws, for raster-membership
    shared = {}

    def union_equiv():
        lo, hi = cloud.bounding_box()
        pad = 0.35 * float(np.max(hi - lo)) + tau
        if ifs.space == "sphere":
            region = (-2.5, -2.5, 2.5, 2.5)
            nx = ny = min(128, max(16, int(5.0 / tau)))
        elif ifs.dim == 1:
            region = (float(lo[0] - pad * 4), float(hi[0] + pad * 4))
            nx, ny = min(512, max(16, int((region[1] - region[0]) / tau))), 1
        else:
            region = (
                float(lo[0] - pad * 2),
                float(lo[1] - pad * 2),
                float(hi[0] + pad * 2),
                float(hi[1] + pad * 2),
            )
            nx = ny = min(128, max(16, int((region[2] - region[0]) / tau)))
        with warnings.catch_warnings():
            # equality of the two traversals is well-defined even in the
            # tolerance-dominated regime
            warnings.simplefilter("ignore")
            a = fast_basin_raster(ifs, cloud, region, nx, ny, depth=2)
            b = raster_from_continuations(ifs, cloud, region, nx, ny, depth=2)
        shared["raster"] = a
        return np.sum(a.depth != b.depth)

    _timed(report, "union-equivalence", "continuation-union", 0.0, union_equiv)

    def raster_membership():
        if ifs.space == "R4":
            # the raster is a projection to two coordinates: its cell
            # centres are not points of the space
            raise NotImplementedError
        ras = shared["raster"]
        rdim = ras.lo.shape[0]
        widths = (ras.hi - ras.lo) / np.array([ras.nx, ras.ny][:rdim])
        wmax = float(widths.max())
        # a hit cell's witness point can sit in the far corner of the cell
        # inflated by tau: centre distance <= sqrt(dim) * (w/2 + tau);
        # sphere rasters live in plane coordinates, where the chordal
        # metric is smaller by at most a factor of 2
        tol = max(2 * wmax, np.sqrt(rdim) * (wmax / 2 + tau) + cloud.epsilon)
        if ifs.is_sphere:
            tol = max(2 * tol, tau)
        ys, xs = np.nonzero(ras.hit)
        idx = rng.choice(len(ys), size=min(25, len(ys)), replace=False)
        bad = 0
        for j in idx:
            centre = ras.lo + (np.array([xs[j], ys[j]])[:rdim] + 0.5) * widths
            if ifs.is_sphere:
                centre = to_sphere(np.array([complex(centre[0], centre[1])]))[0]
            res = membership(ifs, cloud, centre, depth=int(ras.depth[ys[j], xs[j]]), tol=tol)
            if not res.reached:
                bad += 1
        return bad

    _timed(report, "raster-membership-agreement", "membership", 0.0, raster_membership)

    def manifold_triangle():
        pts = _random_manifold_points(ifs, cloud, rng, 60)
        excess = []
        for _ in range(40):
            a, b, c = (pts[int(rng.integers(0, len(pts)))] for _ in range(3))
            dab = manifold_distance(ifs, cloud, a, b)
            dac = manifold_distance(ifs, cloud, a, c)
            dcb = manifold_distance(ifs, cloud, c, b)
            slack = 2 * max(dab.error_bound, dac.error_bound, dcb.error_bound)
            excess.append(dab.d_L - dac.d_L - dcb.d_L - slack)
        return excess

    _timed(report, "manifold-triangle", "path-metric", 0.0, manifold_triangle)

    def same_sheet():
        pts = _random_manifold_points(ifs, cloud, rng, 40)
        excess = []
        # the distance and the residual are symmetric in (a, b) bit for bit
        for i, a in enumerate(pts):
            for b in pts[i:]:
                if on_one_sheet(a, b):
                    d = manifold_distance(ifs, cloud, a, b)
                    excess.append(abs(d.d_L - d.d_X) - 2 * d.error_bound)
        return excess

    _timed(report, "same-sheet-isometry", "sheet-isometry", 0.0, same_sheet)

    def projection_contraction():
        pts = _random_manifold_points(ifs, cloud, rng, 40)
        excess = []
        for _ in range(60):
            a = pts[int(rng.integers(0, len(pts)))]
            b = pts[int(rng.integers(0, len(pts)))]
            d = manifold_distance(ifs, cloud, a, b)
            excess.append(d.d_X - d.d_L - 2 * d.error_bound)
        return excess

    _timed(
        report, "projection-contraction", "projection-bound", 0.0, projection_contraction
    )

    def leaf_shapes():
        # pulled back by f_theta^{-1}, a leaf projection is the leaf set of
        # its last digit (A itself for theta = ()) row for row; a row that
        # drifts beyond 3 eps makes theta a shape of its own
        shapes = set()
        for theta in enumerate_leaves(ifs.n_maps, 2):
            try:
                pts = leaf_projection(ifs, cloud, theta)
            except EmptyLeafError:
                continue
            back = ifs.apply_word(tuple(-d for d in reversed(theta)), pts)
            base = cloud.points
            if theta:
                base = base[_leaf_index(ifs, cloud, -theta[-1])[1]]
            drift = float(row_distances(back, base).max())
            shapes.add(theta[-1:] if drift <= 3 * eps else theta)
        return len(shapes) - (ifs.n_maps + 1)

    _timed(report, "leaf-shape-count", "leaf-classification", 0.0, leaf_shapes)

    return report
