import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

import fbe.ifs
import fbe.manifold
import fbe.verify
from fbe import attractor, systems
from fbe.addresses import Address, parse_address
from fbe.basin import fast_basin_raster
from fbe.errors import AmbiguousMembershipError, DomainError, ResolutionError
from fbe.ifs import AttractorCloud, IfsSystem, coding_map, hausdorff_distance
from fbe.manifold import (
    ManifoldPoint,
    branch_points,
    canonicalize,
    common_prefix,
    distance,
    enumerate_leaves,
    leaf_projection,
    manifold_point,
    on_one_sheet,
    sigma_tilde,
)
from fbe.maps import AffineMap
from fbe.verify import _random_manifold_points, run_verify

from oracles import cantor_distance, nesting_gaps

A = parse_address


def _random_points(ifs, cloud, rng, n, max_theta=3):
    pts = []
    while len(pts) < n:
        k = int(rng.integers(0, max_theta + 1))
        theta = tuple(-int(rng.integers(1, ifs.n_maps + 1)) for _ in range(k))
        x = cloud.points[int(rng.integers(0, cloud.points.shape[0]))]
        try:
            pts.append(manifold_point(ifs, cloud, theta, x))
        except DomainError:
            continue
    return pts


# -- canonicalize -------------------------------------------------------------------


def test_canonicalize_triple_negative(interval_ifs, interval_cloud_fine):
    mp = canonicalize(interval_ifs, interval_cloud_fine, A("-1.-1.-1.(2)*"))
    assert mp.theta == (-1, -1, -1)
    assert mp.x == pytest.approx([1.0], abs=1e-9)
    assert mp.proj == pytest.approx([8.0], abs=1e-8)


def test_canonicalize_collapses_to_empty(interval_ifs, interval_cloud_fine):
    mp = canonicalize(interval_ifs, interval_cloud_fine, A("-1.-1.-2.1.(2)*"))
    assert mp.theta == ()
    assert mp.x == pytest.approx([0.0], abs=1e-9)


def test_canonicalize_positive_word(interval_ifs, interval_cloud_fine):
    mp = canonicalize(interval_ifs, interval_cloud_fine, A("(2)*"))
    assert mp.theta == ()
    assert mp.x == pytest.approx([1.0], abs=1e-9)


def test_canonicalize_domain_error(interval_ifs, interval_cloud_fine):
    with pytest.raises(DomainError):
        canonicalize(interval_ifs, interval_cloud_fine, A("1.-1.(2)*"))  # not in I
    with pytest.raises(DomainError):
        canonicalize(interval_ifs, interval_cloud_fine, A("2.-1.(2)*"))  # pos then neg


def test_canonicalize_ambiguous_band(interval_ifs):
    # Coarse two-point cloud: pi(S^0) = 2 lands in the (tau, 2*tau] annulus.
    coarse = AttractorCloud(np.array([[0.0], [1.0]]), 0.25, {})
    with pytest.raises(AmbiguousMembershipError):
        canonicalize(interval_ifs, coarse, A("-1.(2)*"))


# -- common prefix -----------------------------------------------------------------


def test_common_prefix_examples():
    assert common_prefix((-1,), (-2, -1)) == ()
    assert common_prefix((-1, -2), (-1, -2)) == (-1, -2)
    assert common_prefix((-1, -2), (-1, -1)) == (-1,)


def test_on_one_sheet_examples(interval_ifs, interval_cloud_fine):
    assert on_one_sheet((), (-2, -1))
    assert on_one_sheet((-1, -2), (-1,))
    assert on_one_sheet((-1, -2), (-1, -2))
    assert not on_one_sheet((-1,), (-2, -1))
    assert not on_one_sheet((-1, -2), (-1, -1))
    a = manifold_point(interval_ifs, interval_cloud_fine, (-1,), [0.75])
    b = manifold_point(interval_ifs, interval_cloud_fine, (-2, -1), [0.625])
    assert on_one_sheet(a, (-1, -2)) and not on_one_sheet(a, b)


# -- distance ----------------------------------------------------------------------


def test_distance_same_sheet(
    interval_ifs, interval_cloud_fine, sierpinski_ifs, sierpinski_cloud, rng
):
    # on one sheet the path metric is the distance of the projections
    cloud = interval_cloud_fine
    for _ in range(20):
        pts = _random_points(interval_ifs, cloud, rng, 2, max_theta=2)
        a = pts[0]
        b_theta = a.theta + tuple(
            -int(rng.integers(1, 3)) for _ in range(int(rng.integers(0, 2)))
        )
        try:
            b = manifold_point(interval_ifs, cloud, b_theta, pts[1].x)
        except DomainError:
            continue
        d = distance(interval_ifs, cloud, a, b)
        assert d.d_L == d.d_X
    # (1, 0) is on the gasket but 0.0055 from the nearest cloud point, so a
    # scan of the transformed cloud would read d_L - d_X = 0.011
    a = manifold_point(sierpinski_ifs, sierpinski_cloud, (-1,), [1.0, 0.0])
    b = manifold_point(sierpinski_ifs, sierpinski_cloud, (-1, -3), [1.0, 0.0])
    d = distance(sierpinski_ifs, sierpinski_cloud, a, b)
    assert d.d_L == d.d_X == np.hypot(2.0, 2.0)
    assert d.common_prefix == (-1,)


@pytest.mark.parametrize("name, cell", [("sierpinski", 2.0**-7), ("mobius_arc", 0.002)])
def test_distance_error_bound_is_verify_slack(name, cell):
    # verify's metric checks take 2 * error_bound as their slack; it equals
    # 4 * Lip(f_common) * eps bit for bit, as a power-of-two factor is exact
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    rng = np.random.Generator(np.random.PCG64(5))
    pts = _random_manifold_points(ifs, cloud, rng, 30)
    for a in pts:
        for b in pts:
            d = distance(ifs, cloud, a, b)
            lip = ifs.word_lipschitz(d.common_prefix)
            assert 2 * d.error_bound == 4 * lip * cloud.epsilon


def test_distance_branch_pair(interval_ifs, interval_cloud_fine):
    a = manifold_point(interval_ifs, interval_cloud_fine, (-1,), [0.75])
    b = manifold_point(interval_ifs, interval_cloud_fine, (-2, -1), [0.625])
    d = distance(interval_ifs, interval_cloud_fine, a, b)
    assert d.d_X == pytest.approx(0.0, abs=1e-12)
    assert d.d_L == pytest.approx(1.0, abs=1e-3)
    assert d.common_prefix == ()


def test_distance_identical_point(interval_ifs, interval_cloud_fine):
    a = manifold_point(interval_ifs, interval_cloud_fine, (-1,), [0.75])
    d = distance(interval_ifs, interval_cloud_fine, a, a)
    assert d.d_L == 0.0


def test_distance_metric_axioms(interval_ifs, interval_cloud, cantor_ifs, cantor_cloud, rng):
    for ifs, cloud in ((interval_ifs, interval_cloud), (cantor_ifs, cantor_cloud)):
        pts = _random_points(ifs, cloud, rng, 25)
        for _ in range(150):
            a, b, c = (pts[int(rng.integers(0, len(pts)))] for _ in range(3))
            dab = distance(ifs, cloud, a, b)
            dba = distance(ifs, cloud, b, a)
            assert dab.d_L == pytest.approx(dba.d_L, abs=1e-12)
            assert dab.d_L >= 0
            dac = distance(ifs, cloud, a, c)
            dcb = distance(ifs, cloud, c, b)
            lip = max(
                ifs.word_lipschitz(dab.common_prefix),
                ifs.word_lipschitz(dac.common_prefix),
                ifs.word_lipschitz(dcb.common_prefix),
            )
            assert dab.d_L <= dac.d_L + dcb.d_L + 4 * lip * cloud.epsilon
            # projection contraction
            assert dab.d_X <= dab.d_L + 4 * lip * cloud.epsilon


# -- sigma_tilde --------------------------------------------------------------------


def test_sigma_tilde_examples(interval_ifs, interval_cloud_fine):
    cloud = interval_cloud_fine
    p = manifold_point(interval_ifs, cloud, (), [1.0])
    s = sigma_tilde(interval_ifs, cloud, -1, p)
    assert s.theta == (-1,) and s.proj == pytest.approx([2.0])
    back = sigma_tilde(interval_ifs, cloud, 1, s)
    assert back.theta == () and back.proj == pytest.approx([1.0])


def test_sigma_tilde_cancel_into_attractor(interval_ifs, interval_cloud_fine):
    # f_2^{-1}(proj) lands back on A: the integer part stays empty
    p = manifold_point(interval_ifs, interval_cloud_fine, (), [1.0])
    s = sigma_tilde(interval_ifs, interval_cloud_fine, -2, p)
    assert s.theta == () and s.proj == pytest.approx([1.0])


def test_sigma_tilde_commutes(interval_ifs, interval_cloud_fine, rng):
    cloud = interval_cloud_fine
    pts = _random_points(interval_ifs, cloud, rng, 20)
    worst = 0.0
    for p in pts:
        for n in (-2, -1, 1, 2):
            try:
                s = sigma_tilde(interval_ifs, cloud, n, p)
            except (DomainError, AmbiguousMembershipError):
                continue
            rhs = interval_ifs.transform(n, p.proj[None, :])[0]
            worst = max(worst, float(np.linalg.norm(s.proj - rhs)))
    assert worst <= 1e-9


def test_sigma_tilde_leaves_manifold(interval_ifs, interval_cloud_fine):
    p = manifold_point(interval_ifs, interval_cloud_fine, (-1,), [0.75])
    with pytest.raises(DomainError):
        sigma_tilde(interval_ifs, interval_cloud_fine, 2, p)


def test_sigma_tilde_cantor_round_trip(cantor_ifs, cantor_cloud, rng):
    pts = _random_points(cantor_ifs, cantor_cloud, rng, 10)
    for p in pts:
        for n in (-1, -2):
            try:
                s = sigma_tilde(cantor_ifs, cantor_cloud, n, p)
                back = sigma_tilde(cantor_ifs, cantor_cloud, -n, s)
            except AmbiguousMembershipError:
                continue
            assert back.theta == p.theta
            assert np.linalg.norm(back.proj - p.proj) <= 1e-9


# -- leaves -------------------------------------------------------------------------


def test_enumerate_leaves_counts():
    assert enumerate_leaves(2, 2) == [
        (),
        (-1,),
        (-2,),
        (-1, -1),
        (-1, -2),
        (-2, -1),
        (-2, -2),
    ]
    assert enumerate_leaves(2, 0) == [()]
    assert len(enumerate_leaves(3, 2)) == 13
    # (3^26 - 1) / 2 labels are refused on the count, before the first
    with pytest.raises(ResolutionError):
        enumerate_leaves(3, 25)


def test_leaf_projection_interval(interval_ifs, interval_cloud):
    pts = leaf_projection(interval_ifs, interval_cloud, (-1,))
    tau = interval_cloud.tau
    assert pts.min() >= 1.0 - 2 * tau
    assert pts.max() <= 2.0 + 2 * tau
    assert pts.max() >= 2.0 - 2 * tau
    full = leaf_projection(interval_ifs, interval_cloud, ())
    assert np.array_equal(full, interval_cloud.points)


def test_leaf_projection_cantor_oracle(cantor_ifs, cantor_cloud):
    pts = leaf_projection(cantor_ifs, cantor_cloud, (-2,))
    # C - 2 holds the image: exact ternary distances stay within tolerance
    for v in pts[::16, 0]:
        assert float(cantor_distance(Fraction(float(v + 2.0)).limit_denominator(10**10))) <= 2 * cantor_cloud.tau


def test_leaf_partition_unique_assignment(interval_ifs, interval_cloud, rng):
    # a manifold point belongs to exactly one leaf: its own integer part
    pts = _random_points(interval_ifs, interval_cloud, rng, 15)
    leaves = enumerate_leaves(2, 3)
    for p in pts:
        owners = []
        for theta in leaves:
            if len(theta) != len(p.theta):
                continue
            if theta == p.theta:
                owners.append(theta)
        assert owners == [p.theta]


def test_panicle_image(interval_ifs, interval_cloud):
    theta = (-1, -2)
    union = []
    for k in range(len(theta) + 1):
        union.append(leaf_projection(interval_ifs, interval_cloud, theta[:k]))
    union = np.vstack(union)
    target = interval_ifs.apply_word(theta, interval_cloud.points)
    assert hausdorff_distance(union, target) <= 2 * interval_cloud.tau


def test_leaf_union_covers_fast_basin(interval_ifs, interval_cloud):
    # union of leaf projections at |theta| <= D vs the depth-D inverse images:
    # identical as sets up to the tolerance band removed at leaf boundaries
    depth = 2
    ifs, cloud = interval_ifs, interval_cloud
    leaf_union = np.vstack(
        [leaf_projection(ifs, cloud, theta) for theta in enumerate_leaves(2, depth)]
    )
    import itertools

    full_union = [cloud.points]
    for k in range(1, depth + 1):
        for w in itertools.product((-1, -2), repeat=k):
            full_union.append(ifs.apply_word(w, cloud.points))
    full_union = np.vstack(full_union)
    # leaf projections are genuine fast-basin points...
    assert cKDTree(full_union).query(leaf_union)[0].max() <= 1e-12
    # ...and cover it within the inflated tolerance band
    lip = 2.0**depth
    bound = lip * (cloud.tau + cloud.epsilon)
    assert cKDTree(leaf_union).query(full_union)[0].max() <= bound


def test_leaf_union_cells_subset_of_raster(interval_ifs, interval_cloud):
    depth, nx = 2, 128
    region = (-4.0, 4.0)
    ras = fast_basin_raster(interval_ifs, interval_cloud, region, nx, 1, depth=depth)
    pts = np.vstack(
        [
            leaf_projection(interval_ifs, interval_cloud, theta)
            for theta in enumerate_leaves(2, depth)
        ]
    )
    width = (region[1] - region[0]) / nx
    idx = np.floor((pts[:, 0] - region[0]) / width).astype(int)
    idx = idx[(idx >= 0) & (idx < nx)]
    assert ras.hit[0][idx].all()


def test_leaf_shape_count(interval_ifs, interval_cloud, cantor_ifs, cantor_cloud):
    for ifs, cloud in ((interval_ifs, interval_cloud), (cantor_ifs, cantor_cloud)):
        shapes = []
        for theta in enumerate_leaves(ifs.n_maps, 3):
            pts = leaf_projection(ifs, cloud, theta)
            back = ifs.apply_word(tuple(-d for d in reversed(theta)), pts)
            shapes.append(back)
        clusters = []
        for s in shapes:
            if not any(hausdorff_distance(s, c) <= 3 * cloud.epsilon for c in clusters):
                clusters.append(s)
        assert len(clusters) == 3  # A, A minus f_1(A), A minus f_2(A)


def test_verify_leaf_shape_count_sees_drift():
    # an inverse map that no longer undoes its map moves pulled-back leaf
    # shapes off their leaf sets
    ifs = systems.interval()
    cloud = attractor(ifs, 0.002)

    def leaf_check(ifs):
        report = run_verify(ifs, cloud, cell=0.002)
        return next(c for c in report.checks if c.name == "leaf-shape-count")

    assert leaf_check(ifs).status == "pass"
    inv = ifs.map_for(-1)
    shifted = AffineMap(inv.matrix, inv.offset + 0.1)
    object.__setattr__(ifs, "_inverses", (shifted,) + ifs._inverses[1:])
    check = leaf_check(ifs)
    assert check.status == "fail" and check.residual > 0


def test_verify_coding_fixed_points_sees_solver_error(monkeypatch):
    # the check reads pi((n)*) against f_n itself, so an error in the
    # fixed-point solver that the coding map calls makes it fail
    ifs = systems.interval()
    cloud = attractor(ifs, 0.002)

    def fixed_point_check():
        report = run_verify(ifs, cloud, cell=0.002)
        return next(c for c in report.checks if c.name == "coding-fixed-points")

    assert fixed_point_check().status == "pass"
    solve = AffineMap.fixed_point
    monkeypatch.setattr(AffineMap, "fixed_point", lambda m: solve(m) + 1e-3)
    check = fixed_point_check()
    assert check.status == "fail" and check.residual > 0


def _nan_coding_map(real):
    return lambda ifs, addr: real(ifs, addr) * np.nan


def _nan_d_L(real):
    return lambda *args: dataclasses.replace(real(*args), d_L=np.nan)


# The name each check reads, and a stand-in that makes its values NaN. A
# NaN must fail: max(0.0, nan) is 0.0, so a running max would drop it.
# continuation-nesting takes no plant: finite_continuation refuses a
# non-finite point, and so does cKDTree.
NAN_PLANTS = {
    "coding-fixed-points": ("fbe.verify.coding_map", _nan_coding_map(coding_map)),
    "semiconjugacy": ("fbe.ifs.coding_map", _nan_coding_map(coding_map)),
    "manifold-triangle": ("fbe.verify.manifold_distance", _nan_d_L(distance)),
    "same-sheet-isometry": ("fbe.verify.manifold_distance", _nan_d_L(distance)),
    "projection-contraction": ("fbe.verify.manifold_distance", _nan_d_L(distance)),
}


@pytest.fixture(scope="module")
def interval_cloud_coarse():
    return attractor(systems.interval(), 2.0**-6)


@pytest.mark.parametrize("name", sorted(NAN_PLANTS))
def test_verify_check_fails_on_nan(name, interval_cloud_coarse, monkeypatch):
    target, stand_in = NAN_PLANTS[name]
    monkeypatch.setattr(target, stand_in)
    report = run_verify(systems.interval(), interval_cloud_coarse, cell=2.0**-6)
    check = next(c for c in report.checks if c.name == name)
    assert check.status == "fail" and np.isnan(check.residual)


# -- leaf index ---------------------------------------------------------------------


def _count_kdtree_builds(monkeypatch, module=fbe.manifold) -> list:
    builds = []
    real = module.cKDTree

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "cKDTree", counted)
    return builds


def _fresh(cloud: AttractorCloud) -> AttractorCloud:
    """A new cloud object over the same points: its leaf index is empty."""
    return AttractorCloud(cloud.points, cloud.epsilon)


def test_leaf_index_one_tree_per_map(sierpinski_ifs, sierpinski_cloud, monkeypatch):
    cloud = _fresh(sierpinski_cloud)
    builds = _count_kdtree_builds(monkeypatch)
    for theta in enumerate_leaves(3, 3):
        leaf_projection(sierpinski_ifs, cloud, theta)
    # 39 nonempty labels end in one of the 3 digits
    assert len(builds) == 3


def test_manifold_point_reuses_leaf_index(sierpinski_ifs, sierpinski_cloud, monkeypatch):
    ifs, cloud = sierpinski_ifs, _fresh(sierpinski_cloud)
    # independent oracle for A minus f_1(A), built outside fbe.manifold
    d = cKDTree(ifs.transform(1, cloud.points)).query(cloud.points)[0]
    outside = cloud.points[d > cloud.tau]
    builds = _count_kdtree_builds(monkeypatch)
    a = manifold_point(ifs, cloud, (-1,), outside[0])
    b = manifold_point(ifs, cloud, (-2, -1), outside[-1])
    assert len(builds) == 1
    assert a.theta == (-1,) and b.theta == (-2, -1)


def test_leaf_index_keyed_by_system(interval_ifs, interval_cloud):
    # one cloud, two systems whose f_1 differ: each keeps its own mask
    swapped = IfsSystem(interval_ifs.space, interval_ifs.maps[::-1])
    cloud = _fresh(interval_cloud)
    for _ in range(2):  # the second round reads the cached entries
        # f_1 = x/2: f_1^{-1}(A minus [0, 1/2]) lies in (1, 2]
        assert leaf_projection(interval_ifs, cloud, (-1,)).min() > 1.0
        # f_1 = x/2 + 1/2: f_1^{-1}(A minus [1/2, 1]) lies in [-1, 0)
        assert leaf_projection(swapped, cloud, (-1,)).max() < 0.0
        manifold_point(interval_ifs, cloud, (-1,), [0.9])
        with pytest.raises(DomainError):
            manifold_point(swapped, cloud, (-1,), [0.9])


# -- branch points -------------------------------------------------------------------


def test_branch_points_interval(interval_ifs, interval_cloud_fine):
    found = branch_points(interval_ifs, interval_cloud_fine, depth=4)
    projs = sorted(float(p.proj[0]) for p, _ in found)
    expected = sorted([1.0, 2.0, 4.0, 8.0, 0.0, -1.0, -3.0, -7.0])
    assert len(projs) == len(expected)
    assert np.allclose(projs, expected, atol=1e-6)
    for p, count in found:
        assert count >= 2


def test_branch_points_cantor(cantor_ifs, cantor_cloud):
    assert branch_points(cantor_ifs, cantor_cloud, depth=4) == []


def test_branch_points_depth_zero(interval_ifs, interval_cloud):
    assert branch_points(interval_ifs, interval_cloud, depth=0) == []


@pytest.mark.parametrize(
    "name, cell",
    [("sierpinski", 2.0**-8), ("interpolation", 2.0**-7), ("mobius_arc", 0.002)],
)
def test_gluing_points_are_junctions(name, cell):
    # pieces f_i(A) of a nested fractal meet at pi(i.(j)*) = f_i(Fix f_j)
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    for i in range(1, ifs.n_maps + 1):
        junctions = [
            coding_map(ifs, Address((i,), (j,)))
            for j in range(1, ifs.n_maps + 1)
            if j != i
        ]
        glue = fbe.manifold._gluing_points(ifs, cloud, i)
        assert glue
        for g in glue:
            assert any(np.array_equal(g, q) for q in junctions), (i, g)


def test_branch_points_sierpinski_cell_independent(sierpinski_ifs):
    def projections(cell):
        cloud = attractor(sierpinski_ifs, cell)
        return [p.proj for p, _ in branch_points(sierpinski_ifs, cloud, depth=3)]

    coarse, fine = projections(2.0**-8), projections(2.0**-9)
    assert len(coarse) == len(fine) == 15
    assert all(np.array_equal(a, b) for a, b in zip(coarse, fine))


@pytest.mark.parametrize("name, cell", [("sierpinski", 2.0**-8), ("interpolation", 2.0**-7)])
def test_branch_points_on_attractor_are_fixed_points(name, cell):
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    found = branch_points(ifs, cloud, depth=3)
    on_a = sorted(tuple(p.proj) for p, _ in found if not p.theta)
    assert on_a == sorted(tuple(q) for q in ifs.fixed_points())


# -- constructor validation ------------------------------------------------------------


def test_manifold_point_validation(interval_ifs, interval_cloud):
    with pytest.raises(DomainError):
        manifold_point(interval_ifs, interval_cloud, (-1,), [0.25])  # in f_1(A)
    with pytest.raises(DomainError):
        manifold_point(interval_ifs, interval_cloud, (-1,), [3.0])  # off the attractor
    with pytest.raises(DomainError):
        manifold_point(interval_ifs, interval_cloud, (1,), [0.75])  # positive digit


# a coarse cell per built-in
COARSE_CELLS = {name: 2.0**-6 for name in systems.SYSTEMS} | {
    "cantor": 3.0**-5,
    "quadratic_graph": 1 / 16,
}


def _nesting_only(monkeypatch) -> dict:
    """Make run_verify run continuation-nesting alone and keep its gaps.
    No check before it draws from run_verify's generator."""
    seen = {}

    def timed(report, name, tag, tolerance, fn):
        if name == "continuation-nesting":
            seen["gaps"] = fn()

    monkeypatch.setattr(fbe.verify, "_timed", timed)
    return seen


@pytest.mark.parametrize("name", sorted(systems.SYSTEMS))
def test_verify_nesting_matches_all_rows_oracle(name, monkeypatch):
    # the per-row bounds skip only rows that cannot raise a gap, so every
    # gap, and the residual, is the all-rows query's float
    ifs = systems.by_name(name)
    cloud = attractor(ifs, COARSE_CELLS[name])
    seen = _nesting_only(monkeypatch)
    for seed in range(1, 5):
        run_verify(ifs, cloud, rng_seed=seed)
        assert seen.pop("gaps") == nesting_gaps(ifs, cloud, seed)


def test_verify_nesting_one_tree_per_prefix(monkeypatch):
    # one query of F(C) on the cloud's tree bounds each row of B_{w|k-1};
    # a prefix builds a tree of B_w only if a row's bound is above the seed,
    # the brute-force gap of the row with the largest bound
    _nesting_only(monkeypatch)
    builds = _count_kdtree_builds(monkeypatch, fbe.ifs)
    past, real = [], fbe.verify._max_nearest

    def max_nearest(rows, pts, bound):
        seed = np.linalg.norm(pts - rows[np.argmax(bound)], axis=1).min()
        past.append(bool(np.any(bound > seed)))
        return real(rows, pts, bound)

    monkeypatch.setattr(fbe.verify, "_max_nearest", max_nearest)
    for name, cell, trees in [("interval", 2.0**-8, 0), ("mobius_arc", 2.0**-6, 9)]:
        ifs = systems.by_name(name)
        cloud = _fresh(attractor(ifs, cell))
        builds.clear()
        past.clear()
        run_verify(ifs, cloud)
        # two maps have 2 + 4 + 8 prefixes of lengths 1-3; the cloud's
        # own tree is built first
        assert len(past) == 14 and len(builds) == 1 + sum(past) == 1 + trees


class _Unbounded(cKDTree):
    """A KD-tree whose queries drop distance_upper_bound and workers."""

    def query(self, x, k=1, **kwargs):
        kwargs.pop("distance_upper_bound", None)
        kwargs.pop("workers", None)
        return super().query(x, k, **kwargs)


def _bounded_query_outputs(ifs, cloud):
    """The leaf-index masks, the gluing points and the nesting residual."""
    cloud = _fresh(cloud)
    masks = [fbe.manifold._leaf_index(ifs, cloud, i)[1] for i in range(1, ifs.n_maps + 1)]
    glue = [fbe.manifold._gluing_points(ifs, cloud, i) for i in range(1, ifs.n_maps + 1)]
    report = run_verify(ifs, cloud)
    nesting = [c.residual for c in report.checks if c.name == "continuation-nesting"]
    return masks, glue, nesting


@pytest.mark.parametrize(
    "name, cell",
    [
        ("sierpinski", 2.0**-6),
        ("koch", 2.0**-6),
        ("interval", 2.0**-6),
        ("mobius_arc", 2.0**-6),
        ("cantor", 3.0**-5),
        # the nesting queries rows bounded by its running maximum here
        # (497-504 rows in each of 10 prefixes at seed 7)
        ("triangle", 2.0**-6),
    ],
)
def test_bounded_queries_match_unbounded(name, cell, monkeypatch):
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    masks, glue, nesting = _bounded_query_outputs(ifs, cloud)
    monkeypatch.setattr(fbe.manifold, "cKDTree", _Unbounded)
    monkeypatch.setattr(fbe.ifs, "cKDTree", _Unbounded)
    monkeypatch.setattr(scipy.spatial, "cKDTree", _Unbounded)
    masks_u, glue_u, nesting_u = _bounded_query_outputs(ifs, cloud)
    assert all(np.array_equal(a, b) for a, b in zip(masks, masks_u, strict=True))
    for g, g_u in zip(glue, glue_u, strict=True):
        assert len(g) == len(g_u)
        assert all(np.array_equal(p, q) for p, q in zip(g, g_u))
    assert nesting == nesting_u and len(nesting) == 1
