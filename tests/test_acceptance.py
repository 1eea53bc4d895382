"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Expected values come from exact digit oracles (rational
arithmetic) or closed forms; tolerances are pinned here, not tuned.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fbe import systems
from fbe.addresses import (
    SymbolicSet,
    parse_address,
    positive_truncations,
    symbolic_hausdorff,
)
from fbe.basin import (
    basin_inclusion_check,
    fast_basin_raster,
    raster_from_continuations,
)
from fbe.ifs import attractor, coding_map, verify_semiconjugacy
from fbe.manifold import (
    branch_points,
    canonicalize,
    distance,
    enumerate_leaves,
    leaf_projection,
    manifold_point,
)
from fbe.maps import from_sphere

from oracles import cantor_intersects

A = parse_address

Q = Fraction


def _report(n, name, detail):
    print(f"ACCEPTANCE {n:02d} {name}: PASS ({detail})")


# -- shared clouds ------------------------------------------------------------------


@pytest.fixture(scope="module")
def cantor12(cantor_ifs):
    return attractor(cantor_ifs, 3.0**-12)


@pytest.fixture(scope="module")
def arc_ifs():
    return systems.mobius_arc()


@pytest.fixture(scope="module")
def arc_cloud(arc_ifs):
    return attractor(arc_ifs, 2e-4)


@pytest.fixture(scope="module")
def proj_ifs():
    return systems.projective_line()


# -- 1: Cantor fast basin vs exact ternary oracle -------------------------------------


def _piece_interval_distance(lo: Q, hi: Q, depth: int = 60) -> Q:
    """Exact distance from [lo, hi] to the middle-thirds set."""
    if hi < 0:
        return -hi
    if lo > 1:
        return lo - 1
    if cantor_intersects(lo, hi):
        return Q(0)
    if depth == 0:
        return Q(0)
    return (
        min(
            _piece_interval_distance(3 * lo, 3 * hi, depth - 1),
            _piece_interval_distance(3 * lo - 2, 3 * hi - 2, depth - 1),
        )
        / 3
    )


def test_acceptance_01_cantor_raster_oracle(cantor_ifs, cantor12):
    nx, depth = 4096, 2
    # Inflation for this raster: 3^-7 exactly. It dominates the depth-2
    # pullback error 9*(eps+snap) of the 3^-12 cloud by a factor ~13 while
    # staying below the cell width, so the float raster and the exact
    # oracle are provably sandwiched onto each other (margin asserted).
    tau = Q(1, 3**7)

    ras = fast_basin_raster(
        cantor_ifs, cantor12, (-3.0, 3.0), nx, 1, depth=depth, tau=float(tau)
    )

    # pieces s*C + t reachable at word length <= 2
    pieces = [
        (Q(1), Q(0), 0),
        (Q(3), Q(0), 1),
        (Q(3), Q(-2), 1),
        (Q(9), Q(0), 2),
        (Q(9), Q(-2), 2),
        (Q(9), Q(-6), 2),
        (Q(9), Q(-8), 2),
    ]
    # Certify the two-sided Hausdorff error between the cloud and the true
    # set with the exact digit oracle, then sandwich: if no oracle distance
    # falls within 9*(error) of the threshold tau, float effects cannot
    # flip any cell, so raster == oracle is forced, not luck.
    from oracles import cantor_distance, cantor_level_points

    measured = max(
        cantor_distance(Q(float(p)).limit_denominator(10**15))
        for p in cantor12.points[:, 0]
    )
    cover = np.array([[float(q)] for q in cantor_level_points(12)])
    coverage = float(cKDTree(cantor12.points).query(cover)[0].max())
    band = 9 * (max(measured, Q(coverage).limit_denominator(10**15)) + Q(1, 10**9))
    assert band < tau / 4

    width = Q(6, nx)
    oracle = np.full(nx, -1, dtype=np.int32)
    fragile = 0
    for i in range(nx):
        e0 = Q(-3) + i * width
        e1 = e0 + width
        best = -1
        for s, t, k in pieces:
            d = s * _piece_interval_distance((e0 - t) / s, (e1 - t) / s)
            if d <= tau and (best == -1 or k < best):
                best = k
            if tau - band < d <= tau + band:
                fragile += 1
        oracle[i] = best
    assert fragile == 0, "oracle decision within the float band: grid is fragile"
    mismatches = int(np.sum(ras.depth[0] != oracle))
    assert mismatches == 0
    _report(1, "cantor-fast-basin-oracle", f"{nx} cells, 0 mismatched cells")


# -- 2: basin-inclusion criterion ------------------------------------------------------


def test_acceptance_02_basin_inclusion(
    interval_ifs, interval_cloud, cantor_ifs, cantor_cloud_fine
):
    rng = np.random.Generator(np.random.PCG64(2024))
    samples = rng.uniform(-4.0, 4.0, size=(200, 1))
    rep = basin_inclusion_check(
        interval_ifs,
        interval_cloud,
        samples,
        depth=12,
        tol=0.01,
        theta=A("(1.2)*"),
    )
    assert rep.fraction == 1.0

    tau = cantor_cloud_fine.tau
    assert tau <= 3.0**-6
    rep2 = basin_inclusion_check(
        cantor_ifs, cantor_cloud_fine, np.array([[0.5]]), depth=8, tol=tau
    )
    assert rep2.reached == 0
    assert rep2.results[0].status == "no_up_to_depth"
    _report(
        2,
        "basin-inclusion-criterion",
        f"interval 200/200 reached; cantor 1/2 open at depth 8 (tol {tau:.2e})",
    )


# -- 3: coding-map example -------------------------------------------------------------


def test_acceptance_03_coding_map(interval_ifs, interval_cloud_fine):
    v1 = coding_map(interval_ifs, A("(2)*"))
    v2 = coding_map(interval_ifs, A("-1.(2)*"))
    assert abs(v1[0] - 1.0) <= 1e-9
    assert abs(v2[0] - 2.0) <= 1e-9

    mp = canonicalize(interval_ifs, interval_cloud_fine, A("-1.-1.-1.(2)*"))
    assert mp.theta == (-1, -1, -1)
    mp2 = canonicalize(interval_ifs, interval_cloud_fine, A("-1.-1.-2.1.(2)*"))
    assert mp2.theta == ()
    _report(
        3,
        "coding-map-example",
        f"pi((2)*)={v1[0]:.12f}, pi(-1.(2)*)={v2[0]:.12f}, integer parts exact",
    )


# -- 4: semiconjugacy diagrams ----------------------------------------------------------


def test_acceptance_04_semiconjugacy(interval_ifs, cantor_ifs, sierpinski_ifs):
    worst = {}
    for name, ifs in (
        ("interval", interval_ifs),
        ("cantor", cantor_ifs),
        ("sierpinski", sierpinski_ifs),
    ):
        res = verify_semiconjugacy(ifs, n_samples=100, rng_seed=31)
        assert res.shape == (100 * 2 * ifs.n_maps,)
        assert res.max() <= 1e-9, np.sort(res)[-3:]
        worst[name] = res.max()
    assert max(worst.values()) <= 1e-9
    _report(
        4,
        "semiconjugacy-diagrams",
        "max residual "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


# -- 5: symbolic attractor convergence ----------------------------------------------------


def test_acceptance_05_symbolic_attractor():
    iota = A("-1.-1.(2)*")
    K, L = 3, 16
    dists = []
    for j in range(1, 7):
        r_set = SymbolicSet.singleton(iota, L)
        from fbe.addresses import iterate_symbolic_ifs

        r = iterate_symbolic_ifs(r_set, (1, 2), K + j)
        target = positive_truncations(2, L - (K + j))
        d = symbolic_hausdorff(r, target)
        bound = Q(1, 2 ** (j + 1))
        assert d <= bound, (j, d, bound)
        dists.append((j, d))
    _report(
        5,
        "symbolic-attractor",
        "; ".join(f"j={j}: d={d}" for j, d in dists),
    )


# -- 6: manifold metric --------------------------------------------------------------------


def _random_manifold_points(ifs, cloud, rng, n, max_theta=3):
    from fbe.errors import DomainError

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


def test_acceptance_06_manifold_metric(
    interval_ifs, interval_cloud_fine, cantor_ifs, cantor_cloud
):
    rng = np.random.Generator(np.random.PCG64(66))
    for ifs, cloud in (
        (interval_ifs, interval_cloud_fine),
        (cantor_ifs, cantor_cloud),
    ):
        pts = _random_manifold_points(ifs, cloud, rng, 40)
        for _ in range(1000):
            a, b, c = (pts[int(rng.integers(0, len(pts)))] for _ in range(3))
            dab = distance(ifs, cloud, a, b)
            dac = distance(ifs, cloud, a, c)
            dcb = distance(ifs, cloud, c, b)
            lip = max(
                ifs.word_lipschitz(dab.common_prefix),
                ifs.word_lipschitz(dac.common_prefix),
                ifs.word_lipschitz(dcb.common_prefix),
            )
            slack = 4 * lip * cloud.epsilon
            assert dab.d_L <= dac.d_L + dcb.d_L + slack
            assert dab.d_X <= dab.d_L + slack
        # same-sheet pairs: prefix-related integer parts
        for _ in range(200):
            a = pts[int(rng.integers(0, len(pts)))]
            b = pts[int(rng.integers(0, len(pts)))]
            k = min(len(a.theta), len(b.theta))
            if a.theta[:k] != b.theta[:k]:
                continue
            d = distance(ifs, cloud, a, b)
            lip = ifs.word_lipschitz(d.common_prefix)
            assert abs(d.d_L - d.d_X) <= 4 * lip * cloud.epsilon

    a = manifold_point(interval_ifs, interval_cloud_fine, (-1,), [0.75])
    b = manifold_point(interval_ifs, interval_cloud_fine, (-2, -1), [0.625])
    d = distance(interval_ifs, interval_cloud_fine, a, b)
    assert abs(d.d_L - 1.0) <= 1e-3
    assert d.d_X <= 1e-12
    _report(
        6,
        "manifold-metric",
        f"1000 triples x2 systems in tolerance; branch pair d_L={d.d_L:.6f}, d_X=0",
    )


# -- 7: leaf classification ------------------------------------------------------------------


def test_acceptance_07_leaf_classification(
    interval_ifs, interval_cloud, cantor_ifs, cantor_cloud
):
    from fbe.ifs import hausdorff_distance

    counts = {}
    for name, ifs, cloud in (
        ("interval", interval_ifs, interval_cloud),
        ("cantor", cantor_ifs, cantor_cloud),
    ):
        shapes = []
        for theta in enumerate_leaves(ifs.n_maps, 4):
            pts = leaf_projection(ifs, cloud, theta)
            back = ifs.apply_word(tuple(-d for d in reversed(theta)), pts)
            shapes.append(back)
        clusters = []
        for s in shapes:
            if not any(
                hausdorff_distance(s, c) <= 3 * cloud.epsilon for c in clusters
            ):
                clusters.append(s)
        counts[name] = len(clusters)
        assert len(clusters) == 3
        if name == "interval":
            # the three shapes are A, A minus f_1(A), A minus f_2(A)
            targets = [
                cloud.points,
                cloud.points[cloud.points[:, 0] > 0.5],
                cloud.points[cloud.points[:, 0] < 0.5],
            ]
            for t in targets:
                assert any(
                    hausdorff_distance(t, c) <= 3 * cloud.epsilon + cloud.tau
                    for c in clusters
                )
    _report(
        7,
        "leaf-classification",
        f"interval: {counts['interval']} shapes, cantor: {counts['cantor']} shapes",
    )


# -- 8: branch points ---------------------------------------------------------------------


def test_acceptance_08_branch_points(
    interval_ifs, interval_cloud_fine, cantor_ifs, cantor_cloud
):
    found = branch_points(interval_ifs, interval_cloud_fine, depth=4)
    projs = sorted(float(p.proj[0]) for p, _ in found)
    expected = sorted([1.0, 2.0, 4.0, 8.0, 0.0, -1.0, -3.0, -7.0])
    assert len(projs) == len(expected)
    for got, want in zip(projs, expected):
        assert abs(got - want) <= 1e-6, (got, want)
    assert branch_points(cantor_ifs, cantor_cloud, depth=4) == []
    _report(
        8,
        "branch-points",
        f"interval depth 4 -> {sorted(int(round(p)) for p in projs)}; cantor none",
    )


# -- 9: moebius arc ------------------------------------------------------------------------


def _fit_circle(z: np.ndarray):
    """Least-squares (Kasa) circle fit through complex points."""
    x, y = z.real, z.imag
    M = np.stack([2 * x, 2 * y, np.ones_like(x)], axis=1)
    rhs = x * x + y * y
    (a, b, c), *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return complex(a, b), float(np.sqrt(c + a * a + b * b))


def test_acceptance_09_mobius_arc(arc_ifs, arc_cloud):
    z = from_sphere(arc_cloud.points)
    centre, radius = _fit_circle(z)
    assert abs(centre - 1.5j) <= 1e-2
    assert abs(radius - 0.5) <= 1e-2

    pulled = [arc_cloud.points]
    for k in range(1, 4):
        for w in itertools.product((-1, -2), repeat=k):
            pulled.append(arc_ifs.apply_word(w, arc_cloud.points))
    zz = from_sphere(np.vstack(pulled))
    finite = np.isfinite(zz.real) & np.isfinite(zz.imag)
    resid = np.abs(np.abs(zz[finite] - centre) - radius)
    assert resid.max() <= 1e-2
    _report(
        9,
        "mobius-arc",
        f"centre offset {abs(centre - 1.5j):.2e}, radius offset "
        f"{abs(radius - 0.5):.2e}, depth-3 max circle residual {resid.max():.2e}",
    )


# -- 10: projective example ------------------------------------------------------------------


def test_acceptance_10_projective(proj_ifs):
    primary = attractor(proj_ifs, 1e-3)
    zp = from_sphere(primary.points)
    xs = np.sort(zp.real)
    assert xs[0] <= 4e-3 and xs[-1] >= 1 - 4e-3
    assert np.max(np.diff(xs)) <= 4e-3
    assert np.abs(zp.imag).max() <= 1e-3

    d_ifs = proj_ifs.dual()
    dual_cloud = attractor(d_ifs, 5e-4)
    zd = from_sphere(dual_cloud.points)
    finite = np.isfinite(zd.real)
    xr = zd.real[finite]
    # the dual attractor sits on the real circle of the sphere (which
    # passes through infinity): measure deviation chordally
    chordal_dev = 2 * np.abs(zd.imag[finite]) / (1 + np.abs(zd[finite]) ** 2)
    assert chordal_dev.max() <= 4e-3
    assert not np.any((xr > -4.4) & (xr < 5.4))
    near_lo = np.abs(xr + 4.5).min()
    near_hi = np.abs(xr - 5.5).min()
    assert near_lo <= 1e-2 and near_hi <= 1e-2
    _report(
        10,
        "projective-dual-repeller",
        f"primary spans [{xs[0]:.4f},{xs[-1]:.4f}]; dual avoids (-4.4,5.4), "
        f"boundary gaps {near_lo:.2e}/{near_hi:.2e}",
    )


# -- 11: continuation-union equivalence ---------------------------------------------------------


def test_acceptance_11_union_equivalence(
    interval_ifs,
    interval_cloud,
    cantor_ifs,
    cantor_cloud,
    sierpinski_ifs,
    sierpinski_cloud,
):
    cases = [
        ("interval", interval_ifs, interval_cloud, (-4.0, 4.0), 512, 1),
        ("cantor", cantor_ifs, cantor_cloud, (-3.0, 3.0), 512, 1),
        ("sierpinski", sierpinski_ifs, sierpinski_cloud, (-2.0, -2.0, 2.0, 2.0), 64, 64),
    ]
    for name, ifs, cloud, region, nx, ny in cases:
        a = fast_basin_raster(ifs, cloud, region, nx, ny, depth=3)
        b = raster_from_continuations(ifs, cloud, region, nx, ny, depth=3)
        assert a.to_pgm() == b.to_pgm(), name
    _report(11, "continuation-union-equivalence", "3 systems, byte-identical rasters")
