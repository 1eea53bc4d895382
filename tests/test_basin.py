from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fbe import attractor, systems
from fbe.addresses import parse_address
from fbe.basin import (
    Raster,
    ResolutionWarning,
    _RasterGrid,
    basin_inclusion_check,
    fast_basin_raster,
    finite_continuation,
    is_reversible_periodic,
    membership,
    raster_from_continuations,
)
from fbe.errors import DomainError, ResolutionError
from fbe.ifs import AttractorCloud

from conftest import _time_limit
from oracles import (
    binary_orbit_has_one_forever,
    cantor_raster_oracle,
    piece_distance,
)

A = parse_address


# -- finite continuations -------------------------------------------------------


def test_continuation_cantor_endpoints(cantor_ifs, cantor_cloud):
    pts = finite_continuation(cantor_ifs, cantor_cloud, A("(2)*"), 1)
    tau = cantor_cloud.tau
    d_to_m2 = np.abs(pts - (-2.0)).min()
    d_to_1 = np.abs(pts - 1.0).min()
    assert d_to_m2 <= 3 * tau and d_to_1 <= 3 * tau


def test_continuation_k0_is_cloud(cantor_ifs, cantor_cloud):
    pts = finite_continuation(cantor_ifs, cantor_cloud, A("(2)*"), 0)
    assert np.array_equal(pts, cantor_cloud.points)


def test_continuation_interval_triple(interval_ifs, interval_cloud):
    pts = finite_continuation(interval_ifs, interval_cloud, A("(1)*"), 3)
    assert pts.min() == pytest.approx(0.0, abs=0.02)
    assert pts.max() == pytest.approx(8.0, abs=0.02)
    gaps = np.diff(np.sort(pts[:, 0]))
    assert gaps.max() <= 8 * 2 * interval_cloud.meta["cell"]


def test_continuation_depth_error(cantor_ifs, cantor_cloud):
    with pytest.raises(DomainError):
        finite_continuation(cantor_ifs, cantor_cloud, (1, 2), 3)
    with pytest.raises(DomainError):  # a finite Address is as short
        finite_continuation(cantor_ifs, cantor_cloud, A("1.2"), 3)


def test_continuation_requires_positive_theta(cantor_ifs, cantor_cloud):
    with pytest.raises(DomainError):
        finite_continuation(cantor_ifs, cantor_cloud, (-1, 2), 2)


def test_continuation_overflow_refused(
    interval_ifs, interval_cloud, koch_ifs, koch_cloud
):
    theta = A("(1)*")
    # Lip(f_1^-1)^k = 2^k is a float up to k = 1023, and so are the points
    pts = finite_continuation(interval_ifs, interval_cloud, theta, 1023)
    assert np.isfinite(pts).all()
    # past it the factor alone refuses, before any point is transformed
    with _time_limit(1.0):
        for k in (1024, 200_000):
            with pytest.raises(ResolutionError, match="Lipschitz factor"):
                finite_continuation(interval_ifs, interval_cloud, theta, k)
    # koch's factor is still a float at k = 1292, its points are not
    with pytest.raises(ResolutionError, match="points"):
        finite_continuation(koch_ifs, koch_cloud, theta, 1292)


def test_continuation_nesting(interval_ifs, interval_cloud, rng):
    tau = interval_cloud.tau
    for _ in range(10):
        theta = tuple(int(d) for d in rng.choice([1, 2], size=4))
        prev = finite_continuation(interval_ifs, interval_cloud, theta, 0)
        for k in range(1, 5):
            cur = finite_continuation(interval_ifs, interval_cloud, theta, k)
            assert cKDTree(cur).query(prev)[0].max() <= tau
            prev = cur


# -- rasters ------------------------------------------------------------------------


def test_raster_depth0_is_attractor(cantor_ifs, cantor_cloud):
    ras = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), 512, 1, depth=0)
    tau = cantor_cloud.tau
    width = 6.0 / 512
    for i in np.nonzero(ras.hit[0])[0]:
        cell_lo, cell_hi = -3 + i * width, -3 + (i + 1) * width
        assert (
            np.min(
                np.abs(cantor_cloud.points[:, 0] - np.clip(cantor_cloud.points[:, 0], cell_lo, cell_hi))
            )
            <= tau
        )
    # every cloud point's cell is hit
    idx = np.floor((cantor_cloud.points[:, 0] + 3) / width).astype(int)
    assert ras.hit[0][idx].all()


def test_raster_monotone_in_depth(cantor_ifs, cantor_cloud):
    r1 = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), 256, 1, depth=1)
    r2 = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), 256, 1, depth=2)
    assert np.all(r2.hit | ~r1.hit)  # hit set nondecreasing
    both = r1.hit & r2.hit
    assert np.all(r2.depth[both] <= r1.depth[both])


def test_raster_matches_ternary_oracle(cantor_ifs, cantor_cloud):
    nx, depth = 256, 2
    tau = cantor_cloud.tau
    ras = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), nx, 1, depth=depth)
    oracle = cantor_raster_oracle(
        Fraction(-3), Fraction(3), nx, Fraction(tau).limit_denominator(10**12), depth
    )
    assert list(ras.depth[0]) == oracle


def test_raster_sierpinski_translates(sierpinski_ifs, sierpinski_cloud, rng):
    ras = fast_basin_raster(
        sierpinski_ifs, sierpinski_cloud, (-2.0, -2.0, 2.0, 2.0), 64, 64, depth=3
    )
    widths = 4.0 / 64
    # cells containing points of the attractor translated by (-1,0) and (0,-1)
    samples = sierpinski_cloud.points[
        rng.choice(sierpinski_cloud.points.shape[0], size=50, replace=False)
    ]
    for t in (np.array([-1.0, 0.0]), np.array([0.0, -1.0])):
        pts = samples + t
        ix = np.floor((pts[:, 0] + 2) / widths).astype(int)
        iy = np.floor((pts[:, 1] + 2) / widths).astype(int)
        assert ras.hit[iy, ix].all()


@pytest.fixture(scope="module")
def koch_cloud(koch_ifs):
    return attractor(koch_ifs, 2.0**-7)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pulled_clouds_return_to_attractor(
    sierpinski_ifs, sierpinski_cloud, koch_ifs, koch_cloud, interval_ifs, interval_cloud, data
):
    # f_w(A) lies in A, so A lies in f_w^{-1}(A): every pulled cloud comes
    # back within tau of the cloud, and the word-tree raster has no subtree
    # that could be skipped for lying far from the attractor
    ifs, cloud = data.draw(
        st.sampled_from(
            [
                (sierpinski_ifs, sierpinski_cloud),
                (koch_ifs, koch_cloud),
                (interval_ifs, interval_cloud),
            ]
        )
    )
    word = data.draw(st.lists(st.integers(1, ifs.n_maps), min_size=1, max_size=4))
    pulled = ifs.apply_word(tuple(-d for d in reversed(word)), cloud.points)
    assert cloud.nearest_dist(pulled).min() <= cloud.tau


def _scatter_mark(depth, lo, hi, nx, ny, tau, pts, word_len):
    """Reference marking: one np.minimum.at per (dx, dy) offset of the
    tau-inflated cell span, as the raster grid did before corner sums."""
    rdim = lo.shape[0]
    widths = (hi - lo) / np.array([nx, ny][:rdim])

    def ranges(vals, axis, n):
        a = np.floor((vals - tau - lo[axis]) / widths[axis]).astype(np.int64)
        b = np.floor((vals + tau - lo[axis]) / widths[axis]).astype(np.int64)
        return np.clip(a, 0, n - 1), np.clip(b, 0, n - 1), (a <= n - 1) & (b >= 0)

    ix_lo, ix_hi, keep = ranges(pts[:, 0], 0, nx)
    if rdim == 2:
        iy_lo, iy_hi, oky = ranges(pts[:, 1], 1, ny)
        keep &= oky
    else:
        iy_lo = iy_hi = np.zeros(ix_lo.shape, dtype=np.int64)
    if not keep.any():
        return
    ix_lo, ix_hi, iy_lo, iy_hi = ix_lo[keep], ix_hi[keep], iy_lo[keep], iy_hi[keep]
    for dy in range(int((iy_hi - iy_lo).max()) + 1):
        iy = iy_lo + dy
        for dx in range(int((ix_hi - ix_lo).max()) + 1):
            ix = ix_lo + dx
            v = (iy <= iy_hi) & (ix <= ix_hi)
            np.minimum.at(depth.ravel(), iy[v] * nx + ix[v], word_len)


@st.composite
def _marking_case(draw):
    rdim = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(1, 24))
    ny = draw(st.integers(1, 24)) if rdim == 2 else 1
    lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(rdim)])
    hi = lo + np.array([draw(st.floats(0.1, 4.0)) for _ in range(rdim)])
    cell = float(((hi - lo) / np.array([nx, ny][:rdim])).min())
    # from an inverted box (nothing marked) through several cell widths
    tau = draw(st.sampled_from([-3.0, -0.5, 0.0, 1.0, 2.5, 4.0])) * cell
    tau += draw(st.floats(0.0, 0.5)) * cell
    marks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 25))
        # points inside, near and wholly outside the region, some on edges
        u = np.array(
            draw(st.lists(st.floats(-0.6, 1.6), min_size=n * rdim, max_size=n * rdim))
        ).reshape(n, rdim)
        if draw(st.booleans()):
            u = np.round(u * 8) / 8
        marks.append((lo + u * (hi - lo), draw(st.integers(0, 6))))
    return lo, hi, nx, ny, tau, marks


@settings(max_examples=300, deadline=None)
@given(_marking_case())
def test_raster_marking_matches_scatter(case):
    lo, hi, nx, ny, tau, marks = case
    grid = _RasterGrid(lo, hi, nx, ny, tau)
    miss = np.iinfo(np.int32).max
    ref = np.full((ny, nx), miss, dtype=np.int32)
    for pts, word_len in marks:
        grid.mark(pts, word_len)
        _scatter_mark(ref, lo, hi, nx, ny, tau, pts, word_len)
        assert np.array_equal(grid.finalize().depth, np.where(ref == miss, -1, ref))


def test_raster_resolution_warning(cantor_ifs, cantor_cloud):
    for builder in (fast_basin_raster, raster_from_continuations):
        with pytest.warns(ResolutionWarning) as record:
            builder(cantor_ifs, cantor_cloud, (-3.0, 3.0), 500_000, 1, depth=0)
        # the warning points at the builder's caller
        assert record[0].filename == __file__


def test_raster_tau_below_floor(interval_ifs, interval_cloud):
    # a raster's inflation has the floor of membership's tol
    for builder in (fast_basin_raster, raster_from_continuations):
        for tau in (0.0, interval_cloud.tau / 2, np.inf, np.nan):
            with pytest.raises(ResolutionError):
                builder(interval_ifs, interval_cloud, (-3.0, 4.0), 64, 1, tau=tau)


def test_raster_depth_bounds(interval_ifs, interval_cloud):
    for builder in (fast_basin_raster, raster_from_continuations):
        with pytest.raises(DomainError):
            builder(interval_ifs, interval_cloud, (-3.0, 4.0), 64, 1, depth=-1)
        # 2^41 - 1 words: refused on the count, before the first word
        with _time_limit(1.0), pytest.raises(ResolutionError):
            builder(interval_ifs, interval_cloud, (-3.0, 4.0), 64, 1, depth=40)


def test_raster_pgm_and_csv(cantor_ifs, cantor_cloud):
    ras = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), 64, 1, depth=1)
    pgm = ras.to_pgm()
    assert pgm.startswith(b"P5\n64 1\n255\n")
    body = pgm[len(b"P5\n64 1\n255\n") :]
    assert len(body) == 64
    vals = set(body)
    assert 0 in vals and 255 in vals and (255 - 16) in vals
    csv = ras.to_csv()
    assert csv.splitlines()[0] == "ix,iy,depth"
    assert len(csv.splitlines()) == 1 + ras.hit_count


def test_raster_csv_bytes():
    depth = np.full((3, 4), -1, dtype=np.int32)
    depth[0, 1], depth[0, 3], depth[2, 0], depth[2, 2] = 2, 0, 11, 1
    ras = Raster(lo=np.zeros(2), hi=np.ones(2), nx=4, ny=3, depth=depth)
    assert ras.to_csv() == "ix,iy,depth\n1,0,2\n3,0,0\n0,2,11\n2,2,1\n"
    ras.depth[:] = -1
    assert ras.to_csv() == "ix,iy,depth\n"
    # more hits than one formatting chunk, against a per-cell loop
    rng = np.random.default_rng(3)
    depth = rng.integers(0, 9, (90, 100)).astype(np.int32)
    depth[rng.random((90, 100)) < 0.4] = -1
    ras = Raster(lo=np.zeros(2), hi=np.ones(2), nx=100, ny=90, depth=depth)
    rows = [
        f"{ix},{iy},{depth[iy, ix]}\n"
        for iy in range(90)
        for ix in range(100)
        if depth[iy, ix] >= 0
    ]
    assert len(rows) > 4096
    assert ras.to_csv() == "ix,iy,depth\n" + "".join(rows)


def test_prop_union_equivalence(cantor_ifs, cantor_cloud, interval_ifs, interval_cloud):
    for ifs, cloud, region in (
        (cantor_ifs, cantor_cloud, (-3.0, 3.0)),
        (interval_ifs, interval_cloud, (-4.0, 4.0)),
    ):
        # depth 0 is the cloud itself, the empty word's continuation
        for depth in (0, 1, 3):
            a = fast_basin_raster(ifs, cloud, region, 512, 1, depth=depth)
            b = raster_from_continuations(ifs, cloud, region, 512, 1, depth=depth)
            assert a.to_pgm() == b.to_pgm()
            assert a.to_csv() == b.to_csv()


# -- membership -----------------------------------------------------------------------


def test_membership_yes_witness(cantor_ifs, cantor_cloud_fine):
    res = membership(cantor_ifs, cantor_cloud_fine, [2.0], depth=4)
    assert res.reached and res.witness == (1,)
    # the image-space invariant holds for contractive systems
    img = cantor_ifs.apply_word(res.witness, [2.0])[0]
    assert cantor_cloud_fine.dist_point(img) <= res.tolerance


def test_membership_no_for_half(cantor_ifs, cantor_cloud_fine):
    tau = cantor_cloud_fine.tau
    assert tau <= 3.0**-6
    res = membership(cantor_ifs, cantor_cloud_fine, [0.5], depth=8, tol=tau)
    assert res.status == "no_up_to_depth"
    assert res.depth_searched == 8
    # the exact ternary oracle agrees that no depth-8 orbit reaches the set
    assert binary_orbit_has_one_forever(Fraction(1, 2), 8)


def test_membership_empty_witness(cantor_ifs, cantor_cloud):
    x = cantor_cloud.points[31]
    res = membership(cantor_ifs, cantor_cloud, x, depth=2)
    assert res.reached and res.witness == ()


def test_membership_shortest_lex_witness(interval_ifs, interval_cloud):
    # x = 1.5 is in f_1^{-1}(A) = [0,2] only via word (1): earliest witness
    res = membership(interval_ifs, interval_cloud, [1.5], depth=3)
    assert res.reached and res.witness == (1,)
    # x = 2.5 is in both depth-2 pullbacks (1,1) and (1,2): lex order wins
    res = membership(interval_ifs, interval_cloud, [2.5], depth=2)
    assert res.reached and res.witness == (1, 1)


def test_membership_tol_below_tau(cantor_ifs, cantor_cloud):
    # tol=inf would answer "yes" for any point
    for tol in (cantor_cloud.tau / 10, np.inf, np.nan):
        with pytest.raises(ResolutionError):
            membership(cantor_ifs, cantor_cloud, [0.5], depth=2, tol=tol)


def test_membership_word_bound(cantor_ifs, cantor_cloud):
    # refused on the word count, even for a point of the cloud itself
    x = cantor_cloud.points[0]
    with _time_limit(1.0), pytest.raises(ResolutionError):
        membership(cantor_ifs, cantor_cloud, x, depth=40)
    # the theta route walks one word per level: depth + 1 words
    theta = A("(1.2)*")
    res = membership(cantor_ifs, cantor_cloud, [0.5], depth=40, theta=theta)
    assert res.reached and res.depth_searched <= 40
    with _time_limit(1.0), pytest.raises(ResolutionError):
        membership(cantor_ifs, cantor_cloud, x, depth=1 << 16, theta=theta)


def test_membership_negative_depth(interval_ifs, interval_cloud):
    x = interval_cloud.points[0]
    for theta in (None, A("(1.2)*")):
        with pytest.raises(DomainError, match="depth must be >= 0"):
            membership(interval_ifs, interval_cloud, x, depth=-2, theta=theta)
        with pytest.raises(DomainError, match="depth must be >= 0"):
            basin_inclusion_check(
                interval_ifs, interval_cloud, [x], depth=-3, theta=theta
            )


def test_membership_theta_refusals(interval_ifs, interval_cloud):
    # refused up front, even for a point the empty word already reaches
    x = interval_cloud.points[0]
    for theta, depth in (((1, 3), 2), ((1, -2), 2), ((1, 2), 3), (A("1.2"), 3)):
        with pytest.raises(DomainError):
            membership(interval_ifs, interval_cloud, x, depth=depth, theta=theta)


def test_membership_theta_tol_below_tau(interval_ifs, interval_cloud):
    # the continuation route has the floor of the full search
    theta, tol = A("(1.2)*"), interval_cloud.tau / 10
    with pytest.raises(ResolutionError):
        membership(interval_ifs, interval_cloud, [3.9], depth=2, tol=tol, theta=theta)
    with pytest.raises(ResolutionError):
        basin_inclusion_check(
            interval_ifs, interval_cloud, [[3.9]], depth=2, tol=tol, theta=theta
        )


def test_membership_raster_agreement(cantor_ifs, cantor_cloud, rng):
    nx, depth = 128, 2
    ras = fast_basin_raster(cantor_ifs, cantor_cloud, (-3.0, 3.0), nx, 1, depth=depth)
    width = 6.0 / nx
    hits = np.nonzero(ras.hit[0])[0]
    miss = np.nonzero(~ras.hit[0])[0]
    for i in rng.choice(hits, size=12, replace=False):
        centre = -3 + (i + 0.5) * width
        k = int(ras.depth[0, i])
        res = membership(cantor_ifs, cantor_cloud, [centre], depth=k, tol=2 * width)
        assert res.reached
    # misses far from any depth-k image stay misses at matching tolerance
    pieces = [(Fraction(1), Fraction(0)), (Fraction(3), Fraction(0)),
              (Fraction(3), Fraction(-2)), (Fraction(9), Fraction(0)),
              (Fraction(9), Fraction(-2)), (Fraction(9), Fraction(-6)),
              (Fraction(9), Fraction(-8))]
    for i in rng.choice(miss, size=12, replace=False):
        centre = Fraction(-3) + Fraction(int(2 * i + 1), int(2 * nx)) * 6
        d_exact = min(float(piece_distance(s, t, centre)) for s, t in pieces)
        if d_exact > 3 * width:
            res = membership(
                cantor_ifs, cantor_cloud, [float(centre)], depth=depth, tol=2 * width
            )
            assert res.status == "no_up_to_depth"


# -- reversible words ---------------------------------------------------------------


def test_reversible_periodic_interval(interval_ifs, interval_cloud):
    assert is_reversible_periodic(interval_ifs, interval_cloud, (1, 2), 0.05)
    assert not is_reversible_periodic(interval_ifs, interval_cloud, (1,), 0.05)


def test_reversible_periodic_cantor(cantor_ifs, cantor_cloud):
    for period in ((1,), (2,), (1, 2), (2, 2, 1)):
        assert not is_reversible_periodic(cantor_ifs, cantor_cloud, period, 0.01)


def test_reversible_margin_error(interval_ifs, interval_cloud):
    for margin in (interval_cloud.epsilon, np.nan, np.inf):
        with pytest.raises(ResolutionError):
            is_reversible_periodic(interval_ifs, interval_cloud, (1, 2), margin)


def test_reversible_periodic_domain(interval_ifs, interval_cloud):
    margin = interval_cloud.tau
    for period in ((), (1, -2)):
        with pytest.raises(DomainError):
            is_reversible_periodic(interval_ifs, interval_cloud, period, margin)
    # the interior test has no sphere version
    cloud = AttractorCloud(np.array([[0.0, 0.0, 1.0]]), 0.01)
    with pytest.raises(DomainError):
        is_reversible_periodic(systems.mobius_arc(), cloud, (1,), cloud.tau)


# -- basin inclusion ----------------------------------------------------------------


def test_inclusion_interval_via_theta(interval_ifs, interval_cloud, rng):
    samples = rng.uniform(-4, 4, size=(50, 1))
    rep = basin_inclusion_check(
        interval_ifs, interval_cloud, samples, depth=12, tol=0.01, theta=A("(1.2)*")
    )
    assert rep.fraction == 1.0
    for res in rep.results:
        assert res.witness is not None
        # witnesses are reversed prefixes of theta
        assert all(d in (1, 2) for d in res.witness)


def test_inclusion_cantor_failure_witness(cantor_ifs, cantor_cloud_fine):
    rep = basin_inclusion_check(
        cantor_ifs,
        cantor_cloud_fine,
        np.array([[0.5]]),
        depth=8,
        tol=cantor_cloud_fine.tau,
    )
    assert rep.reached == 0
    assert rep.failures == [[0.5]]


def test_inclusion_sample_in_attractor(cantor_ifs, cantor_cloud):
    rep = basin_inclusion_check(
        cantor_ifs, cantor_cloud, cantor_cloud.points[:5], depth=2
    )
    assert rep.fraction == 1.0
    assert all(r.witness == () for r in rep.results)


def test_membership_theta_route(interval_ifs, interval_cloud):
    res = membership(
        interval_ifs, interval_cloud, [3.9], depth=12, tol=0.01, theta=A("(1.2)*")
    )
    assert res.reached
    k = res.depth_searched
    assert res.witness == tuple(reversed(A("(1.2)*").prefix(k)))
    # B_{(1.2)*|k} for k <= 2 lies in [-2, 2]
    res = membership(
        interval_ifs, interval_cloud, [3.9], depth=2, tol=0.01, theta=A("(1.2)*")
    )
    assert (res.status, res.witness, res.depth_searched) == ("no_up_to_depth", None, 2)


def test_membership_on_sphere():
    # a continuation point of the circle-arc system reaches the attractor
    from fbe import systems
    from fbe.ifs import attractor

    ifs = systems.mobius_arc()
    cloud = attractor(ifs, 1e-3)
    target = ifs.apply_word((-2, -1), cloud.points[128][None, :])[0]
    res = membership(ifs, cloud, target, depth=3, tol=cloud.tau)
    assert res.reached
    assert len(res.witness) <= 2
    off_circle = np.array([0.0, 0.0, -1.0])  # z = 0, far from the basin circle
    res2 = membership(ifs, cloud, off_circle, depth=3, tol=cloud.tau)
    assert res2.status == "no_up_to_depth"


@pytest.fixture(scope="module")
def mobius_arc_system():
    ifs = systems.mobius_arc()
    return ifs, attractor(ifs, 2e-3)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_membership_theta_matches_continuation_scan(
    cantor_ifs,
    cantor_cloud,
    interval_ifs,
    interval_cloud,
    sierpinski_ifs,
    sierpinski_cloud,
    mobius_arc_system,
    data,
):
    # the oracle: the least k <= depth whose B_{theta|k} lies within tol of x
    ifs, cloud = data.draw(
        st.sampled_from(
            [
                (cantor_ifs, cantor_cloud),
                (interval_ifs, interval_cloud),
                (sierpinski_ifs, sierpinski_cloud),
                mobius_arc_system,
            ]
        )
    )
    depth = data.draw(st.integers(0, 7))
    n_digits = data.draw(st.integers(depth, depth + 2))
    digit = st.integers(1, ifs.n_maps)
    theta = tuple(data.draw(st.lists(digit, min_size=n_digits, max_size=n_digits)))
    tol = cloud.tau * data.draw(st.sampled_from([1.0, 2.0, 5.0]))
    # x near a point of some B_{theta|j}, j possibly past the depth
    j = data.draw(st.integers(0, n_digits))
    pts = finite_continuation(ifs, cloud, theta, j)
    x = pts[data.draw(st.integers(0, len(pts) - 1))]
    x = x + tol * np.array([data.draw(st.floats(-3.0, 3.0)) for _ in x])
    if ifs.is_sphere:
        x = x / np.linalg.norm(x)
    expect = ("no_up_to_depth", None, depth, tol, None)
    for k in range(depth + 1):
        pulled = finite_continuation(ifs, cloud, theta, k)
        d = float(np.linalg.norm(pulled - x, axis=1).min())
        if d <= tol:
            expect = ("yes", tuple(reversed(theta[:k])), k, tol, d)
            break
    res = membership(ifs, cloud, x, depth, tol, theta=theta)
    got = (res.status, res.witness, res.depth_searched, res.tolerance, res.distance)
    assert got == expect
