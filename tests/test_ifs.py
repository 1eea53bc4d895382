import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import fbe.ifs
from fbe import systems
from fbe.addresses import Address, parse_address
from fbe.errors import DomainError, FbeError, NoConvergenceError, ResolutionError
from fbe.ifs import (
    IfsSystem,
    attractor,
    chaos_game,
    coding_map,
    grid_dedup,
    hausdorff_distance,
    random_address,
    verify_semiconjugacy,
)
from fbe.maps import AffineMap, MoebiusMap, from_sphere, to_sphere

from conftest import _time_limit
from oracles import cantor_level_points, full_iteration, orbit_limit, sequential_orbit

A = parse_address


# -- apply_word ------------------------------------------------------------------


def test_apply_word_examples(cantor_ifs, interval_ifs):
    assert cantor_ifs.apply_word((1,), [2.0])[0] == pytest.approx([2 / 3])
    assert cantor_ifs.apply_word((), [0.7])[0] == pytest.approx([0.7])
    assert interval_ifs.apply_word((-2,), [0.5])[0] == pytest.approx([0.0])


def test_apply_word_concatenation(koch_ifs, rng):
    for _ in range(30):
        w1 = tuple(int(d) for d in rng.choice([-2, -1, 1, 2], size=3))
        w2 = tuple(int(d) for d in rng.choice([-2, -1, 1, 2], size=3))
        x = rng.normal(size=2)
        lhs = koch_ifs.apply_word(w1 + w2, x)[0]
        rhs = koch_ifs.apply_word(w1, koch_ifs.apply_word(w2, x))[0]
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_inverse_word_identity(interval_ifs, koch_ifs, rng):
    for ifs, dim in ((interval_ifs, 1), (koch_ifs, 2)):
        for _ in range(20):
            k = int(rng.integers(1, 9))
            w = tuple(int(d) for d in rng.choice([1, 2], size=k))
            x = rng.normal(size=dim)
            inv = tuple(-d for d in reversed(w))
            back = ifs.apply_word(w, ifs.apply_word(inv, x))[0]
            assert np.linalg.norm(back - x) < 1e-9


# -- lipschitz bounds ---------------------------------------------------------------


def test_lipschitz_examples(cantor_ifs, koch_ifs):
    assert cantor_ifs.map_lipschitz(1) == pytest.approx(1 / 3)
    assert koch_ifs.map_lipschitz(1) == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    ident = IfsSystem("R2", (AffineMap(np.eye(2), np.zeros(2)),))
    assert ident.map_lipschitz(1) == pytest.approx(1.0)


def test_inverse_lipschitz(cantor_ifs):
    assert cantor_ifs.map_lipschitz(-1) == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["mobius_arc", "projective_line", "schottky"])
def test_moebius_lipschitz_is_the_chordal_maximum(name):
    # with v = (z, 1) the chordal derivative is |v|^2 / |Mv|^2: it peaks at
    # the right singular vector of sigma_min
    ifs = systems.by_name(name)
    g = np.random.Generator(np.random.PCG64(11)).normal(size=(100_000, 3))
    z = from_sphere(g / np.linalg.norm(g, axis=1, keepdims=True))
    for d in [d for d in range(-ifs.n_maps, ifs.n_maps + 1) if d != 0]:
        m = ifs.map_for(d)
        lip = ifs.map_lipschitz(d)
        v = np.linalg.svd(m.matrix())[2][-1].conj()
        peak = m.chordal_derivative(np.array([v[0] / v[1]]))[0]
        assert lip == pytest.approx(peak, rel=1e-12)
        assert lip >= m.chordal_derivative(z).max()


# -- attractor -----------------------------------------------------------------------


def test_attractor_cantor_vs_level_cover(cantor_ifs):
    cloud = attractor(cantor_ifs, 3.0**-8)
    cover = np.array([[float(q)] for q in cantor_level_points(8)])
    assert hausdorff_distance(cloud.points, cover) <= 3.0**-7


def test_attractor_interval_gaps(interval_ifs):
    cell = 2.0**-9
    cloud = attractor(interval_ifs, cell)
    xs = np.sort(cloud.points[:, 0])
    assert xs[0] <= 2 * cell and xs[-1] >= 1 - 2 * cell
    assert np.max(np.diff(xs)) <= 2 * cell


def test_attractor_single_map():
    ifs = IfsSystem("R1", (AffineMap(np.array([[0.5]]), np.array([0.0])),))
    cloud = attractor(ifs, 1e-3)
    assert np.abs(cloud.points).max() <= 1e-3


def test_attractor_no_convergence(cantor_ifs, monkeypatch):
    # cantor at 3^-8 repeats after 8 steps; the residual is the full
    # iteration's H(X_4, X_3)
    monkeypatch.setattr(fbe.ifs, "MAX_STEPS", 4)
    with pytest.raises(NoConvergenceError, match="after 4 iterations") as ei:
        attractor(cantor_ifs, 3.0**-8)
    assert 0.0 < ei.value.residual < np.inf
    with pytest.raises(NoConvergenceError) as ref:
        full_iteration(cantor_ifs, 3.0**-8)
    assert ei.value.residual == ref.value.residual
    assert str(ei.value) == str(ref.value)


# each built-in's cell in the tests below, 2^-7 unless named
FIXED_POINT_CELLS = {"cantor": 3.0**-8, "triangle": 2.0**-6, "quadratic_graph": 1 / 16}


@pytest.mark.parametrize("name", sorted(systems.SYSTEMS))
def test_attractor_is_exact_fixed_point(name):
    # S(U) = grid_dedup(F(U), cell) returns the cloud bit for bit
    cell = FIXED_POINT_CELLS.get(name, 2.0**-7)
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    imgs = np.concatenate(
        [ifs.transform(i, cloud.points) for i in range(1, ifs.n_maps + 1)]
    )
    again = grid_dedup(imgs, cell)
    assert again.shape == cloud.points.shape
    assert again.tobytes() == cloud.points.tobytes()


def _outcome(build, ifs, cell):
    """The cloud's bytes, epsilon and meta, or the typed error raised."""
    try:
        cloud = build(ifs, cell)
    except FbeError as e:
        return type(e), str(e)
    return cloud.points.tobytes(), cloud.epsilon, cloud.meta


# interpolation at 2^-9 ends in a run of one-cell steps, each transforming
# one row where the full step transforms them all; koch at 2^-8 ends in a
# 2-cycle, found by a repeat of the running set hash and confirmed by two
# more steps
FULL_ITERATION_CASES = [(n, c) for n in sorted(systems.SYSTEMS) for c in (1, 2)]
FULL_ITERATION_CASES += [("interpolation", 0.25), ("koch", 0.5)]


@pytest.mark.parametrize("name, coarser", FULL_ITERATION_CASES)
def test_attractor_equals_full_iteration(name, coarser):
    # the delta steps make the full steps' sets: the same points, epsilon,
    # sizes, depth and cycle, and "changed" is each step's symmetric difference
    cell = coarser * FIXED_POINT_CELLS.get(name, 2.0**-7)
    ifs = systems.by_name(name)
    outcome = _outcome(attractor, ifs, cell)
    assert outcome == _outcome(full_iteration, ifs, cell)
    if name == "interpolation" and coarser < 1:
        assert outcome[2]["changed"][-6:] == [1, 1, 1, 1, 1, 0]


def test_attractor_wide_cell_range_equals_full_iteration():
    # cell rows 2^45 apart in both columns pass 63 bits, so the delta steps
    # compare rows as big-endian bytes instead of packed int64 keys
    far = 2.0**45
    ifs = IfsSystem(
        "R2",
        tuple(
            AffineMap(np.array([[1e-4, 2e-5], [0.0, 1e-4]]), np.array(b))
            for b in ([-far, 3.0], [far, -far], [0.5, far / 3])
        ),
    )
    assert _outcome(attractor, ifs, 1.0) == _outcome(full_iteration, ifs, 1.0)
    assert attractor(ifs, 1.0).meta["sizes"] == [9, 27, 81, 82, 82]


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@st.composite
def _contractive_affine(draw):
    """R1 or R2, 2 to 4 invertible maps with sigma_max <= 0.7: rotation,
    signed singular values in [0.05, 0.7], rotation, and an offset."""
    dim = draw(st.sampled_from([1, 2]))
    scale = st.floats(0.05, 0.7).flatmap(lambda s: st.sampled_from([s, -s]))
    angle = st.floats(0.0, 2 * np.pi)
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        if dim == 1:
            mat = np.array([[draw(scale)]])
        else:
            u, v = (_rotation(draw(angle)) for _ in range(2))
            mat = u @ np.diag([draw(scale), draw(scale)]) @ v
        offset = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(dim)])
        maps.append(AffineMap(mat, offset))
    return IfsSystem(f"R{dim}", tuple(maps))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ifs=_contractive_affine())
def test_attractor_equals_full_iteration_on_random_systems(ifs):
    assert _outcome(attractor, ifs, 2.0**-6) == _outcome(full_iteration, ifs, 2.0**-6)


def _dedup_cases():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 4):
        yield rng.uniform(-3.0, 2.0, size=(5000, dim)), 0.01
        # heavy duplication: 4000 rows in at most 3^dim cells
        yield rng.integers(-1, 2, size=(4000, dim)) + rng.uniform(0, 0.5, (4000, dim)), 1.0
    # rows that differ only in the last column, in reverse order
    rows = np.zeros((50, 3))
    rows[:, 2] = np.arange(50)[::-1] - 25.5
    yield rows, 1.0
    yield np.array([[-0.25, 7.0]]), 0.1


@pytest.mark.parametrize("pts, cell", list(_dedup_cases()))
def test_grid_dedup_matches_unique(pts, cell):
    uniq = np.unique(np.floor(pts / cell).astype(np.int64), axis=0)
    assert grid_dedup(pts, cell).tobytes() == ((uniq + 0.5) * cell).tobytes()


def test_attractor_sizes(cantor_cloud, sierpinski_ifs):
    assert cantor_cloud.meta["sizes"] == [2 ** (k + 1) for k in range(1, 8)] + [256]
    cloud = attractor(sierpinski_ifs, 1e-3)
    sizes = cloud.meta["sizes"]
    # level-k gasket vertices, (3^(k+1) + 3) / 2, until cells merge them
    assert sizes[:9] == [(3 ** (k + 1) + 3) // 2 for k in range(1, 10)]
    assert len(sizes) == cloud.meta["depth"] == 16
    assert sizes[-2:] == [90816, 90816] == [len(cloud.points)] * 2


def test_attractor_koch_two_cycle(koch_ifs):
    cloud = attractor(koch_ifs, 2.0**-8)
    assert cloud.meta["cycle"] == 2
    # a 2-cycle of sets of 9879 and 9878 points, whose union is the cloud
    assert len(cloud.meta["sizes"]) == cloud.meta["depth"] == 30
    assert cloud.meta["sizes"][-2:] == [9879, 9878] and len(cloud.points) == 9889
    with _time_limit(30.0):
        cloud = attractor(koch_ifs, 1e-3)
    assert cloud.meta["cycle"] == 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ifs=_contractive_affine())
def test_hutchinson_running_hash_is_the_sets_hash(ifs):
    # after every step the hash moved by the added and removed cells is
    # the hash of the set computed afresh, and the size is the set's
    cell = 2.0**-6
    sets = fbe.ifs._hutchinson_sets(ifs, ifs.fixed_points(), cell)
    for _ in range(60):
        digest, size, changed, points = next(sets)
        rows = np.floor(points() / cell).astype(np.int64)
        assert digest == fbe.ifs._set_hash(rows) and size == len(rows)
        if changed == 0:
            break


def _shears() -> IfsSystem:
    # each shear attracts, but their products expand
    shears = [
        AffineMap(np.array([[0.5, 4.0], [0.0, 0.5]]), np.array([1.0, 0.0])),
        AffineMap(np.array([[0.5, 0.0], [4.0, 0.5]]), np.array([0.0, 1.0])),
    ]
    return IfsSystem("R2", tuple(shears))


def test_attractor_refuses_runaway_growth(monkeypatch):
    monkeypatch.setattr(fbe.ifs, "MAX_IMAGE_POINTS", 10_000)
    ifs = _shears()
    with _time_limit(1.0), pytest.raises(ResolutionError, match="10000") as ei:
        attractor(ifs, 1e-3)
    # refused at the full iteration's step, with its message
    with pytest.raises(ResolutionError) as ref:
        full_iteration(ifs, 1e-3)
    assert str(ei.value) == str(ref.value)


def test_attractor_step_images_within_cap(monkeypatch):
    # the shears' changed cells outgrow their set: a step that transformed
    # them all would make more images than the cap admits
    monkeypatch.setattr(fbe.ifs, "MAX_IMAGE_POINTS", 10_000)
    sizes = []
    images = IfsSystem.images

    def counted(self, pts):
        out = images(self, pts)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(IfsSystem, "images", counted)
    with _time_limit(1.0), pytest.raises(ResolutionError):
        attractor(_shears(), 1e-3)
    assert sizes and max(sizes) <= 10_000


@pytest.mark.parametrize("n_maps", [1, 2, 3, 4])
def test_word_tree_bound(n_maps):
    # the deepest admitted tree has at most MAX_WORDS words; one level more
    # passes it, and a huge depth is refused as soon as the count does
    depth, words = 0, 1
    while words + n_maps ** (depth + 1) <= fbe.ifs.MAX_WORDS:
        depth += 1
        words += n_maps**depth
    fbe.ifs.check_word_tree(n_maps, depth)
    for too_deep in (depth + 1, 10**9):
        with _time_limit(1.0), pytest.raises(ResolutionError):
            fbe.ifs.check_word_tree(n_maps, too_deep)
    with pytest.raises(DomainError):
        fbe.ifs.check_word_tree(n_maps, -1)


def test_attractor_f_invariance(cantor_cloud, cantor_ifs, sierpinski_cloud, sierpinski_ifs):
    for ifs, cloud in ((cantor_ifs, cantor_cloud), (sierpinski_ifs, sierpinski_cloud)):
        imgs = np.concatenate(
            [ifs.transform(i, cloud.points) for i in range(1, ifs.n_maps + 1)]
        )
        assert hausdorff_distance(imgs, cloud.points) <= 2 * cloud.epsilon


# -- chaos game ----------------------------------------------------------------------


def test_chaos_game_matches_attractor(cantor_ifs, cantor_cloud):
    orbit = chaos_game(cantor_ifs, 100_000, burn_in=64, rng_seed=1)
    cell = cantor_cloud.meta["cell"]
    assert cantor_cloud.nearest_dist(orbit.points).max() <= 3 * cell


def test_chaos_game_deterministic(cantor_ifs):
    a = chaos_game(cantor_ifs, 2000, burn_in=10, rng_seed=42)
    b = chaos_game(cantor_ifs, 2000, burn_in=10, rng_seed=42)
    assert np.array_equal(a.points, b.points)
    c = chaos_game(cantor_ifs, 2000, burn_in=10, rng_seed=43)
    assert not np.array_equal(a.points, c.points)


def test_chaos_game_sphere():
    ifs = systems.mobius_arc()
    orbit = chaos_game(ifs, 5000, rng_seed=0)
    assert np.allclose(np.linalg.norm(orbit.points, axis=1), 1.0)
    cloud = attractor(ifs, 0.002)
    bound = orbit.epsilon + cloud.epsilon
    assert hausdorff_distance(orbit.points, cloud.points) <= bound


@pytest.mark.parametrize("name", ["interval", "sierpinski", "koch", "quadratic_graph"])
def test_chaos_orbit_matches_reference_loop(name):
    # the orbit is the sequence x <- M x + b stepped in Python floats, bit
    # for bit
    ifs = systems.by_name(name)
    digits = np.random.Generator(np.random.PCG64(2)).integers(1, ifs.n_maps + 1, 3000)
    ref = sequential_orbit(ifs, digits, ifs.fixed_points()[0])
    orbit = chaos_game(ifs, 3000, rng_seed=2)
    assert orbit.points.tobytes() == ref[64:].tobytes()


@pytest.mark.parametrize("name", ["mobius_arc", "projective_line", "schottky"])
def test_chaos_sphere_orbit_matches_reference_loop(name):
    # the orbit is the plane sequence z <- f(z), each point embedded on its
    # own, bit for bit
    ifs = systems.by_name(name)
    digits = np.random.Generator(np.random.PCG64(2)).integers(1, ifs.n_maps + 1, 3000)
    z, ref = from_sphere(ifs.fixed_points()[0]), []
    for d in digits:
        z = ifs.maps[d - 1].apply_complex(z)
        ref.append(to_sphere(z)[0])
    orbit = chaos_game(ifs, 3000, rng_seed=2)
    assert orbit.points.tobytes() == np.array(ref[64:]).tobytes()


def _images(ifs, pts):
    return np.concatenate([ifs.transform(i, pts) for i in range(1, ifs.n_maps + 1)])


@pytest.mark.parametrize(
    "name",
    [
        "cantor",
        "interval",
        "sierpinski",
        "koch",
        "quadratic_graph",
        "mobius_arc",
        "projective_line",
    ],
)
def test_chaos_residual_is_hausdorff(name):
    ifs = systems.by_name(name)
    for seed in (1, 2):
        orbit = chaos_game(ifs, 5000, rng_seed=seed)
        exact = hausdorff_distance(_images(ifs, orbit.points), orbit.points)
        assert orbit.meta["residual"] == exact


def _orbit(ifs, digits, start=None):
    out = [ifs.fixed_points()[0] if start is None else np.asarray(start, dtype=float)]
    for d in digits:
        out.append(ifs.transform(int(d), out[-1][None, :])[0])
    return np.array(out)


@pytest.fixture
def query_log(monkeypatch):
    """The rows each query of a `fbe.ifs` KD-tree asked for, by the size
    of the tree: log[tree.n] is a list of row arrays."""
    log: dict[int, list] = {}

    class Logged(cKDTree):
        def query(self, x, *args, **kwargs):
            log.setdefault(self.n, []).append(np.array(x, ndmin=2))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(fbe.ifs, "cKDTree", Logged)
    return log


def _was_queried(log, size, row) -> bool:
    return any((rows == row).all(axis=1).any() for rows in log.get(size, []))


def test_orbit_residual_queries_far_rows(sierpinski_ifs, query_log):
    # a row moved off the attractor lies farther from F(out) than any
    # image lies from out, and its twin bound fails: it must be queried
    rng = np.random.default_rng(3)
    digits = rng.integers(1, 4, size=999)
    out = _orbit(sierpinski_ifs, digits)
    out[500] = (2.0, 2.0)
    imgs = _images(sierpinski_ifs, out)
    exact = hausdorff_distance(imgs, out)
    assert exact > cKDTree(out).query(imgs)[0].max()
    assert fbe.ifs._orbit_residual(imgs, out, digits)[0] == exact
    assert _was_queried(query_log, len(imgs), out[500])


def test_orbit_residual_queries_far_twin(sierpinski_ifs, query_log):
    # a twin image moved left of the orbit holds the first direction's
    # maximum alone, moved by 1.0 and by 1.5x the other rows' maximum h,
    # which a twin bound of u <= 2h would skip; it is queried both ways
    rng = np.random.default_rng(5)
    digits = rng.integers(1, 4, size=999)
    out = _orbit(sierpinski_ifs, digits)
    n = len(out)
    twins = (digits - 1) * n + np.arange(n - 1)
    j = out[1:, 0].argmin()
    assert out[j + 1, 0] == out[:, 0].min()
    base = _images(sierpinski_ifs, out)
    h = cKDTree(out).query(np.delete(base, twins, axis=0))[0].max()
    for shift in (1.0, 1.5 * h):
        imgs = base.copy()
        imgs[twins[j], 0] -= shift
        first = cKDTree(out).query(imgs)[0]
        assert first.argmax() == twins[j] and np.delete(first, twins[j]).max() == h
        query_log.clear()
        residual, queried = fbe.ifs._orbit_residual(imgs, out, digits)
        assert residual == hausdorff_distance(imgs, out) == first.max()
        # 64 seeds, the non-twin rows whose leaf-neighbour bound fails, and
        # the far twin; the orbit point out[j + 1] the other way
        assert queried == [180, 1]
        assert _was_queried(query_log, len(out), imgs[twins[j]])
        assert _was_queried(query_log, len(imgs), out[j + 1])


def test_orbit_residual_queries_far_start(sierpinski_ifs, query_log):
    # an orbit started at (2, 2): out[0] lies farther from F(out) than any
    # image lies from out, and its brute-force bound fails, so the tree of
    # F(out) is built for it alone and holds the maximum
    digits = np.random.default_rng(7).integers(1, 4, size=999)
    out = _orbit(sierpinski_ifs, digits, start=(2.0, 2.0))
    imgs = _images(sierpinski_ifs, out)
    exact = hausdorff_distance(imgs, out)
    assert exact == cKDTree(imgs).query(out[:1])[0][0] > cKDTree(out).query(imgs)[0].max()
    residual, queried = fbe.ifs._orbit_residual(imgs, out, digits)
    assert residual == exact and queried[1] == 1
    assert _was_queried(query_log, len(imgs), out[0])


def test_chaos_queried_counts(sierpinski_ifs):
    # the twins of 4935 steps are skipped; of the 9873 rows that are no
    # twin, the 64 seeds and the 451 whose leaf-neighbour bound fails are
    # queried; out[0]'s brute-force bound holds, so no tree of F(out) is built
    orbit = chaos_game(sierpinski_ifs, 5000, rng_seed=1)
    assert orbit.meta["queried"] == [515, 0]


def _residual_is_hausdorff(ifs, n, burn_in, seed, chunk=fbe.ifs._CHUNK):
    """chaos_game's residual, with chunks of `chunk` leaf positions, is the
    exact two-way Hausdorff distance of its orbit and F(orbit)."""
    saved, fbe.ifs._CHUNK = fbe.ifs._CHUNK, chunk
    try:
        orbit = chaos_game(ifs, n, burn_in=burn_in, rng_seed=seed)
    finally:
        fbe.ifs._CHUNK = saved
    exact = hausdorff_distance(_images(ifs, orbit.points), orbit.points)
    assert orbit.meta["residual"] == exact
    return orbit


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ifs=st.one_of(
        _contractive_affine(),
        st.sampled_from(["mobius_arc", "projective_line", "schottky"]).map(systems.by_name),
    ),
    n=st.integers(2, 4000),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([16, 300, fbe.ifs._CHUNK]),
)
def test_orbit_residual_is_hausdorff_on_random_orbits(ifs, n, seed, chunk):
    _residual_is_hausdorff(ifs, n, min(64, n - 1), seed, chunk)


def test_orbit_residual_edge_cases(sierpinski_ifs):
    # one map: every row but the last point's image is a twin
    half = AffineMap(np.array([[0.5, 0.1], [-0.1, 0.5]]), np.array([1.0, 0.0]))
    _residual_is_hausdorff(IfsSystem("R2", (half,)), 3000, 10, 1, chunk=128)
    # n = burn_in + 1: a one-point orbit, whose images have no twin
    orbit = _residual_is_hausdorff(sierpinski_ifs, 65, 64, 1)
    assert len(orbit.points) == 1
    # an orbit at a fixed point of both maps: h = 0 throughout, so no row
    # settles, and the queries take no bound
    ifs = IfsSystem("R1", (AffineMap([[0.5]], [0.0]), AffineMap([[1 / 3]], [0.0])))
    orbit = _residual_is_hausdorff(ifs, 3000, 64, 2, chunk=128)
    assert orbit.meta["residual"] == 0.0 and not orbit.points.any()


def test_chaos_rounds_counts(sierpinski_ifs):
    # a round computes every lane, a second finds every lane's start
    # unchanged: the lanes forget their guessed starts within one lane
    for n in (5000, 100_000):
        assert chaos_game(sierpinski_ifs, n, rng_seed=1).meta["rounds"] == 2
    # one lane is the sequential loop: exact after one round
    assert chaos_game(sierpinski_ifs, fbe.ifs.LANE_STEPS, rng_seed=1).meta["rounds"] == 1


@st.composite
def _contractive_orbit(draw):
    """A random contractive affine system on R1, R2 or R4 (2 to 4 maps,
    sigma_max up to 0.999), with digits, a start and a lane length."""
    dim = draw(st.sampled_from([1, 2, 4]))
    lam = draw(st.floats(0.05, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        u, v = (np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2))
        mat = u @ np.diag(rng.uniform(-lam, lam, dim)) @ v
        maps.append(AffineMap(mat, rng.uniform(-1.0, 1.0, dim)))
    ifs = IfsSystem(f"R{dim}", tuple(maps))
    digits = rng.integers(1, ifs.n_maps + 1, size=draw(st.integers(1, 3000)))
    x0 = draw(st.sampled_from([ifs.fixed_points()[0], rng.uniform(-3.0, 3.0, dim)]))
    return ifs, digits, x0, draw(st.sampled_from([1, 7, 64, fbe.ifs.LANE_STEPS]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_contractive_orbit())
def test_orbit_lanes_equal_sequential_orbit_affine(case):
    ifs, digits, x0, lane = case
    orbit, rounds = fbe.ifs._orbit(ifs, digits, x0, lane)
    assert orbit.tobytes() == sequential_orbit(ifs, digits, x0).tobytes()
    assert 1 <= rounds <= -(-len(digits) // lane)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["mobius_arc", "projective_line", "schottky"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    lane=st.sampled_from([1, 7, 64, fbe.ifs.LANE_STEPS]),
)
def test_orbit_lanes_equal_sequential_orbit_sphere(name, seed, n, lane):
    ifs = systems.by_name(name)
    digits = np.random.default_rng(seed).integers(1, ifs.n_maps + 1, size=n)
    x0 = from_sphere(ifs.fixed_points()[0])[0]
    orbit, rounds = fbe.ifs._orbit(ifs, digits, x0, lane)
    assert orbit.tobytes() == sequential_orbit(ifs, digits, x0).tobytes()
    assert 1 <= rounds <= -(-n // lane)


@pytest.mark.parametrize("lane", [1, 7, 64, fbe.ifs.LANE_STEPS])
def test_orbit_lanes_through_a_moebius_pole(lane):
    # z -> z/4 underflows to exactly 0 after 600 steps, z -> -1/z sends 0
    # to its pole (inf) and inf back to 0, and z -> z/4 keeps inf: the
    # planted block crosses lane boundaries, so lanes start at 0 and at inf
    quarter, flip = MoebiusMap(1, 0, 0, 4), MoebiusMap(0, -1, 1, 0)
    third = MoebiusMap(2, 1j, 0.5, 0.75 + 0.25j)
    ifs = IfsSystem("sphere", (quarter, flip, third))
    rng = np.random.default_rng(11)
    planted = [1] * 600 + [2, 1, 1, 2, 2, 1, 3]
    digits = np.concatenate([rng.integers(1, 4, 500), planted, rng.integers(1, 4, 900)])
    x0 = 0.3 + 0.1j
    ref = sequential_orbit(ifs, digits, x0)
    assert np.isinf(ref).sum() == 5 and (ref == 0).any()
    assert fbe.ifs._orbit(ifs, digits, x0, lane)[0].tobytes() == ref.tobytes()


def test_chaos_game_refuses_orbits_past_the_image_cap(monkeypatch, sierpinski_ifs):
    # refused before any digit is drawn: nothing of the orbit is allocated
    tracemalloc.start()
    try:
        with _time_limit(1.0), pytest.raises(ResolutionError, match="cap 4194304"):
            chaos_game(sierpinski_ifs, 10**13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # its digits alone would take 80 TB
    # F(X) has n * n_maps rows: at the cap an orbit runs, one point past it not
    monkeypatch.setattr(fbe.ifs, "MAX_IMAGE_POINTS", 3000)
    assert len(chaos_game(sierpinski_ifs, 1000, burn_in=0).points) == 1000
    with pytest.raises(ResolutionError, match="3003 images, cap 3000"):
        chaos_game(sierpinski_ifs, 1001)


def test_cloud_builds_stay_within_their_traced_peaks(sierpinski_ifs):
    # the traced peaks of the cloud workload's sierpinski builds: the
    # residual gathers F(X) chunk by chunk and the repeat test keeps no
    # points, so a change that gathers it all at once or keeps each set's
    # points fails here before the benchmark's peak_rss_mb moves
    builds = [
        (lambda: chaos_game(sierpinski_ifs, 100_000, rng_seed=1), 12.97),
        (lambda: attractor(sierpinski_ifs, 1e-3), 11.45),
    ]
    for build, cap_mib in builds:
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap_mib * 2**20


def test_chaos_game_single_map():
    ifs = IfsSystem("R1", (AffineMap(np.array([[0.5]]), np.array([0.5])),))
    orbit = chaos_game(ifs, 500, burn_in=100, rng_seed=0)
    assert np.abs(orbit.points - 1.0).max() < 1e-9


# -- coding map ----------------------------------------------------------------------


def test_coding_map_interval_values(interval_ifs):
    assert coding_map(interval_ifs, A("(1)*")) == pytest.approx([0.0], abs=1e-9)
    assert coding_map(interval_ifs, A("(2)*")) == pytest.approx([1.0], abs=1e-9)
    assert coding_map(interval_ifs, A("-1.(2)*")) == pytest.approx([2.0], abs=1e-9)
    assert coding_map(interval_ifs, A("1.(2)*")) == pytest.approx([0.5], abs=1e-9)


def test_coding_map_periodic_fixed_point(interval_ifs, rng):
    # pi(overline(w)) is the fixed point of f_w: cross-check by solving directly
    for _ in range(20):
        k = int(rng.integers(1, 4))
        w = tuple(int(d) for d in rng.choice([1, 2], size=k))
        mat, off = np.eye(1), np.zeros(1)
        for d in w:  # f_w = f_{w_1} o ... o f_{w_k}
            m = interval_ifs.map_for(d)
            mat, off = mat @ m.matrix, mat @ m.offset + off
        fixed = AffineMap(mat, off).fixed_point()
        val = coding_map(interval_ifs, Address((), w))
        assert np.linalg.norm(val - fixed) < 1e-9


def test_coding_map_domain_errors(interval_ifs):
    with pytest.raises(DomainError):
        coding_map(interval_ifs, A("1.2"))  # finite word
    with pytest.raises(DomainError):
        coding_map(interval_ifs, A("(-1)*"))  # negative tail


@pytest.mark.parametrize("name", sorted(systems.SYSTEMS))
def test_coding_map_matches_orbit_limit(name):
    # f_u(f_p^400(b)) by plain loops: every period of <= 4 digits of a
    # built-in contracts by far more than 2^-53 over 400 repetitions
    ifs = systems.by_name(name)
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(40):
        addr = random_address(rng, ifs.n_maps, max_pre=4, max_period=4)
        oracle = orbit_limit(ifs, addr, reps=400)
        err = np.linalg.norm(coding_map(ifs, addr) - oracle)
        assert err <= 1e-12 * max(1.0, np.linalg.norm(oracle)), str(addr)


def test_coding_map_sphere(cantor_ifs):
    ifs = systems.projective_line()
    val = coding_map(ifs, A("(1)*"))
    z = from_sphere(val[None, :])[0]
    assert z.real == pytest.approx(0.0, abs=1e-7)
    assert abs(z.imag) < 1e-7


# -- hausdorff -----------------------------------------------------------------------


def test_hausdorff_examples():
    assert hausdorff_distance(np.array([[0.0]]), np.array([[1.0]])) == 1.0
    a = np.random.default_rng(0).normal(size=(40, 2))
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_level_covers():
    k = 3
    a = np.array([[float(q)] for q in cantor_level_points(k)])
    b = np.array([[float(q)] for q in cantor_level_points(k + 1)])
    assert hausdorff_distance(a, b) == pytest.approx(3.0 ** -(k + 1))


def _brute_hausdorff(a, b):
    diff = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(diff.min(axis=1).max(), diff.min(axis=0).max())


def test_hausdorff_matches_bruteforce(rng):
    a = rng.normal(size=(50, 2))
    b = rng.normal(size=(60, 2))
    assert hausdorff_distance(a, b) == _brute_hausdorff(a, b)


@st.composite
def _grid_sets(draw):
    """Two sets of rows on a coarse grid, with 1 to 4 columns: duplicate
    rows and tied nearest points are common. b also holds 0, 20 or 200
    rows shifted off a's grid, most of them nearest to no row of a
    (orphans), so that past the 64 seed rows some are queried bounded."""
    dim = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(n):
        return rng.integers(-3, 4, (n, dim)) * scale

    a = rows(draw(st.integers(1, 200)))
    b = rows(draw(st.integers(1, 200)))
    far = rows(draw(st.sampled_from([0, 20, 200]))) * draw(st.sampled_from([1, 7]))
    return a, np.concatenate([b, far + 10 * scale])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_grid_sets())
def test_hausdorff_exact_on_ties_duplicates_and_orphans(sets):
    a, b = sets
    assert hausdorff_distance(a, b) == _brute_hausdorff(a, b)
    assert hausdorff_distance(b, a) == _brute_hausdorff(b, a)


def test_hausdorff_empty_error():
    with pytest.raises(DomainError):
        hausdorff_distance(np.empty((0, 1)), np.array([[1.0]]))


def test_coding_map_stops_at_float_resolution():
    # a prefix with an inverse digit before a three-digit period on a
    # Moebius system: f_u(Fix f_p) returns within the limit, and the shift
    # diagram holds for every signed digit
    from fbe.addresses import sigma

    ifs = systems.mobius_arc()
    addr = Address((1, 2, 1, -2), (1, 2, 2))
    with _time_limit(1.0):
        pi = coding_map(ifs, addr)
    for n in (-2, -1, 1, 2):
        with _time_limit(1.0):
            lhs = coding_map(ifs, sigma(n, addr))
        assert np.linalg.norm(lhs - ifs.transform(n, pi[None, :])[0]) <= 1e-7


def _rotation_r2():
    quarter_turn = AffineMap(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    return IfsSystem("R2", (quarter_turn, AffineMap(0.5 * np.eye(2), [0.5, 0.0])))


@pytest.mark.parametrize(
    "ifs",
    [_rotation_r2(), IfsSystem("sphere", (MoebiusMap(1.0, 1.0, 0.0, 1.0),))],
    ids=["affine-rotation", "moebius-parabolic"],
)
def test_coding_map_refuses_period_without_attracting_fixed_point(ifs):
    # the same rule refuses the attractor: Fix f_1 = pi((1)*) is its seed
    with _time_limit(1.0), pytest.raises(DomainError):
        coding_map(ifs, A("(1)*"))
    with _time_limit(1.0), pytest.raises(DomainError):
        attractor(ifs, 1e-3)


def test_verify_mobius_arc_seed_10():
    # seed 10 draws the address of the test above
    from fbe.verify import run_verify

    ifs = systems.mobius_arc()
    with _time_limit(30.0):
        report = run_verify(ifs, cell=0.002, system_name="mobius_arc", rng_seed=10)
    assert report.passed, report.lines()


# -- dual ----------------------------------------------------------------------------


def test_dual_involution(cantor_ifs, koch_ifs):
    for ifs in (cantor_ifs, koch_ifs):
        dd = ifs.dual().dual()
        for m, m2 in zip(ifs.maps, dd.maps):
            assert np.allclose(m.matrix, m2.matrix)
            assert np.allclose(m.offset, m2.offset)


def test_dual_moebius_involution():
    ifs = systems.mobius_arc()
    dd = ifs.dual().dual()
    for m, m2 in zip(ifs.maps, dd.maps):
        assert np.allclose(m.matrix(), m2.matrix())


def test_dual_scalar():
    ifs = IfsSystem("R1", (AffineMap(np.array([[1 / 3]]), np.array([0.0])),))
    d = ifs.dual()
    assert d.maps[0].matrix[0, 0] == pytest.approx(3.0)


# -- semiconjugacy -----------------------------------------------------------------


def test_semiconjugacy_spec_examples(interval_ifs):
    # n=1, iota=(2)*: pi(sigma_1((2)*)) = f_1(1) = 1/2
    from fbe.addresses import sigma

    lhs = coding_map(interval_ifs, sigma(1, A("(2)*")))
    assert lhs == pytest.approx([0.5], abs=1e-9)
    # n=-1, iota=1.(2)*: cancellation gives (2)* with pi = 1 = f_1^{-1}(1/2)
    lhs = coding_map(interval_ifs, sigma(-1, A("1.(2)*")))
    assert lhs == pytest.approx([1.0], abs=1e-9)


def test_semiconjugacy_reports(interval_ifs, cantor_ifs):
    for ifs in (interval_ifs, cantor_ifs):
        res = verify_semiconjugacy(ifs, n_samples=40, rng_seed=2)
        assert res.max() <= 1e-9, res
        assert res.shape == (40 * 2 * ifs.n_maps,)


def test_random_address_validity(rng):
    for _ in range(200):
        addr = random_address(rng, 3, tail="any")
        from fbe.addresses import validate

        assert validate(addr, 3).in_I


# -- moebius arc invariant -------------------------------------------------------------


def test_mobius_arc_on_circle():
    ifs = systems.mobius_arc()
    cloud = attractor(ifs, 1e-3)
    z = from_sphere(cloud.points)
    residual = np.abs(np.abs(z - 1.5j) - 0.5)
    assert residual.max() <= 10 * cloud.epsilon
