import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

import fbe.ifs
from fbe import systems
from fbe.addresses import Address, parse_address
from fbe.errors import DomainError, NoConvergenceError, ResolutionError
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
from fbe.maps import AffineMap, MoebiusMap, from_sphere

from conftest import _time_limit
from oracles import cantor_level_points, orbit_limit

A = parse_address


# -- apply_word ------------------------------------------------------------------


def test_apply_word_examples(cantor_ifs, interval_ifs):
    assert cantor_ifs.apply_word_point((1,), [2.0]) == pytest.approx([2 / 3])
    assert cantor_ifs.apply_word_point((), [0.7]) == pytest.approx([0.7])
    assert interval_ifs.apply_word_point((-2,), [0.5]) == pytest.approx([0.0])


def test_apply_word_concatenation(koch_ifs, rng):
    for _ in range(30):
        w1 = tuple(int(d) for d in rng.choice([-2, -1, 1, 2], size=3))
        w2 = tuple(int(d) for d in rng.choice([-2, -1, 1, 2], size=3))
        x = rng.normal(size=2)
        lhs = koch_ifs.apply_word_point(w1 + w2, x)
        rhs = koch_ifs.apply_word_point(w1, koch_ifs.apply_word_point(w2, x))
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_inverse_word_identity(interval_ifs, koch_ifs, rng):
    for ifs, dim in ((interval_ifs, 1), (koch_ifs, 2)):
        for _ in range(20):
            k = int(rng.integers(1, 9))
            w = tuple(int(d) for d in rng.choice([1, 2], size=k))
            x = rng.normal(size=dim)
            inv = tuple(-d for d in reversed(w))
            back = ifs.apply_word_point(w, ifs.apply_word_point(inv, x))
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
    # cantor at 3^-8 repeats after 8 steps
    monkeypatch.setattr(fbe.ifs, "MAX_STEPS", 4)
    with pytest.raises(NoConvergenceError, match="after 4 iterations") as ei:
        attractor(cantor_ifs, 3.0**-8)
    assert 0.0 < ei.value.residual < np.inf


@pytest.mark.parametrize("name", sorted(systems.SYSTEMS))
def test_attractor_is_exact_fixed_point(name):
    # S(U) = grid_dedup(F(U), cell) returns the cloud bit for bit
    cell = {"cantor": 3.0**-8, "triangle": 2.0**-6, "quadratic_graph": 1 / 16}
    cell = cell.get(name, 2.0**-7)
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    imgs = np.concatenate(
        [ifs.transform(i, cloud.points) for i in range(1, ifs.n_maps + 1)]
    )
    again = grid_dedup(imgs, cell)
    assert again.shape == cloud.points.shape
    assert again.tobytes() == cloud.points.tobytes()


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


def test_attractor_koch_two_cycle(koch_ifs):
    cloud = attractor(koch_ifs, 2.0**-8)
    assert cloud.meta["cycle"] == 2
    with _time_limit(30.0):
        cloud = attractor(koch_ifs, 1e-3)
    assert cloud.meta["cycle"] == 2


def test_attractor_refuses_runaway_growth(monkeypatch):
    # each shear attracts, but their products expand
    monkeypatch.setattr(fbe.ifs, "MAX_IMAGE_POINTS", 10_000)
    shears = [
        AffineMap(np.array([[0.5, 4.0], [0.0, 0.5]]), np.array([1.0, 0.0])),
        AffineMap(np.array([[0.5, 0.0], [4.0, 0.5]]), np.array([0.0, 1.0])),
    ]
    ifs = IfsSystem("R2", tuple(shears))
    with _time_limit(1.0), pytest.raises(ResolutionError, match="10000"):
        attractor(ifs, 1e-3)


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


def _images(ifs, pts):
    return np.concatenate([ifs.transform(i, pts) for i in range(1, ifs.n_maps + 1)])


@pytest.mark.parametrize("name", ["cantor", "sierpinski", "mobius_arc"])
def test_chaos_residual_is_hausdorff(name):
    ifs = systems.by_name(name)
    for seed in (1, 2):
        orbit = chaos_game(ifs, 5000, rng_seed=seed)
        exact = hausdorff_distance(_images(ifs, orbit.points), orbit.points)
        assert orbit.meta["residual"] == exact


def test_orbit_residual_queries_far_rows(sierpinski_ifs):
    # a row moved off the attractor lies farther from F(out) than any
    # image lies from out, and its twin bound fails: it must be queried
    rng = np.random.default_rng(3)
    digits = rng.integers(1, 4, size=999)
    out = [sierpinski_ifs.fixed_points()[0]]
    for d in digits:
        out.append(sierpinski_ifs.transform(int(d), out[-1][None, :])[0])
    out = np.array(out)
    out[500] = (2.0, 2.0)
    imgs = _images(sierpinski_ifs, out)
    exact = hausdorff_distance(imgs, out)
    assert exact > cKDTree(out).query(imgs)[0].max()
    assert fbe.ifs._orbit_residual(imgs, out, digits) == exact


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


def test_hausdorff_matches_bruteforce(rng):
    a = rng.normal(size=(50, 2))
    b = rng.normal(size=(60, 2))
    diff = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    brute = max(diff.min(axis=1).max(), diff.min(axis=0).max())
    assert hausdorff_distance(a, b) == pytest.approx(brute, rel=1e-12)


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
        rep = verify_semiconjugacy(ifs, n_samples=40, tol=1e-9, rng_seed=2)
        assert rep.passed, rep.failures
        assert rep.max_residual <= 1e-9
        assert rep.n_checks == 40 * 2 * ifs.n_maps


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
