import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

import fbe.ifs
import fbe.manifold
import fbe.verify
from fbe import io, manifold, systems
from fbe.addresses import parse_address
from fbe.basin import finite_continuation
from fbe.cli import main
from fbe.errors import NonInvertibleMapError, SpecFormatError, StaleCacheError
from fbe.ifs import AttractorCloud, attractor, chaos_game
from fbe.maps import from_sphere

from conftest import _time_limit
from oracles import format_rows


@pytest.fixture()
def cantor_spec_file(tmp_path):
    path = tmp_path / "cantor.json"
    io.save_spec(systems.cantor(), path)
    return path


# -- spec loading --------------------------------------------------------------


def test_load_spec_cantor(cantor_spec_file):
    ifs = io.load_spec(cantor_spec_file)
    assert ifs.n_maps == 2
    assert ifs.lam() == pytest.approx(1 / 3)
    assert ifs.space == "R1"


def test_load_spec_singular_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "space": "R1",
                "maps": [
                    {"type": "affine", "matrix": [[0.5]], "offset": [0.0]},
                    {"type": "affine", "matrix": [[0.0]], "offset": [0.5]},
                ],
            }
        )
    )
    with pytest.raises(NonInvertibleMapError) as ei:
        io.load_spec(path)
    assert ei.value.index == 2


def test_load_spec_parse_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": "R1",\n  "maps": [}')
    with pytest.raises(SpecFormatError) as ei:
        io.load_spec(path)
    assert "line 2" in str(ei.value)


def test_load_spec_moebius_normalised(tmp_path):
    path = tmp_path / "arc.json"
    io.save_spec(systems.mobius_arc(), path)
    ifs = io.load_spec(path)
    for m in ifs.maps:
        assert m.a * m.d - m.b * m.c == pytest.approx(1.0)


def test_spec_round_trip_hash(tmp_path, cantor_spec_file):
    ifs = io.load_spec(cantor_spec_file)
    assert ifs.ifs_hash() == systems.cantor().ifs_hash()


# -- attractor cache ------------------------------------------------------------


def test_cache_round_trip(tmp_path, cantor_ifs, cantor_cloud):
    path = tmp_path / "c.cloud"
    io.cache_attractor(cantor_ifs, cantor_cloud, path)
    loaded = io.load_cached(path, cantor_ifs)
    assert np.array_equal(loaded.points, cantor_cloud.points)
    assert loaded.epsilon == cantor_cloud.epsilon


def test_cache_stale_hash(tmp_path, cantor_ifs, cantor_cloud, interval_ifs):
    path = tmp_path / "c.cloud"
    io.cache_attractor(cantor_ifs, cantor_cloud, path)
    with pytest.raises(StaleCacheError):
        io.load_cached(path, interval_ifs)


def test_cache_concurrent_reads(tmp_path, cantor_ifs, cantor_cloud):
    path = tmp_path / "c.cloud"
    io.cache_attractor(cantor_ifs, cantor_cloud, path)
    results = [None] * 4

    def read(i):
        results[i] = io.load_cached(path, cantor_ifs)

    threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        assert np.array_equal(r.points, cantor_cloud.points)


def test_cache_bytes_and_round_trip(tmp_path, sierpinski_ifs):
    # more rows than one write chunk, with values whose shortest round-trip
    # text differs from their 17-digit text
    edge = [-0.0, 5e-324, 1e-5, np.pi, -2.5e300, 1 / 3]
    rng = np.random.Generator(np.random.PCG64(4))
    pts = rng.normal(size=(5000, 2))
    pts[4093:4099] = np.array([edge, edge[::-1]]).T  # across the first chunk end
    cloud = AttractorCloud(pts, 1 / 7)
    path = tmp_path / "c.cloud"
    io.cache_attractor(sierpinski_ifs, cloud, path)
    lines = [f"FBE-CLOUD v1 {sierpinski_ifs.ifs_hash()} {1 / 7:.17g} 5000"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in pts]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    loaded = io.load_cached(path, sierpinski_ifs)
    assert np.array_equal(loaded.points, pts) and loaded.epsilon == 1 / 7
    assert np.signbit(loaded.points[4093, 0])


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097])
@pytest.mark.parametrize("name", ["cantor", "sierpinski", "mobius_arc", "quadratic_graph"])
def test_cache_bytes_match_per_row_format(tmp_path, name, rows):
    # 1-, 2-, 3- and 4-D clouds around the 4096-row write chunk
    ifs = systems.by_name(name)
    rng = np.random.Generator(np.random.PCG64(rows))
    pts = rng.normal(size=(rows, ifs.dim)) * 10.0 ** rng.integers(-300, 300, (rows, 1))
    pts.flat[-3:] = [-0.0, 5e-324, 1e300][-pts.size :]
    path = tmp_path / "c.cloud"
    io.cache_attractor(ifs, AttractorCloud(pts, 0.1), path)
    text = f"FBE-CLOUD v1 {ifs.ifs_hash()} {0.1:.17g} {rows}\n"
    text += "".join(" ".join("%.17g" % v for v in row) + "\n" for row in pts)
    assert path.read_bytes() == text.encode()
    loaded = io.load_cached(path, ifs)
    assert loaded.points.tobytes() == pts.tobytes() and loaded.epsilon == 0.1


# values whose text is easy to get wrong: signed zeros, subnormals, values
# near the float64 limits, and thirds whose 17-digit text is not shortest
_POOL = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1 / 3, -2 / 3, 0.5]
_POOL += [1e300, -1.7976931348623157e308, 1.7976931348623157e308, 3e299]
_DIMS = {1: "cantor", 2: "sierpinski", 3: "mobius_arc", 4: "quadratic_graph"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.sampled_from([1, 4095, 4096, 4097, 8193]),
    kinds=st.lists(st.sampled_from(["pool", "distinct"]), min_size=1, max_size=4),
    pool_size=st.integers(1, len(_POOL)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cache_writer_matches_format_rows(tmp_path_factory, rows, kinds, pool_size, seed):
    # grid-like columns drawn from a few values, and all-distinct ones, in
    # any order: the writer's bytes are those of formatting every value
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = rng.permutation(np.array(_POOL))[:pool_size]
    cols = [
        rng.choice(pool, rows)
        if kind == "pool"
        else rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
        for kind in kinds
    ]
    pts = np.column_stack(cols)
    ifs = systems.by_name(_DIMS[pts.shape[1]])
    path = tmp_path_factory.mktemp("cloud") / "c.cloud"
    io.cache_attractor(ifs, AttractorCloud(pts, 0.25), path)
    row = " ".join(["%.17g"] * pts.shape[1]) + "\n"
    text = f"FBE-CLOUD v1 {ifs.ifs_hash()} 0.25 {rows}\n"
    text += "".join(format_rows(row, pts.T))
    assert path.read_bytes() == text.encode()
    assert io.load_cached(path, ifs).points.tobytes() == pts.tobytes()


@pytest.mark.parametrize("values, grid", [(2047, True), (2048, False)])
def test_cache_writer_grid_rule(values, grid):
    # the grid path takes a column with at most half as many distinct
    # values as rows; -0.0 and 0.0 count as two, so the column has values + 1
    col = np.arange(4096) % values + 0.0
    col[0] = -0.0
    tables = io._grid_text([np.ones(4096), col])
    assert (tables is not None) == grid
    if grid:
        assert tables[1][1][:2].tolist() == ["-0\n", "0\n"]


def test_cache_writer_signed_zeros(tmp_path, sierpinski_ifs):
    # an off-grid cloud with repeated zeros: the `%` text of each distinct
    # bit pattern is reused, and -0.0 keeps its own
    rng = np.random.Generator(np.random.PCG64(5))
    pts = rng.random((5000, 2))
    pts[::3, 0], pts[::5, 1] = 0.0, -0.0
    path = tmp_path / "c.cloud"
    io.cache_attractor(sierpinski_ifs, AttractorCloud(pts, 0.25), path)
    assert io._grid_text(pts.T) is None
    rows = path.read_text().splitlines()[1:]
    assert rows == ["%.17g %.17g" % tuple(r) for r in pts]
    assert rows[0] == "0 -0" and rows[5].endswith(" -0")


# `%.17g` edge cases: signed zeros and the smallest subnormal; 1e-06, whose
# 17 digits (9.9999999999999995e-07) fall below its power of ten; the
# largest double below 1; the half-even ties 1e15 + 0.25 and 1e15 + 0.75;
# 1e16; and both sides of the numpy range's bounds 1e-4 and 1e17
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-06, 0.99999999999999994, 1e15 + 0.25]
_EDGES += [1e15 + 0.75, 1e16, -1e16, 1e-4, 1e17]
_EDGES += [np.nextafter(b, t) for b in (1e-4, 1e17) for t in (0.0, np.inf)]


def _slot_text(values, pad=0):
    # pad: in-range values after `values`, so that the values outside
    # [1e-4, 1e17) share their batch with the numpy path
    padded = np.concatenate((values, np.full(pad, 1 / 3)))
    text = [bytes(s).replace(b"\0", b"").decode() for s in io.float_slots(padded)]
    assert text[len(values) :] == ["0.33333333333333331"] * pad
    return text[: len(values)]


@pytest.mark.parametrize("v", _EDGES)
def test_float_slots_edges(v):
    assert _slot_text([v, -v]) == ["%.17g" % v, "%.17g" % -v]
    assert _slot_text([v, -v], pad=1) == ["%.17g" % v, "%.17g" % -v]


def test_float_slots_powers_of_ten():
    # floor(log10 |v|) is one too high just below a power of ten (log10
    # rounds up to the integer), so the exponent must be corrected
    powers = 10.0 ** np.arange(-4, 17)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, 1e20)])
    values = np.concatenate([values, -values])
    assert _slot_text(values) == ["%.17g" % v for v in values.tolist()]


# floats of the numpy range [1e-4, 1e17), either sign: raw bit patterns
# and st.floats() over the whole exponent range seldom fall in it
_IN_RANGE = st.builds(
    lambda v, negative: -v if negative else v,
    st.floats(1e-4, 1e17, exclude_max=True),
    st.booleans(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
    st.lists(_IN_RANGE, max_size=50),
)
def test_float_slots_match_percent(bits, floats, in_range):
    # any float64: raw bit patterns (the non-finite ones dropped), floats,
    # and floats the digits are computed for in numpy
    values = np.array(bits, np.uint64).view(np.float64)
    values = np.concatenate((values[np.isfinite(values)], floats, in_range))
    expected = ["%.17g" % v for v in values.tolist()]
    assert _slot_text(values) == expected
    assert _slot_text(in_range) == ["%.17g" % v for v in in_range]


def test_float_slots_across_chunks():
    # every exponent of the numpy path and both sides of it, over more
    # values than one 4096-value batch
    rng = np.random.Generator(np.random.PCG64(11))
    values = rng.random(9000) * 10.0 ** rng.integers(-7, 20, 9000)
    values[rng.random(9000) < 0.5] *= -1
    values[::97] = np.round(values[::97])
    assert _slot_text(values) == ["%.17g" % v for v in values.tolist()]


@pytest.mark.parametrize("top", [1, 10, 9999, 10**4, 10**8 + 1, 2**62])
def test_int_rows_match_format_rows(top):
    # one to five four-digit groups, zeros and group boundaries included
    rng = np.random.Generator(np.random.PCG64(top))
    cols = [rng.integers(0, top, 5000, endpoint=True) for _ in range(3)]
    cols[0][:4] = [0, top, 9999 % (top + 1), 10**4 % (top + 1)]
    text = b"".join(io.int_rows(cols)).decode()
    assert text == "".join(format_rows("%d,%d,%d\n", cols))
    text = b"".join(io.int_rows(cols[1:2])).decode()
    assert text == "".join(format_rows("%d\n", cols[1:2]))


def test_cache_header_format(tmp_path, cantor_ifs, cantor_cloud):
    path = tmp_path / "c.cloud"
    io.cache_attractor(cantor_ifs, cantor_cloud, path)
    header = path.read_text().splitlines()[0].split()
    assert header[0] == "FBE-CLOUD" and header[1] == "v1"
    assert header[2] == cantor_ifs.ifs_hash()
    assert int(header[4]) == cantor_cloud.points.shape[0]


# -- CLI -------------------------------------------------------------------------


def test_cli_code_sigma(capsys):
    assert main(["code", "sigma", "-1", "(2)*"]) == 0
    assert capsys.readouterr().out.strip() == "-1.(2)*"


def test_cli_code_metric(capsys):
    assert main(["code", "metric", "(1)*", "(2)*"]) == 0
    assert capsys.readouterr().out.startswith("1/2")


def test_cli_code_classify(capsys):
    assert main(["code", "classify", "-1.-1.(2)*", "--n-maps", "2"]) == 0
    flags = json.loads(capsys.readouterr().out)
    assert flags["in_Ihat"] and flags["in_Jplus"] and not flags["in_Iplus"]


def test_cli_code_pi(capsys, cantor_spec_file):
    assert main(["code", "pi", "-1.(2)*", "--ifs", str(cantor_spec_file)]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(3.0, abs=1e-8)  # f_1^{-1}(1) = 3


def test_cli_code_pi_refuses_period_without_attracting_fixed_point(tmp_path, capsys):
    # f_1 is a quarter turn: (1)* has no limit point, so pi exits 2 at once
    maps = [
        {"type": "affine", "matrix": [[0.0, -1.0], [1.0, 0.0]], "offset": [0.0, 0.0]},
        {"type": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [0.5, 0.0]},
    ]
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps({"space": "R2", "maps": maps}))
    assert main(["code", "pi", "(1)*", "--ifs", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fbe: error: ")


def test_cli_fastbasin_writes_pgm(tmp_path, capsys):
    out = tmp_path / "fb.pgm"
    csv = tmp_path / "fb.csv"
    rc = main(
        [
            "fastbasin",
            "--ifs",
            "cantor",
            "--region",
            "-3,3",
            "--grid",
            "512",
            "--depth",
            "2",
            "--cell",
            str(3.0**-8),
            "--out",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n512 1\n255\n")
    assert sum(1 for b in data[len(b"P5\n512 1\n255\n") :] if b > 0) > 0
    assert csv.read_text().splitlines()[0] == "ix,iy,depth"


def test_cli_fastbasin_deterministic(tmp_path):
    outs = []
    for name in ("a.pgm", "b.pgm"):
        out = tmp_path / name
        main(
            [
                "fastbasin",
                "--ifs",
                "interval",
                "--region",
                "-2,3",
                "--grid",
                "256",
                "--depth",
                "2",
                "--out",
                str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_manifold_dist(capsys):
    rc = main(
        [
            "manifold",
            "dist",
            "--ifs",
            "interval",
            "--cell",
            "0.0001",
            "--a",
            "-1:0.75",
            "--b",
            "-2.-1:0.625",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_X"] == pytest.approx(0.0, abs=1e-9)
    assert out["d_L"] == pytest.approx(1.0, abs=1e-3)
    assert out["common_prefix"] == ""
    assert out["error_bound"] > 0


def test_cli_manifold_leaves(capsys):
    rc = main(["manifold", "leaves", "--ifs", "interval", "--depth", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,count,proj_min,proj_max"
    assert len(lines) == 4  # header + 3 leaves


def test_cli_manifold_leaves_sphere(tmp_path):
    # a sphere system's boxes are drawn in the complex plane, the frame of
    # its rasters: the mobius_arc leaves lie on the arc |z - 3i/2| = 1/2
    out = tmp_path / "leaves.csv"
    argv = ["manifold", "leaves", "--ifs", "mobius_arc", "--cell", "0.002"]
    assert main(argv + ["--depth", "1", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "theta,count,min_x,min_y,max_x,max_y"
    ifs = systems.mobius_arc()
    cloud = attractor(ifs, 0.002)
    for row, theta in zip(rows, manifold.enumerate_leaves(2, 1), strict=True):
        pts = manifold.leaf_projection(ifs, cloud, theta)
        count, *box = row.split(",")[1:]
        assert int(count) == len(pts)
        z = from_sphere(pts)
        want = [z.real.min(), z.imag.min(), z.real.max(), z.imag.max()]
        assert [float(v) for v in box] == pytest.approx(want, rel=1e-8)
        assert 1.0 - 1e-2 <= want[1] and want[3] <= 2.0 + 1e-2


def test_cli_verify_interval(tmp_path):
    report = tmp_path / "report.json"
    assert (
        main(["verify", "--ifs", "interval", "--cell", "0.002", "--json", str(report)])
        == 0
    )
    checks = json.loads(report.read_text())
    assert all(c["status"] in ("pass", "skip") for c in checks)
    assert {"name", "tag", "status", "residual", "tolerance", "runtime"} <= set(
        checks[0]
    )
    # the benchmark reads a missing check as 0.0, so its list must follow
    # the report's names and order
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert tuple(c["name"] for c in checks) == bench.VERIFY_CHECKS


def test_benchmark_hooks_resolve():
    # the benchmark's tracer wraps these names; a rename here would leave
    # its per-layer metrics silently empty
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    for cls, attr, _, _ in tracing.METHODS:
        assert attr in vars(cls), (cls.__name__, attr)
    for module, _ in tracing.KDTREES:
        assert hasattr(module, "cKDTree"), module.__name__


# A child interpreter: whether a module is loaded depends on all that the
# process ran before. It prints whether scipy.spatial is loaded after
# commands that build no KD-tree, and again after one that does.
_LAZY_SCIPY = """
import contextlib, io, sys
import fbe, fbe.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert fbe.cli.main(list(argv)) == 0

print("scipy" in sys.modules)
run("attractor", "--ifs", "cantor", "--cell", "0.01")
run("fastbasin", "--ifs", "interval", "--cell", "0.01", "--region", "-3,4", "--grid", "64")
print("scipy.spatial" in sys.modules)
run("attractor", "--ifs", "cantor", "--chaos", "2000")
print("scipy.spatial" in sys.modules)
"""


def test_scipy_spatial_loads_at_the_first_tree():
    env = {k: v for k, v in os.environ.items() if k != io.CACHE_ENV}
    env["PYTHONPATH"] = str(Path(fbe.ifs.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    # the Hutchinson attractor's stop rule and the raster build no tree;
    # the chaos game's residual does
    assert child.stdout.split() == ["False", "False", "True"]


def test_kdtree_helper_builds_scipy_trees_uncounted_by_scipy_spatial(monkeypatch):
    pts = np.random.default_rng(0).random((50, 2))
    assert isinstance(fbe.ifs.cKDTree(pts), scipy.spatial.cKDTree)
    # fbe takes the class from its defining module, so a wrapper on the
    # public name sees none of fbe's trees
    seen, fbe_builds = [], []
    real = scipy.spatial.cKDTree

    def counted(*args, **kwargs):
        seen.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
    for module in (fbe.ifs, fbe.manifold):
        helper = module.cKDTree

        def counted_fbe(*args, helper=helper, **kwargs):
            fbe_builds.append(1)
            return helper(*args, **kwargs)

        monkeypatch.setattr(module, "cKDTree", counted_fbe)
    ifs = systems.interval()
    manifold.branch_points(ifs, attractor(ifs, 2.0**-6), 2)
    assert fbe_builds and not seen


def test_benchmark_verify_checks_match_run_verify():
    # the benchmark reads each check's time by name; a renamed or dropped
    # check would be reported as 0.0 s instead of failing
    from fbe.verify import run_verify

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spec.py"
    spec = importlib.util.spec_from_file_location("perfbench_spec", path)
    bench_spec = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_spec)
    ifs = systems.interval()
    report = run_verify(ifs, cell=2.0**-6)
    assert tuple(c.name for c in report.checks) == bench_spec.VERIFY_CHECKS


def test_cli_verify_r4_skips_raster_membership(tmp_path):
    # an R4 raster is a projection: its cell centres are not points of the space
    report = tmp_path / "report.json"
    argv = ["verify", "--ifs", "quadratic_graph", "--cell", "0.125"]
    assert main(argv + ["--json", str(report)]) == 0
    status = {c["name"]: c["status"] for c in json.loads(report.read_text())}
    assert status.pop("raster-membership-agreement") == "skip"
    assert set(status.values()) == {"pass"}


def test_cli_verify_nan_residual_is_null(tmp_path, monkeypatch):
    # a NaN residual fails its check and is written as null: strict JSON
    # has no NaN
    real = fbe.verify.manifold_distance
    monkeypatch.setattr(
        fbe.verify,
        "manifold_distance",
        lambda *args: dataclasses.replace(real(*args), d_L=np.nan),
    )
    report = tmp_path / "report.json"
    argv = ["verify", "--ifs", "interval", "--cell", "0.015625", "--json", str(report)]
    assert main(argv) == 1

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    checks = json.loads(report.read_text(), parse_constant=refuse)
    nulls = {c["name"] for c in checks if c["residual"] is None}
    assert nulls == {"manifold-triangle", "same-sheet-isometry", "projection-contraction"}
    assert all(c["status"] == "fail" for c in checks if c["name"] in nulls)


def test_cli_continuation(tmp_path, capsys):
    out = tmp_path / "cont.cloud"
    rc = main(
        [
            "continuation",
            "--ifs",
            "interval",
            "--theta",
            "(1)*",
            "--k",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "k=3" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.startswith("FBE-CLOUD v1")
    # three inverse maps of Lipschitz constant 2 scale the resolution by 8
    ifs = systems.interval()
    cloud = attractor(ifs, 1e-3)
    assert float(header.split()[3]) == 8 * cloud.epsilon


def test_cli_continuation_bbox_past_rounding_range(capsys):
    # interval's inverse maps double per digit, so at k = 1023 every point
    # is past 1.8e302, where rounding to 6 decimals would overflow; the
    # finite points print as they are
    argv = ["continuation", "--ifs", "interval", "--cell", "0.01"]
    assert main(argv + ["--theta", "(1)*", "--k", "1023"]) == 0
    ifs = systems.interval()
    pts = finite_continuation(ifs, attractor(ifs, 0.01), parse_address("(1)*"), 1023)
    assert pts.min() > 1.8e302 and np.isfinite(pts).all()
    bbox = f"bbox={pts.min(axis=0).tolist()}..{pts.max(axis=0).tolist()}"
    assert capsys.readouterr().out == f"continuation theta=(1)* k=1023: 101 points, {bbox}\n"


def test_cli_manifold_branch(capsys):
    rc = main(
        ["manifold", "branch", "--ifs", "interval", "--cell", "0.0005", "--depth", "3"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    projs = sorted(round(p["projection"][0]) for p in out)
    assert projs == [-3, -1, 0, 1, 2, 4]


def test_cli_spec_dump(tmp_path):
    out = tmp_path / "koch.json"
    assert main(["spec", "koch", "--out", str(out)]) == 0
    ifs = io.load_spec(out)
    assert ifs.n_maps == 2 and ifs.space == "R2"


def test_cli_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["fastbasin", "--region", "-3,3"])  # missing --ifs/--grid
    assert ei.value.code == 2


def test_cli_unknown_system():
    assert main(["verify", "--ifs", "nope-such-system"]) == 2


def test_cli_attractor_default_cell(tmp_path, monkeypatch, capsys):
    # quadratic_graph's declared cell 1/32; at 1e-3 a step passes the cap
    monkeypatch.delenv(io.CACHE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    with _time_limit(10.0):
        assert main(["attractor", "--ifs", "quadratic_graph"]) == 0
    assert capsys.readouterr().out.startswith("attractor: 18649 points")
    # the other built-ins, and a spec file named like a built-in, keep 1e-3
    assert main(["attractor", "--ifs", "interval"]) == 0
    assert capsys.readouterr().out.startswith("attractor: 1001 points")
    io.save_spec(systems.interval(), tmp_path / "quadratic_graph")
    assert main(["attractor", "--ifs", "quadratic_graph"]) == 0
    assert capsys.readouterr().out.startswith("attractor: 1001 points")


def test_cli_manifold_branch_refuses_contact_away_from_junctions(tmp_path, capsys):
    # f_1(x) = (1 - x)/2, f_2(x) = (1 + x)/2 meet at 1/2, no junction
    # f_i(Fix f_j): exit 2 rather than print no branch points
    maps = [
        {"type": "affine", "matrix": [[s]], "offset": [0.5]} for s in (-0.5, 0.5)
    ]
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps({"space": "R1", "maps": maps}))
    assert main(["manifold", "branch", "--ifs", str(path), "--depth", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no junction f_1(Fix f_j)" in err[0], err


def test_cli_attractor_runaway_growth(tmp_path, capsys):
    # x -> 2x, x -> 2x + 1 has no attracting fixed point: exit 2 at once
    maps = [{"type": "affine", "matrix": [[2.0]], "offset": [t]} for t in (0.0, 1.0)]
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps({"space": "R1", "maps": maps}))
    with _time_limit(1.0):
        assert main(["attractor", "--ifs", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fbe: error: ")


# -- malformed input: exit 2 with one error line ----------------------------------


def _exits_2(argv, capsys):
    # warnings raise: a run that divides by zero on its way is no clean exit
    with _time_limit(5.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("fbe: error: "), err


def _affine(matrix=((0.5,),), offset=(0.0,)):
    return {"type": "affine", "matrix": matrix, "offset": offset}


_MOEBIUS = {"type": "moebius", "a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [2, 0]}


_SPECS = {
    "map-not-object": {"space": "R1", "maps": [1]},
    "matrix-text": {"space": "R1", "maps": [_affine(matrix="abc")]},
    "matrix-nan": {"space": "R1", "maps": [_affine(matrix=[[float("nan")]])]},
    "matrix-bool": {"space": "R1", "maps": [_affine(matrix=[[True]])]},
    "matrix-quoted": {"space": "R1", "maps": [_affine(matrix=[["0.5"]])]},
    "offset-inf": {"space": "R1", "maps": [_affine(offset=[1e400])]},
    "offset-missing": {"space": "R1", "maps": [{"type": "affine", "matrix": [[0.5]]}]},
    "matrix-ragged": {
        "space": "R2",
        "maps": [_affine(matrix=[[0.5, 0.0], [0.0]], offset=[0, 0])],
    },
    "offset-short": {
        "space": "R2",
        "maps": [_affine(matrix=[[0.5, 0.0], [0.0, 0.5]], offset=[0.0])],
    },
    "dimension": {"space": "R2", "maps": [_affine()]},
    "space-unknown": {"space": "R3", "maps": [_affine()]},
    "space-list": {"space": ["R1"], "maps": [_affine()]},
    "affine-on-sphere": {"space": "sphere", "maps": [_affine()]},
    "moebius-on-R1": {"space": "R1", "maps": [_MOEBIUS]},
    "moebius-text": {"space": "sphere", "maps": [{**_MOEBIUS, "a": ["x", 0]}]},
    "moebius-triple": {"space": "sphere", "maps": [{**_MOEBIUS, "b": [0, 0, 0]}]},
    "moebius-null": {"space": "sphere", "maps": [{**_MOEBIUS, "c": None}]},
    "type-unknown": {"space": "R1", "maps": [{"type": "shear"}]},
    "no-maps": {"space": "R1", "maps": []},
    "not-object": [],
    # maps that each attract but whose products expand: the orbit overflows
    "shears-chaos": {
        "space": "R2",
        "maps": [
            _affine(matrix=[[0.5, 4.0], [0.0, 0.5]], offset=[1.0, 0.0]),
            _affine(matrix=[[0.5, 0.0], [4.0, 0.5]], offset=[0.0, 1.0]),
        ],
    },
}
# flags a spec's run takes after --ifs
_SPEC_FLAGS = {"shears-chaos": ["--chaos", "20000"]}


@pytest.mark.parametrize("name", _SPECS)
def test_cli_malformed_spec(tmp_path, capsys, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_SPECS[name]))
    _exits_2(["attractor", "--ifs", str(path), *_SPEC_FLAGS.get(name, [])], capsys)


def test_cli_unreadable_spec(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"space": "R\xb9"}')
    _exits_2(["attractor", "--ifs", str(tmp_path / "latin1.json")], capsys)
    _exits_2(["attractor", "--ifs", str(tmp_path)], capsys)  # a directory


@pytest.mark.parametrize(
    "argv",
    [
        ["fastbasin", "--region", "a,b", "--grid", "8"],
        ["fastbasin", "--region", "nan,1", "--grid", "8"],
        ["fastbasin", "--region", "1,0", "--grid", "8"],
        ["fastbasin", "--region", "-3,3", "--grid", "x"],
        ["fastbasin", "--region", "-3,3", "--grid", "0"],
        ["fastbasin", "--region", "-3,3", "--grid", "8", "--tol", "nan"],
        ["fastbasin", "--region", "-3,3", "--grid", "8", "--tol", "1e-9"],
        ["manifold", "dist", "--a", "-1:abc", "--b", "-1:0.75"],
        ["manifold", "dist", "--a", "-1:0.75,0.2", "--b", "-1:0.75"],
        ["manifold", "dist", "--a", "0.75", "--b", "-1:0.75"],  # no theta
        ["manifold", "dist", "--a", "(-1)*:0.75", "--b", "-1:0.75"],  # infinite
        ["fastbasin", "--region", "-3,3", "--grid", "8", "--depth", "40"],  # word tree
        ["attractor", "--cell", "nan"],
        ["attractor", "--cell", "0"],
        ["attractor", "--cell", "-1"],
        ["attractor", "--cell", "inf"],
        ["attractor", "--chaos", "2000"],  # --cell does not apply
        ["attractor", "--burn-in", "5"],  # orbit flags need --chaos
        ["attractor", "--seed", "3"],
        ["fastbasin", "--region", "-3,3", "--grid", "50000,50000"],  # > 2^31 cells
        # a region or grid that does not fit the system's raster frame
        ["fastbasin", "--region", "0,0,1,1", "--grid", "8,8"],
        ["fastbasin", "--region", "0,1", "--grid", "8,8"],  # an R1 raster has one row
        ["fastbasin", "--ifs", "sierpinski", "--region", "0,1", "--grid", "8"],
    ],
    ids=" ".join,
)
def test_cli_malformed_value(capsys, argv):
    for flag, default in (("--cell", "0.01"), ("--ifs", "interval")):
        if flag not in argv:
            argv = argv + [flag, default]
    _exits_2(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["code", "sigma", "x", "(2)*"],
        ["code", "disjunctive", "--n-maps", "0", "--length", "5"],
        ["code", "disjunctive", "--n-maps", "2", "--length", "-1"],
        ["continuation", "--ifs", "interval", "--theta", "(1)*", "--k", "-1"],
        # continuations a float cannot hold: Lip(f_w^-1) overflows, or a point
        ["continuation", "--ifs", "interval", "--theta", "(1)*", "--k", "1100"],
        ["continuation", "--ifs", "interval", "--theta", "(1)*", "--k", "200000"],
        ["continuation", "--ifs", "koch", "--cell", "0.02", "--theta", "(1)*"]
        + ["--k", "1292"],
        ["manifold", "branch", "--ifs", "interval", "--depth", "-1"],
        ["manifold", "leaves", "--ifs", "interval", "--depth", "-1"],
        ["manifold", "leaves", "--ifs", "sierpinski", "--depth", "25"],  # word tree
        ["attractor", "--ifs", "cantor", "--chaos", "1000", "--burn-in", "-1"],
        ["attractor", "--ifs", "cantor", "--chaos", "0"],  # an orbit of no points
        # F(X) of 10^13 points would pass the image cap
        ["attractor", "--ifs", "sierpinski", "--chaos", "10000000000000"],
    ],
    ids=" ".join,
)
def test_cli_malformed_digit_or_count(capsys, argv):
    _exits_2(argv, capsys)


# doctored cloud caches: (header fields, rows) -> the file's lines
_CACHES = {
    "not-a-cloud": lambda h, rows: ["FBE-CLOUD v2", *rows],
    "epsilon-text": lambda h, rows: [" ".join([*h[:3], "x", h[4]]), *rows],
    "count-text": lambda h, rows: [" ".join([*h[:4], "y"]), *rows],
    "count-mismatch": lambda h, rows: [" ".join([*h[:4], "7"]), *rows],
    "row-text": lambda h, rows: [" ".join(h), "abc", *rows[1:]],
    "no-rows": lambda h, rows: [" ".join(h)],
    "blank-rows": lambda h, rows: [" ".join(h), "", "  # a comment"],
    "two-columns": lambda h, rows: [" ".join(h), *(f"{r} 0" for r in rows)],
    "nan-row": lambda h, rows: [" ".join(h), "nan", *rows[1:]],
    "inf-row": lambda h, rows: [" ".join(h), *rows[:-1], "inf"],
    "epsilon-negative": lambda h, rows: [" ".join([*h[:3], "-1", h[4]]), *rows],
    "epsilon-nan": lambda h, rows: [" ".join([*h[:3], "nan", h[4]]), *rows],
    "epsilon-inf": lambda h, rows: [" ".join([*h[:3], "inf", h[4]]), *rows],
}


@pytest.mark.parametrize("doctor", _CACHES.values(), ids=_CACHES)
def test_cli_corrupt_cache(tmp_path, monkeypatch, capsys, doctor):
    monkeypatch.setenv(io.CACHE_ENV, str(tmp_path))
    argv = ["fastbasin", "--ifs", "interval", "--cell", "0.01"]
    argv += ["--region", "-3,4", "--grid", "64", "--depth", "2"]
    assert main(argv) == 0
    (path,) = tmp_path.glob("*.cloud")
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join(doctor(header.split(), rows)) + "\n")
    _exits_2(argv, capsys)


def test_cli_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(io.CACHE_ENV, str(tmp_path / "cache"))
    rc = main(["attractor", "--ifs", "cantor", "--cell", str(3.0**-7)])
    assert rc == 0
    cached = list((tmp_path / "cache").glob("*.cloud"))
    assert len(cached) == 1
    # second call reuses the cache (mtime unchanged)
    before = cached[0].stat().st_mtime_ns
    assert main(["attractor", "--ifs", "cantor", "--cell", str(3.0**-7)]) == 0
    assert cached[0].stat().st_mtime_ns == before


def test_cli_cache_keeps_close_cells_apart(tmp_path, monkeypatch, capsys):
    # cells that agree to 8 significant digits are still two grids
    monkeypatch.setenv(io.CACHE_ENV, str(tmp_path / "cache"))
    argv = ["attractor", "--ifs", "sierpinski", "--cell"]
    assert main(argv + ["0.01"]) == 0
    capsys.readouterr()
    assert main(argv + ["0.0100000001", "--out", str(tmp_path / "a")]) == 0
    cached = capsys.readouterr().out
    monkeypatch.delenv(io.CACHE_ENV)
    assert main(argv + ["0.0100000001", "--out", str(tmp_path / "b")]) == 0
    assert cached == capsys.readouterr().out
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("stop", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_cli_cache_fill_is_atomic(tmp_path, monkeypatch, capsys, stop):
    # a write stopped after the first chunk leaves neither a short cloud
    # nor its temporary file, and the next run builds the cloud afresh
    monkeypatch.setenv(io.CACHE_ENV, str(tmp_path))
    rows = io._cloud_rows

    def stopped(points):
        yield next(rows(points))
        raise stop

    monkeypatch.setattr(io, "_cloud_rows", stopped)
    argv = ["attractor", "--ifs", "sierpinski", "--cell", "0.0078125"]
    if isinstance(stop, OSError):
        _exits_2(argv, capsys)
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(io, "_cloud_rows", rows)
    assert main(argv) == 0
    (path,) = tmp_path.iterdir()
    assert path.suffix == ".cloud" and main(argv) == 0  # the second run loads it
    built, loaded = capsys.readouterr().out.splitlines()
    assert built == loaded


def test_cli_parser_reused(tmp_path, monkeypatch, capsys):
    # one process, one parser: each command gives its first exit code,
    # stdout and files again, whatever ran before it
    monkeypatch.delenv(io.CACHE_ENV, raising=False)
    cell = ["--cell", "0.015625"]
    raster = ["--ifs", "sierpinski", *cell, "--region", "-3,-3,4,4", "--grid", "32,32"]
    commands = [
        ["attractor", "--ifs", "koch", *cell, "--out", "a.cloud"],
        ["attractor", "--ifs", "cantor", "--chaos", "500", "--seed", "3", "--out", "c.cloud"],
        ["fastbasin", *raster, "--depth", "2", "--out", "w.pgm", "--csv", "w.csv"],
        ["fastbasin", *raster, "--via-continuations", "--out", "v.pgm"],
        ["code", "sigma", "2", "1.-2.(1)*"],
        ["manifold", "leaves", "--ifs", "sierpinski", *cell, "--depth", "1", "--out", "l.csv"],
    ]
    monkeypatch.chdir(tmp_path)

    def run(argv):
        for f in tmp_path.iterdir():
            f.unlink()
        rc = main(argv)
        files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        return rc, capsys.readouterr().out, files

    first = [run(argv) for argv in commands]
    assert [r[0] for r in first] == [0] * len(commands)
    for i in [5, 0, 4, 1, 3, 2]:
        assert run(commands[i]) == first[i]
    _exits_2(["attractor", "--ifs", "cantor", "--chaos", "500", *cell], capsys)
    _exits_2(["attractor", "--ifs", "cantor", "--seed", "3"], capsys)
    assert run(commands[0]) == first[0]


def test_cli_chaos_seeded(capsys):
    rc = main(["attractor", "--ifs", "cantor", "--chaos", "2000", "--seed", "9"])
    assert rc == 0
    first = capsys.readouterr().out
    main(["attractor", "--ifs", "cantor", "--chaos", "2000", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_cli_chaos_defaults(tmp_path, capsys):
    # without --burn-in and --seed, the orbit is chaos_game's default one
    ifs = systems.cantor()
    argv = ["attractor", "--ifs", "cantor", "--chaos", "2000", "--out", str(tmp_path / "a")]
    assert main(argv) == 0
    io.cache_attractor(ifs, chaos_game(ifs, 2000), tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
