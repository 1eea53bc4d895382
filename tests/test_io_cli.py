import importlib.util
import json
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from fbe import io, systems
from fbe.cli import main
from fbe.errors import NonInvertibleMapError, SpecFormatError, StaleCacheError
from fbe.ifs import AttractorCloud, attractor, chaos_game

from conftest import _time_limit


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
}


@pytest.mark.parametrize("spec", _SPECS.values(), ids=_SPECS)
def test_cli_malformed_spec(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _exits_2(["attractor", "--ifs", str(path)], capsys)


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
    ],
    ids=" ".join,
)
def test_cli_malformed_value(capsys, argv):
    if "--cell" not in argv:
        argv = argv + ["--cell", "0.01"]
    _exits_2(argv + ["--ifs", "interval"], capsys)


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
