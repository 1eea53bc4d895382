"""Golden bytes: small CLI artifacts pinned by sha256.

A change that claims byte-identical artifacts must leave these hashes as
they are. They were recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64;
another numpy or BLAS may round a last bit differently, and a mismatch
there is a platform difference to confirm, not by itself a defect.

Affine images do not depend on the BLAS kernel (fbe.maps.affine_image),
but `AffineMap.lipschitz` takes `np.linalg.svd`, which does: with
`OPENBLAS_CORETYPE` set to Sandybridge, Haswell or SkylakeX, quadratic_graph's
lam reads ...2075, ...2076 or ...2077 in its last digits, so the epsilon in
the header line of `quadratic_graph.cloud` (and only that line) differs, and
that pin fails under the first two kernels.
"""

import hashlib
import json
import warnings

import pytest

from fbe import io, systems
from fbe.cli import main

GOLDEN = {
    "interval.cloud": (
        ["attractor", "--ifs", "interval", "--cell", "0.00390625"],
        "983059ec7ae7291aa14bae9ffe8292aae987040da80a9937485e29bffbf18994",
    ),
    "sierpinski.cloud": (
        ["attractor", "--ifs", "sierpinski", "--cell", "0.015625"],
        "304ab288a22082a75213c6285013db9660725baa67abda2db217f08246803199",
    ),
    "projective_line.cloud": (
        ["attractor", "--ifs", "projective_line", "--cell", "0.015625"],
        "80b4809f00689ebca342e3e395581b5ab7080f48bf1116045a570d1079b8c7a6",
    ),
    # the union of a 2-cycle of sets
    "koch.cloud": (
        ["attractor", "--ifs", "koch", "--cell", "0.00390625"],
        "ff8e997c55da55ac6e985b5a2f8a7bc6b83b2cc89d73e5b8bcd95487245cdc2b",
    ),
    # 4-D cell rows
    "quadratic_graph.cloud": (
        ["attractor", "--ifs", "quadratic_graph", "--cell", "0.0625"],
        "bcf2817cd48ceb976ff529d9bc5c898524c486440bcf2279cb25dac2c6f79bff",
    ),
    "chaos-sierpinski.cloud": (
        ["attractor", "--ifs", "sierpinski", "--chaos", "2000", "--seed", "1"],
        "9e8d38081d7402214dac01d7a8c527cbb2dc3b6580799891173317fc0a257e14",
    ),
    "chaos-mobius_arc.cloud": (
        ["attractor", "--ifs", "mobius_arc", "--chaos", "2000", "--seed", "1"],
        "44c3936a7797f65fec18dd2d81e61f5db84d4e21c4b1efff412a80b69e914196",
    ),
    # B_{theta|4} of [0, 1] with its Lipschitz-scaled epsilon
    "continuation-interval.cloud": (
        ["continuation", "--ifs", "interval", "--theta", "(1.2)*", "--k", "4"],
        "ed1912f0a652e144089648826b7c08c6db7d9b7f954d739c13c12e1254855fe3",
    ),
    # the two-coordinate rows of the leaf table
    "leaves-sierpinski.csv": (
        [
            "manifold", "leaves", "--ifs", "sierpinski", "--cell", "0.015625",
            "--depth", "2",
        ],
        "e8d5f72cb8be1428827922b14d33c06ac881f25864776950ef3bfd46098aa8e9",
    ),
}  # fmt: skip
RASTER = [
    "fastbasin", "--ifs", "sierpinski", "--cell", "0.0078125",
    "--region", "-3,-3,4,4", "--grid", "128,128", "--depth", "3",
]  # fmt: skip
RASTER_PGM = "c1e6b2607587a33b2f2dc59c9774b8fd0312316838587544b4a10659e7f880bf"
RASTER_CSV = "e48df69bec0c9cf31f39dce707852942a2e03b2ae2b6d6cd1a0186e38079448e"
# Rasters whose cells take several word lengths, so the least length per
# cell over the union of a level's words shows in the bytes: (argv, PGM, CSV)
LEVEL_RASTERS = {
    "koch-depth-4": (
        [
            "fastbasin", "--ifs", "koch", "--cell", "0.0078125",
            "--region", "-3,-2,3,2", "--grid", "96,64", "--depth", "4",
        ],
        "d4a0dd6eac9cdfcbf7050f992e47514060e049e2fcbbf7545c9abb121cf1fbac",
        "5d866706421c13b47281d3a5cec579f50ff783f9f6c8873d2603208b42472ef1",
    ),
    "interval-depth-6": (
        [
            "fastbasin", "--ifs", "interval", "--cell", "0.00390625",
            "--region", "-70,70", "--grid", "280", "--depth", "6",
        ],
        "8964fbe3a5c224fff6a8a479ae201726df204c50f74e3eca11958fa3bad38fd7",
        "cfedbde8536d93c31c230169f5e7917e4e5f0b43e79ef6efaf49d232355c1784",
    ),
    "mobius_arc-sphere": (
        [
            "fastbasin", "--ifs", "mobius_arc", "--cell", "0.0078125",
            "--region", "-2.5,-2.5,2.5,2.5", "--grid", "48,48", "--depth", "4",
        ],
        "def44dc882a4073e3b1a14206f037cf10cf76c0803a425f9f31fc706dbcbb43a",
        "9a1d8a50c7c811985c7c4da988d5775ee6da13383744977f9bec275f82f1ed9e",
    ),
    # the continuation route draws the word-tree raster's bytes
    "sierpinski-via-continuations": (
        RASTER + ["--via-continuations"], RASTER_PGM, RASTER_CSV
    ),
}  # fmt: skip

# `fbe manifold branch` stdout: projections, integer parts and incidences
BRANCH = {
    "sierpinski": (
        [
            "manifold", "branch", "--ifs", "sierpinski", "--cell", "0.015625",
            "--depth", "3",
        ],
        "26b0ecef87991bb9b41bdedf1e870ddb440685c96bc76fcccd87a3e3ead810c4",
    ),
    "koch": (
        ["manifold", "branch", "--ifs", "koch", "--cell", "0.015625", "--depth", "2"],
        "7d8c938786df8d35b86efc012d2cbc8a6c5cb3a65a0e02b8b39c5d1bf9f23752",
    ),
}  # fmt: skip

# `fbe verify --json` reports with each check's runtime dropped: names,
# tags, statuses, residuals and tolerances
VERIFY = {
    "interval": (
        ["verify", "--ifs", "interval", "--cell", "0.00390625"],
        "fe091935834ca400d19466fc32ec5b58339fdf10c5c672d7cf265de9ac2f0b57",
    ),
    "sierpinski": (
        ["verify", "--ifs", "sierpinski", "--cell", "0.015625"],
        "61b68236011cf91cedfb68b9b256a580e6b0d7b9d610bda6c2cde28c18c3839b",
    ),
}  # fmt: skip


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cloud(tmp_path, capsys, name):
    argv, digest = GOLDEN[name]
    _run(argv + ["--out", str(tmp_path / name)])
    assert _sha256(tmp_path / name) == digest


# The cloud writer's paths (io._cloud_rows), each pinned above: grid clouds
# join their rows from the text of each distinct value; other clouds are
# formatted into rows of float_slots, whose numpy digits also place the
# point for |v| >= 1 and whose values outside [1e-4, 1e17) take `%`
WRITER_PATHS = {
    "grid": ["koch.cloud", "quadratic_graph.cloud", "sierpinski.cloud"],
    "slots": [
        "chaos-mobius_arc.cloud",
        "chaos-sierpinski.cloud",
        "continuation-interval.cloud",
        "interval.cloud",
        "projective_line.cloud",
    ],
    "slots, |v| >= 1": ["continuation-interval.cloud", "interval.cloud"],
    "slots, outside [1e-4, 1e17)": ["chaos-mobius_arc.cloud", "chaos-sierpinski.cloud"],
}


def test_golden_clouds_cover_every_writer_path(tmp_path, capsys):
    clouds = sorted(n for n in GOLDEN if n.endswith(".cloud"))
    taken = {}
    for name in clouds:
        argv, _ = GOLDEN[name]
        _run(argv + ["--out", str(tmp_path / name)])
        ifs = systems.by_name(argv[argv.index("--ifs") + 1])
        pts = io.load_cached(tmp_path / name, ifs).points
        if io._grid_text(pts.T) is not None:
            paths = ["grid"]
        else:
            a = abs(pts)
            paths = ["slots"]
            numpy = (a >= 1e-4) & (a < 1e17)
            paths += ["slots, |v| >= 1"] * bool((numpy & (a >= 1)).any())
            paths += ["slots, outside [1e-4, 1e17)"] * bool(not numpy.all())
        for path in paths:
            taken.setdefault(path, []).append(name)
    assert taken == WRITER_PATHS


def test_golden_raster(tmp_path, capsys):
    pgm, csv = tmp_path / "basin.pgm", tmp_path / "basin.csv"
    _run(RASTER + ["--out", str(pgm), "--csv", str(csv)])
    assert (_sha256(pgm), _sha256(csv)) == (RASTER_PGM, RASTER_CSV)


@pytest.mark.parametrize("name", sorted(LEVEL_RASTERS))
def test_golden_level_raster(tmp_path, capsys, name):
    argv, pgm_digest, csv_digest = LEVEL_RASTERS[name]
    pgm, csv = tmp_path / "basin.pgm", tmp_path / "basin.csv"
    _run(argv + ["--out", str(pgm), "--csv", str(csv)])
    assert (_sha256(pgm), _sha256(csv)) == (pgm_digest, csv_digest)


@pytest.mark.parametrize("name", sorted(BRANCH))
def test_golden_branch_points(capsys, name):
    argv, digest = BRANCH[name]
    _run(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_golden_verify_report(tmp_path, capsys, name):
    argv, digest = VERIFY[name]
    report = tmp_path / "report.json"
    _run(argv + ["--json", str(report)])
    checks = json.loads(report.read_text())
    for c in checks:
        del c["runtime"]
    assert hashlib.sha256(json.dumps(checks, indent=2).encode()).hexdigest() == digest
