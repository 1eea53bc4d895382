"""The benchmark's workloads: fixed sequences of `fbe` commands run
in-process, their set-up, and the checks that their outputs are correct.

Every command except the sierpinski verify goes through `fbe.cli.main`.
`fbe verify` hard-codes its random seed, so the sierpinski verify calls
`fbe.verify.run_verify(..., rng_seed=seed)` on the cached cloud the CLI
would load. Functions are looked up through their modules at call time,
so the wrappers of a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import fbe.cli
import fbe.ifs
import fbe.io
import fbe.systems
import fbe.verify

import spec


class CheckFailed(Exception):
    """An output that a command produced is wrong."""


@dataclass
class Outcome:
    rc: int
    text: str  # deterministic output: stdout, or the verify report without timings
    report: object = None


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[], Outcome]
    files: tuple[Path, ...]  # files the check reads; their hashes key its result
    check: Callable[[Outcome], None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    setup: Callable[[], None]
    cache_dir: Path | None  # FBE_CACHE_DIR for the commands; None leaves it unset


def _cli(argv: list[str]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fbe.cli.main(argv)
        return Outcome(rc, buf.getvalue())

    return run


# -- cloud ---------------------------------------------------------------------

CLOUDS = (
    ("sierpinski", "1e-3"),
    ("interval", "1e-5"),
    ("projective_line", "1e-4"),
    ("quadratic_graph", "0.03125"),
    ("koch", "0.00390625"),
)
CHAOS_POINTS = "100000"


def _hausdorff_to_unit_interval(x: np.ndarray) -> float:
    """Exact Hausdorff distance between a finite set of reals and [0, 1]."""
    xs = np.sort(x)
    out = float(np.maximum(np.maximum(-xs, xs - 1.0), 0.0).max())
    # the points of [0, 1] farthest from the set are 0, 1 and gap midpoints
    cand = np.concatenate([[0.0, 1.0], np.clip((xs[1:] + xs[:-1]) / 2, 0.0, 1.0)])
    i = np.searchsorted(xs, cand)
    left = xs[np.clip(i - 1, 0, len(xs) - 1)]
    right = xs[np.clip(i, 0, len(xs) - 1)]
    gap = np.minimum(np.abs(cand - left), np.abs(cand - right)).max()
    return max(out, float(gap))


def _check_cloud(system: str, path: Path, outcome: Outcome) -> None:
    ifs = fbe.systems.by_name(system)
    cloud = fbe.io.load_cached(path, ifs)  # raises if the spec hash differs
    m = re.match(r"attractor: (\d+) points", outcome.text)
    if not m or int(m.group(1)) != cloud.points.shape[0]:
        raise CheckFailed(f"{path.name}: printed size does not match the file")
    imgs = np.concatenate(
        [ifs.transform(i, cloud.points) for i in range(1, ifs.n_maps + 1)]
    )
    h = fbe.ifs.hausdorff_distance(imgs, cloud.points)
    if not h <= 2 * cloud.epsilon:
        raise CheckFailed(f"{path.name}: H(F(A), A) = {h:.3g} > 2*epsilon")
    if system == "interval":
        h = _hausdorff_to_unit_interval(cloud.points[:, 0])
        if not h <= cloud.epsilon:
            raise CheckFailed(f"{path.name}: H(A, [0,1]) = {h:.3g} > epsilon")


def _check_chaos(path: Path, reference: Path, outcome: Outcome) -> None:
    """The chaos cloud passes the cloud checks and lies within
    eps_chaos + eps_hutchinson of the Hutchinson cloud of the same pass.
    Both approximate one attractor, so this tests the chaos cloud's epsilon
    against an independent cloud; the invariance test alone cannot fail,
    because that epsilon is derived from the same residual."""
    _check_cloud("sierpinski", path, outcome)
    ifs = fbe.systems.by_name("sierpinski")
    chaos = fbe.io.load_cached(path, ifs)
    hutchinson = fbe.io.load_cached(reference, ifs)
    h = fbe.ifs.hausdorff_distance(chaos.points, hutchinson.points)
    if not h <= chaos.epsilon + hutchinson.epsilon:
        raise CheckFailed(
            f"{path.name}: H(chaos, Hutchinson) = {h:.3g} > sum of their epsilons"
        )


def _cloud(seed: int, out: Path) -> Workload:
    ops = []
    for system, cell in CLOUDS:
        path = out / f"{system}.cloud"
        argv = ["attractor", "--ifs", system, "--cell", cell, "--out", str(path)]
        ops.append(
            Op(f"attractor-{system}", _cli(argv), (path,), partial(_check_cloud, system, path))
        )
    path, reference = out / "chaos-sierpinski.cloud", out / "sierpinski.cloud"
    argv = ["attractor", "--ifs", "sierpinski", "--chaos", CHAOS_POINTS]
    argv += ["--seed", str(seed), "--out", str(path)]
    ops.append(
        Op(
            "chaos-sierpinski",
            _cli(argv),
            (path, reference),
            partial(_check_chaos, path, reference),
        )
    )
    return Workload("cloud", tuple(ops), lambda: None, None)


# -- query ---------------------------------------------------------------------
#
# Rasters, the verify suite and the manifold commands, all on clouds that
# set-up put in the cache, so no command builds an attractor.

# system, cell, region, grid, depth
RASTERS = {
    "sierpinski": ("0.00390625", (-1.0, -1.0, 2.0, 2.0), (512, 512), 4),
    "koch": ("0.00390625", (-3.0, -2.0, 3.0, 2.0), (512, 512), 4),
    "interval": ("1e-4", (-3.0, 4.0), (4096,), 6),
}


def _shifted_region(rng, region, grid) -> tuple[float, ...]:
    """The region translated by less than half a raster cell on each axis."""
    dim = len(region) // 2
    lo, hi = np.array(region[:dim]), np.array(region[dim:])
    shift = rng.uniform(-0.5, 0.5, size=dim) * (hi - lo) / np.array(grid)
    return tuple(float(v) for v in np.concatenate([lo + shift, hi + shift]))


def _read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    m = re.match(rb"P5\n(\d+) (\d+)\n255\n", data)
    if not m:
        raise CheckFailed(f"{path.name}: not a binary PGM")
    nx, ny = int(m.group(1)), int(m.group(2))
    gray = np.frombuffer(data[m.end() :], dtype=np.uint8)
    if gray.size != nx * ny:
        raise CheckFailed(f"{path.name}: {gray.size} pixels, expected {nx * ny}")
    # rows run from the high-y edge down; flip so row iy is the iy-th cell
    return gray.reshape(ny, nx)[::-1]


def _depths(pgm: Path, csv: Path | None, outcome: Outcome) -> np.ndarray:
    """Per-cell minimal word length (-1 for a miss) decoded from the PGM,
    cross-checked with the CSV and the printed hit count."""
    gray = _read_pgm(pgm).astype(np.int64)
    depth = np.where(gray == 0, -1, (255 - gray) // 16)
    if np.any((gray > 0) & ((255 - gray) % 16 != 0)):
        raise CheckFailed(f"{pgm.name}: gray level outside the depth scale")
    m = re.match(r"fastbasin: (\d+) hit cells", outcome.text)
    if not m or int(m.group(1)) != np.count_nonzero(gray):
        raise CheckFailed(f"{pgm.name}: printed hit count does not match the PGM")
    if csv is not None:
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        from_csv = np.full(depth.shape, -1, dtype=np.int64)
        from_csv[rows[:, 1], rows[:, 0]] = rows[:, 2]
        if rows.shape[0] != np.count_nonzero(gray) or not np.array_equal(from_csv, depth):
            raise CheckFailed(f"{csv.name}: cells disagree with {pgm.name}")
    return depth


def _interval_oracle(region, depth: np.ndarray) -> None:
    """Exact depths for the interval system {x/2, x/2 + 1/2}.

    The inverse maps are x -> 2x - m, so the depth-k inverse images of a
    dense cloud spanning [a, b] fill [2^k a - (2^k - 1), 2^k b]; a cell is
    first hit at the least k whose span meets the cell inflated by tau.
    Cells within 1e-9 of a span end may go either way.
    """
    ifs = fbe.systems.by_name("interval")
    cell, _, (nx,), max_depth = RASTERS["interval"]
    cloud = fbe.io.load_cached(fbe.io.cached_attractor_path(ifs, float(cell)), ifs)
    xs = np.sort(cloud.points[:, 0])
    a, b, gap = xs[0], xs[-1], float(np.diff(xs).max())
    w = (region[1] - region[0]) / nx
    lo = region[0] + w * np.arange(nx) - cloud.tau
    hi = lo + w + 2 * cloud.tau
    never = max_depth + 1
    got = np.where(depth[0] < 0, never, depth[0])
    if 2.0 ** got[got < never].max(initial=0) * gap > w + 2 * cloud.tau:
        raise CheckFailed("interval raster: too deep for the dense-span oracle")

    def first_hit(slack):
        out = np.full(nx, never)
        for k in range(max_depth, -1, -1):
            s0, s1 = 2.0**k * a - (2**k - 1), 2.0**k * b
            out[(hi + slack >= s0) & (lo - slack <= s1)] = k
        return out

    bad = (got < first_hit(1e-9)) | (got > first_hit(-1e-9))
    if bad.any():
        raise CheckFailed(f"interval raster: {int(bad.sum())} cells off the exact depths")


def _check_raster(pgm, csv, outcome, same_as=None, oracle=None) -> None:
    depth = _depths(pgm, csv, outcome)
    if same_as is not None and pgm.read_bytes() != same_as.read_bytes():
        raise CheckFailed(f"{pgm.name} differs from {same_as.name}")
    if oracle is not None:
        oracle(depth)


# system, cell of the verify runs; only sierpinski takes the workload seed
VERIFY = (("sierpinski", "0.001953125"), ("mobius_arc", "0.002"))
MANIFOLD = ("sierpinski", "0.00390625", "3")


def _verify_text(report) -> str:
    """The report without its timings, so that equal results hash equal."""
    return "".join(
        f"{c.name} {c.status} {c.residual!r} {c.tolerance!r}\n" for c in report.checks
    )


def _run_verify(system: str, cell: str, seed: int) -> Outcome:
    # what `fbe verify --ifs SYSTEM --cell CELL` does with a warm cloud cache,
    # with the seed passed through
    ifs = fbe.systems.by_name(system)
    cloud = fbe.io.load_cached(fbe.io.cached_attractor_path(ifs, float(cell)), ifs)
    report = fbe.verify.run_verify(
        ifs, cloud, cell=float(cell), system_name=system, rng_seed=seed
    )
    return Outcome(0 if report.passed else 1, _verify_text(report), report)


def _cli_verify(system: str, cell: str, path: Path) -> Outcome:
    # `fbe verify` as typed, with its own fixed seed; the report comes back
    # through --json; the last pass's file must not stand in for this one
    path.unlink(missing_ok=True)
    rc = _cli(["verify", "--ifs", system, "--cell", cell, "--json", str(path)])().rc
    checks = [fbe.verify.VerifyCheck(**c) for c in json.loads(path.read_text())]
    report = fbe.verify.VerifyReport(system, checks)
    return Outcome(rc, _verify_text(report), report)


def _check_verify(outcome: Outcome) -> None:
    bad = [c.name for c in outcome.report.checks if c.status != "pass"]
    if bad:
        raise CheckFailed("checks not passed: " + ", ".join(bad))


def _check_branch(outcome: Outcome) -> None:
    points = json.loads(outcome.text)
    if not points:
        raise CheckFailed("no branch points")
    low = [p for p in points if p["incident_leaves"] < 2]
    if low:
        raise CheckFailed(f"{len(low)} branch points with fewer than 2 leaves")


def _check_leaves(path: Path, outcome: Outcome) -> None:
    rows = path.read_text().splitlines()[1:]
    depth = int(MANIFOLD[2])
    expected = sum(3**k for k in range(depth + 1))
    if len(rows) != expected:
        raise CheckFailed(f"{path.name}: {len(rows)} leaves, expected {expected}")
    if any(int(r.split(",")[1]) <= 0 for r in rows):
        raise CheckFailed(f"{path.name}: an empty leaf")


def _query(seed: int, out: Path) -> Workload:
    rng = np.random.default_rng(seed)
    regions = {s: _shifted_region(rng, r[1], r[2]) for s, r in RASTERS.items()}

    def argv(system, *extra):
        cell, _, grid, depth = RASTERS[system]
        return [
            "fastbasin", "--ifs", system, "--cell", cell,
            "--region=" + ",".join(repr(v) for v in regions[system]),
            "--grid", ",".join(map(str, grid)), "--depth", str(depth), *extra,
        ]  # fmt: skip

    def raster(op_id, system, via=False, csv=True, same_as=None, oracle=None):
        pgm = out / f"{op_id}.pgm"
        extra = ["--out", str(pgm)]
        csv_path = out / f"{op_id}.csv" if csv else None
        if csv:
            extra += ["--csv", str(csv_path)]
        if via:
            extra.append("--via-continuations")
        files = (pgm,) + ((csv_path,) if csv else ()) + ((same_as,) if same_as else ())
        check = partial(_check_raster, pgm, csv_path, same_as=same_as, oracle=oracle)
        return Op(op_id, _cli(argv(system, *extra)), files, check)

    (system, cell), (cli_system, cli_cell) = VERIFY
    m_system, m_cell, m_depth = MANIFOLD
    common = ["--ifs", m_system, "--cell", m_cell, "--depth", m_depth]
    leaves = out / "leaves.csv"
    ops = (
        raster("fastbasin-sierpinski", "sierpinski"),
        raster(
            "fastbasin-sierpinski-cont",
            "sierpinski",
            via=True,
            csv=False,
            same_as=out / "fastbasin-sierpinski.pgm",
        ),
        raster("fastbasin-koch", "koch"),
        raster(
            "fastbasin-interval",
            "interval",
            oracle=partial(_interval_oracle, regions["interval"]),
        ),
        Op(f"verify-{system}", partial(_run_verify, system, cell, seed), (), _check_verify),
        Op(
            f"verify-{cli_system}",
            partial(_cli_verify, cli_system, cli_cell, out / f"verify-{cli_system}.json"),
            (),
            _check_verify,
        ),
        Op(
            f"manifold-branch-{m_system}",
            _cli(["manifold", "branch", *common]),
            (),
            _check_branch,
        ),
        Op(
            f"manifold-leaves-{m_system}",
            _cli(["manifold", "leaves", *common, "--out", str(leaves)]),
            (leaves,),
            partial(_check_leaves, leaves),
        ),
    )

    def setup():
        # `fbe attractor` with FBE_CACHE_DIR set fills the cloud cache
        clouds = {(s, r[0]) for s, r in RASTERS.items()} | set(VERIFY)
        for system, cell in sorted(clouds):
            outcome = _cli(["attractor", "--ifs", system, "--cell", cell])()
            if outcome.rc != 0:
                raise RuntimeError(f"cache fill for {system} exited {outcome.rc}")

    return Workload("query", ops, setup, out / "cache")


BUILDERS = {"cloud": _cloud, "query": _query}


def build(name: str, seed: int, out: Path) -> Workload:
    """The workload `name` for `seed`, writing its files under `out`."""
    wl = BUILDERS[name](seed, out)
    if tuple(op.id for op in wl.ops) != spec.COMMANDS[name]:
        raise RuntimeError(f"{name}: command ids differ from spec.COMMANDS")
    return wl


def activate(wl: Workload) -> None:
    """Point FBE_CACHE_DIR where the workload's commands expect it."""
    if wl.cache_dir is None:
        os.environ.pop(fbe.io.CACHE_ENV, None)
    else:
        wl.cache_dir.mkdir(parents=True, exist_ok=True)
        os.environ[fbe.io.CACHE_ENV] = str(wl.cache_dir)
