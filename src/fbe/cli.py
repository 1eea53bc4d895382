"""Command-line interface.

Subcommands: attractor, fastbasin, continuation, code, manifold, verify,
spec. Outputs are deterministic given flags and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import basin, io, manifold, systems
from .addresses import (
    Address,
    disjunctive_prefix,
    format_address,
    metric,
    negate,
    parse_address,
    shift,
    sigma,
    validate,
)
from .errors import FbeError
from .ifs import AttractorCloud, IfsSystem, attractor, chaos_game, coding_map
from .verify import run_verify


def _resolve_ifs(spec: str) -> IfsSystem:
    p = Path(spec)
    if p.exists():
        return io.load_spec(p)
    if spec in systems.SYSTEMS:
        return systems.by_name(spec)
    raise FbeError(f"--ifs {spec!r}: no such file or built-in system")


def _default_cell(spec: str) -> float:
    """The declared cell of a built-in, else DEFAULT_CELL; a spec file
    shadows a built-in's name, as in _resolve_ifs."""
    if Path(spec).exists():
        return systems.DEFAULT_CELL
    return systems.CELLS.get(spec, systems.DEFAULT_CELL)


def _get_cloud(ifs: IfsSystem, cell: float):
    cache_path = io.cached_attractor_path(ifs, cell)
    if cache_path is not None and cache_path.exists():
        return io.load_cached(cache_path, ifs)
    cloud = attractor(ifs, cell)
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # the file takes the cache's name only once it is complete, so a
        # stopped write leaves no short cloud behind
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_path.parent)
        os.close(fd)
        try:
            io.cache_attractor(ifs, cloud, tmp)
            os.replace(tmp, cache_path)
        except BaseException:
            os.unlink(tmp)
            raise
    return cloud


def _bbox(lo, hi) -> str:
    """`bbox=lo..hi` with each coordinate rounded to 6 decimals. Rounding
    scales by 1e6, which overflows past about 1.8e302; a coordinate that
    large is an integer, and prints as it is."""

    def rounded(v):
        with np.errstate(over="ignore"):
            r = np.round(v, 6)
        return np.where(np.isfinite(r), r, v).tolist()

    return f"bbox={rounded(lo)}..{rounded(hi)}"


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise FbeError(f"{text!r} is not a valid {kind.__name__}") from None


def _parse_floats(text: str) -> list[float]:
    return [_number(float, t) for t in text.split(",") if t.strip() != ""]


def _parse_grid(text: str) -> tuple[int, int]:
    parts = [_number(int, t) for t in text.split(",")]
    if len(parts) == 1:
        return parts[0], 1
    if len(parts) == 2:
        return parts[0], parts[1]
    raise FbeError("--grid takes NX or NX,NY")


def _parse_manifold_point(ifs, cloud, text: str):
    if ":" not in text:
        raise FbeError(f"manifold point {text!r} must be 'theta:coords'")
    theta_text, coords_text = text.split(":", 1)
    theta_addr = parse_address(theta_text)
    if theta_addr.is_infinite:
        raise FbeError("integer part must be a finite word")
    x = np.array(_parse_floats(coords_text))
    return manifold.manifold_point(ifs, cloud, theta_addr.pre, x)


def _cmd_attractor(args) -> int:
    # chaos_game's own defaults stand in for the orbit flags not given
    orbit = {
        k: v for k, v in (("burn_in", args.burn_in), ("rng_seed", args.seed)) if v is not None
    }
    if orbit and args.chaos is None:
        raise FbeError("--burn-in and --seed apply only to a --chaos cloud")
    ifs = _resolve_ifs(args.ifs)
    if args.chaos is not None:
        cloud = chaos_game(ifs, args.chaos, **orbit)
    else:
        cloud = _get_cloud(ifs, args.cell)
    if args.out:
        io.cache_attractor(ifs, cloud, args.out)
    print(
        f"attractor: {cloud.points.shape[0]} points, epsilon={cloud.epsilon:.3g}, "
        + _bbox(*cloud.bounding_box())
    )
    return 0


def _cmd_fastbasin(args) -> int:
    ifs = _resolve_ifs(args.ifs)
    cloud = _get_cloud(ifs, args.cell)
    region = _parse_floats(args.region)
    nx, ny = _parse_grid(args.grid)
    builder = (
        basin.raster_from_continuations
        if args.via_continuations
        else basin.fast_basin_raster
    )
    ras = builder(ifs, cloud, region, nx, ny, depth=args.depth, tau=args.tol)
    if args.out:
        io.write_pgm(ras, args.out)
    if args.csv:
        io.write_csv(ras, args.csv)
    print(f"fastbasin: {ras.hit_count} hit cells of {ras.nx * ras.ny}")
    return 0


def _cmd_continuation(args) -> int:
    ifs = _resolve_ifs(args.ifs)
    cloud = _get_cloud(ifs, args.cell)
    theta = parse_address(args.theta)
    pts = basin.finite_continuation(ifs, cloud, theta, args.k)
    if args.out:
        # H(f(X), f(Y)) <= Lip(f) H(X, Y): the inverse word scales epsilon
        lip = ifs.word_lipschitz(tuple(-d for d in theta.prefix(args.k)))
        eps = lip * cloud.epsilon
        io.cache_attractor(ifs, AttractorCloud(pts, eps, dict(cloud.meta)), args.out)
    print(
        f"continuation theta={format_address(theta)} k={args.k}: "
        f"{pts.shape[0]} points, " + _bbox(pts.min(axis=0), pts.max(axis=0))
    )
    return 0


def _cmd_code(args) -> int:
    if args.op == "sigma":
        print(format_address(sigma(_number(int, args.n), parse_address(args.addr))))
    elif args.op == "shift":
        print(format_address(shift(parse_address(args.addr))))
    elif args.op == "negate":
        print(format_address(negate(parse_address(args.addr))))
    elif args.op == "classify":
        cls = validate(parse_address(args.addr), args.n_maps)
        print(json.dumps(dataclasses.asdict(cls)))
    elif args.op == "metric":
        d = metric(parse_address(args.addr), parse_address(args.addr2))
        print(f"{d} ({float(d):.17g})")
    elif args.op == "pi":
        ifs = _resolve_ifs(args.ifs)
        val = coding_map(ifs, parse_address(args.addr))
        print(" ".join(f"{v:.17g}" for v in np.atleast_1d(val)))
    elif args.op == "disjunctive":
        word = disjunctive_prefix(args.n_maps, args.length)
        print(format_address(Address.finite(word)))
    return 0


def _cmd_manifold(args) -> int:
    ifs = _resolve_ifs(args.ifs)
    cloud = _get_cloud(ifs, args.cell)
    if args.mop == "dist":
        a = _parse_manifold_point(ifs, cloud, args.a)
        b = _parse_manifold_point(ifs, cloud, args.b)
        d = manifold.distance(ifs, cloud, a, b)
        print(
            json.dumps(
                {
                    "d_L": d.d_L,
                    "d_X": d.d_X,
                    "common_prefix": format_address(Address.finite(d.common_prefix)),
                    "error_bound": d.error_bound,
                }
            )
        )
    elif args.mop == "leaves":
        # the box is drawn in the raster frame, as fastbasin draws the system
        cols = "proj_min,proj_max" if ifs.dim == 1 else "min_x,min_y,max_x,max_y"
        rows = [f"theta,count,{cols}"]
        for theta in manifold.enumerate_leaves(ifs.n_maps, args.depth):
            pts = manifold.leaf_projection(ifs, cloud, theta)
            label = format_address(Address.finite(theta)) or "()"
            xy = basin._raster_coords(ifs, pts)
            box = np.concatenate([xy.min(axis=0), xy.max(axis=0)])
            rows.append(f"{label},{pts.shape[0]}" + "".join(f",{v:.9g}" for v in box))
        text = "\n".join(rows) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    elif args.mop == "branch":
        pts = manifold.branch_points(ifs, cloud, args.depth)
        out = [
            {
                "projection": p.proj.tolist(),
                "integer_part": format_address(Address.finite(p.theta)) or "()",
                "incident_leaves": count,
            }
            for p, count in pts
        ]
        print(json.dumps(out))
    return 0


def _cmd_verify(args) -> int:
    ifs = _resolve_ifs(args.ifs)
    cloud = _get_cloud(ifs, args.cell)
    report = run_verify(ifs, cloud, cell=args.cell, system_name=args.ifs)
    for line in report.lines():
        print(line)
    if args.json:
        rows = [dataclasses.asdict(c) for c in report.checks]
        for row in rows:
            if np.isnan(row["residual"]):  # strict JSON has no NaN
                row["residual"] = None
        Path(args.json).write_text(json.dumps(rows, indent=2, allow_nan=False))
    return 0 if report.passed else 1


def _cmd_spec(args) -> int:
    ifs = systems.by_name(args.name)
    if args.out:
        io.save_spec(ifs, args.out)
    else:
        print(json.dumps(ifs.spec_dict(), indent=2))
    return 0


# Addresses like "-1.-1.(2)*" and points like "-2.-1:0.625" start with a
# dash; widen argparse's idea of a negative number so they stay positional.
_DASH_VALUE = re.compile(r"^-\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _DASH_VALUE


# main runs once per command, and a process may run many: build this once
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fbe",
        description=(
            "Attractors, fast basins, fractal continuations and branched "
            "fractal manifolds of iterated function systems."
        ),
    )
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    cells = "".join(f"; {k} {v:g}" for k, v in systems.CELLS.items())
    cell_help = f"grid cell (default {systems.DEFAULT_CELL:g}{cells})"

    def add_common(p, cell_note=""):
        p.add_argument("--ifs", required=True, help="spec file or built-in name")
        p.add_argument("--cell", type=float, help=cell_help + cell_note)

    p = sub.add_parser("attractor", help="compute and cache an attractor cloud")
    add_common(p, "; refused with --chaos, whose cloud has no grid")
    p.add_argument("--chaos", type=int, help="use a chaos-game orbit of N points")
    p.add_argument("--burn-in", type=int, help="orbit steps dropped first (--chaos only)")
    p.add_argument("--seed", type=int, help="orbit seed (--chaos only)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_attractor)

    p = sub.add_parser("fastbasin", help="raster the fast basin")
    add_common(p)
    p.add_argument("--region", required=True, help="x0,x1 on R1, else x0,y0,x1,y1")
    p.add_argument("--grid", required=True, help="NX or NX,NY (one row on R1)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument(
        "--tol",
        type=float,
        help="inflate each pulled cloud point by TOL, finite and at least the "
        "cloud tolerance tau = 3 epsilon (default tau)",
    )
    p.add_argument("--out", help="PGM output path")
    p.add_argument("--csv", help="CSV output path")
    p.add_argument(
        "--via-continuations",
        action="store_true",
        help="build the raster from finite continuations instead of the word tree",
    )
    p.set_defaults(fn=_cmd_fastbasin)

    p = sub.add_parser("continuation", help="finite continuation of the attractor")
    add_common(p)
    p.add_argument("--theta", required=True, help="positive word, e.g. '(1.2)*'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_continuation)

    p = sub.add_parser("code", help="address-space operations")
    code_sub = p.add_subparsers(dest="op", required=True, parser_class=_Parser)
    q = code_sub.add_parser("sigma")
    q.add_argument("n")
    q.add_argument("addr")
    q = code_sub.add_parser("shift")
    q.add_argument("addr")
    q = code_sub.add_parser("negate")
    q.add_argument("addr")
    q = code_sub.add_parser("classify")
    q.add_argument("addr")
    q.add_argument("--n-maps", type=int, required=True)
    q = code_sub.add_parser("metric")
    q.add_argument("addr")
    q.add_argument("addr2")
    q = code_sub.add_parser("pi")
    q.add_argument("addr")
    q.add_argument("--ifs", required=True)
    q = code_sub.add_parser("disjunctive")
    q.add_argument("--n-maps", type=int, required=True)
    q.add_argument("--length", type=int, required=True)
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("manifold", help="branched-manifold operations")
    man_sub = p.add_subparsers(dest="mop", required=True, parser_class=_Parser)
    q = man_sub.add_parser("dist")
    add_common(q)
    q.add_argument("--a", required=True, help="theta:coords, e.g. '-1:0.75'")
    q.add_argument("--b", required=True)
    q = man_sub.add_parser("leaves")
    add_common(q)
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--out")
    q = man_sub.add_parser("branch")
    add_common(q)
    q.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=_cmd_manifold)

    p = sub.add_parser("verify", help="run the structural check suite")
    add_common(p)
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("spec", help="print or save a built-in system spec")
    p.add_argument("name", choices=sorted(systems.SYSTEMS))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_spec)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "chaos", None) is not None and args.cell is not None:
            raise FbeError("--cell does not apply to a --chaos cloud")
        if "cell" in vars(args) and args.cell is None:
            args.cell = _default_cell(args.ifs)
        return args.fn(args)
    except (FbeError, OSError) as e:
        print(f"fbe: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
