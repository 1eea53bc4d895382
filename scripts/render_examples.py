#!/usr/bin/env python3
"""Render the example fast basins and continuation sequences to PGM files.

Usage: python scripts/render_examples.py [--out-dir out] [--fast]

Produces, per system, a fast-basin raster (depth-limited), and for the
triangle system the four cumulative continuation rasters that show a
sheet of the branched manifold being glued together.
"""

import argparse
from pathlib import Path

import numpy as np

from fbe import io, systems
from fbe.basin import (
    _RasterGrid,
    _raster_coords,
    continuation_pullbacks,
    fast_basin_raster,
)
from fbe.ifs import attractor


def render_fast_basins(out_dir: Path, fast: bool):
    grid = 512 if fast else 1024
    jobs = [
        ("cantor", (-4.0, 4.0), (grid * 2, 1), 3, 3.0**-8),
        ("interval", (-4.0, 4.0), (grid * 2, 1), 3, 2.0**-10),
        ("sierpinski", (-2.0, -2.0, 2.0, 2.0), (grid, grid), 4, 2.0**-8),
        ("koch", (-4.0, -3.0, 4.0, 2.0), (grid, grid), 4, 2.0**-7),
        ("interpolation", (-3.0, -2.0, 3.0, 3.0), (grid, grid), 4, 2.0**-7),
        ("mobius_arc", (-2.0, -0.5, 2.0, 3.5), (grid, grid), 4, 5e-4),
        ("schottky", (-2.0, -4.5, 2.0, 4.5), (grid, grid), 3, 1e-3),
        ("projective_line", (-12.0, -6.0, 12.0, 6.0), (grid, grid), 2, 1e-3),
    ]
    for name, region, (nx, ny), depth, cell in jobs:
        ifs = systems.by_name(name)
        cloud = attractor(ifs, cell)
        ras = fast_basin_raster(ifs, cloud, region, nx, ny, depth=depth)
        path = out_dir / f"{name}_fastbasin_d{depth}.pgm"
        io.write_pgm(ras, path)
        print(f"{path}  ({ras.hit_count} hit cells)")


def render_quadratic_graph(out_dir: Path, fast: bool):
    """Attractor of the complex-quadratic graph system, projected to
    (Re z, Re w): the graph of z -> z^2 seen from the real slice."""
    grid = 512 if fast else 1024
    ifs = systems.by_name("quadratic_graph")
    cloud = attractor(ifs, 0.05)
    lo = np.array([-1.6, -2.4])
    hi = np.array([1.6, 2.4])
    g = _RasterGrid(lo, hi, grid, grid, tau=cloud.tau)
    g.mark(cloud.points[:, [0, 2]], 0)
    ras = g.finalize()
    path = out_dir / "quadratic_graph_attractor.pgm"
    io.write_pgm(ras, path)
    print(f"{path}  ({ras.hit_count} hit cells)")


def render_triangle_continuations(out_dir: Path, fast: bool):
    """The four continuation rasters B_{iii,l}, l = 1..4, of the
    quarter-triangle system. In the branched manifold these are four
    sheets glued along B_{iii}; their projections overlap heavily, so
    each is written as its own raster."""
    grid = 512 if fast else 1024
    ifs = systems.by_name("triangle")
    cloud = attractor(ifs, 2.0**-7)
    prefix = (4, 4, 4)
    region_lo = np.array([-8.0, -8.0])
    region_hi = np.array([9.0, 9.0])
    for last in (1, 2, 3, 4):
        theta = prefix + (last,)
        g = _RasterGrid(region_lo, region_hi, grid, grid, tau=cloud.tau)
        pulls = continuation_pullbacks(ifs, cloud, theta, len(theta))
        for k, pts in enumerate(pulls[1:], start=1):
            g.mark(_raster_coords(ifs, pts), k)
        ras = g.finalize()
        path = out_dir / f"triangle_continuation_sheet{last}.pgm"
        io.write_pgm(ras, path)
        print(f"{path}  ({ras.hit_count} hit cells)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--fast", action="store_true", help="half-resolution renders")
    args = ap.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    render_fast_basins(out_dir, args.fast)
    render_quadratic_graph(out_dir, args.fast)
    render_triangle_continuations(out_dir, args.fast)


if __name__ == "__main__":
    main()
