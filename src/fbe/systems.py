"""Built-in example systems used by the CLI, tests, and scripts."""

from __future__ import annotations

import numpy as np

from .ifs import IfsSystem
from .maps import AffineMap, MoebiusMap


def _aff1(scale: float, offset: float) -> AffineMap:
    return AffineMap(np.array([[scale]]), np.array([offset]))


def cantor() -> IfsSystem:
    """{x/3, x/3 + 2/3} on the line; attractor is the middle-thirds set."""
    return IfsSystem("R1", (_aff1(1 / 3, 0.0), _aff1(1 / 3, 2 / 3)))


def interval() -> IfsSystem:
    """{x/2, x/2 + 1/2} on the line; attractor is [0, 1]."""
    return IfsSystem("R1", (_aff1(0.5, 0.0), _aff1(0.5, 0.5)))


def sierpinski() -> IfsSystem:
    """{(x+v)/2 : v in {(0,0), (1,0), (0,1)}}; attractor is the gasket."""
    half = 0.5 * np.eye(2)
    offsets = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))
    return IfsSystem("R2", tuple(AffineMap(half, np.array(t)) for t in offsets))


def koch() -> IfsSystem:
    """Two-map affine system whose attractor is a Koch-type curve."""
    s = 1.0 / (2.0 * np.sqrt(3.0))
    m1 = AffineMap(np.array([[0.5, s], [s, -0.5]]), np.array([-1.0, 0.0]))
    m2 = AffineMap(np.array([[0.5, -s], [-s, -0.5]]), np.array([1.0, 0.0]))
    return IfsSystem("R2", (m1, m2))


def interpolation() -> IfsSystem:
    """Affine pair whose attractor is the graph of a fractal interpolant."""
    m1 = AffineMap(np.array([[0.5, 0.0], [0.5, 0.4]]), np.array([0.5, 0.25]))
    m2 = AffineMap(np.array([[0.5, 0.0], [-0.5, 0.4]]), np.array([-0.5, 0.25]))
    return IfsSystem("R2", (m1, m2))


def quadratic_graph() -> IfsSystem:
    """Four complex-affine maps on C^2 (as R^4); attractor is the graph of
    z -> z^2 over the unit square."""

    def cplx_affine(m: np.ndarray, t: np.ndarray) -> AffineMap:
        # complex 2x2 matrix + offset -> real 4x4 + offset
        real = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                real[2 * i, 2 * j] = m[i, j].real
                real[2 * i, 2 * j + 1] = -m[i, j].imag
                real[2 * i + 1, 2 * j] = m[i, j].imag
                real[2 * i + 1, 2 * j + 1] = m[i, j].real
        off = np.array([t[0].real, t[0].imag, t[1].real, t[1].imag])
        return AffineMap(real, off)

    maps = []
    for s in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j):
        m = np.array([[0.5, 0.0], [s / 2.0, 0.25]], dtype=complex)
        t = np.array([s / 2.0, (s * s) / 4.0], dtype=complex)
        maps.append(cplx_affine(m, t))
    return IfsSystem("R4", tuple(maps))


def triangle() -> IfsSystem:
    """Four affine maps subdividing a right triangle into its corner and
    middle quarter triangles; the attractor is the filled triangle."""
    f1 = AffineMap(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([0.0, 0.0]))
    f2 = AffineMap(np.array([[0.5, 0.0], [-0.5, -0.5]]), np.array([0.5, 0.5]))
    f3 = AffineMap(np.array([[-0.5, -0.5], [0.0, 0.5]]), np.array([0.5, 0.5]))
    f4 = AffineMap(np.array([[-0.5, 0.0], [0.0, -0.5]]), np.array([0.5, 0.5]))
    return IfsSystem("R2", (f1, f2, f3, f4))


def mobius_arc() -> IfsSystem:
    """Moebius pair whose attractor is an arc of the circle |z - 3i/2| = 1/2."""
    m1 = MoebiusMap(-31 + 4j, 8 + 22j, 2 + 11j, 2 - 4j)
    m2 = MoebiusMap(-25 - 13j, -17 + 14j, -11 + 7j, -4 + 13j)
    return IfsSystem("sphere", (m1, m2))


def projective_line() -> IfsSystem:
    """{9x/(20-2x), (11x+9)/(2x+18)} on the projective line (as the sphere);
    attractor [0,1], dual-repeller attractor R minus (-9/2, 11/2)."""
    m1 = MoebiusMap(9.0, 0.0, -2.0, 20.0)
    m2 = MoebiusMap(11.0, 9.0, 2.0, 18.0)
    return IfsSystem("sphere", (m1, m2))


def schottky() -> IfsSystem:
    """Loxodromic Moebius pair generating a Schottky group; totally
    disconnected attractor near +-1."""
    c = 0.15
    k = 2.0 + np.sqrt(3.0)
    a = (-1j * k * c + 1.0) / (1.0 - c)
    m1 = MoebiusMap(a, -1j * k, 1.0, -1j * k + a - 1.0)
    m2 = MoebiusMap(a, 1j * k, -1.0, -1j * k + a - 1.0)
    return IfsSystem("sphere", (m1, m2))


SYSTEMS = {
    "cantor": cantor,
    "interval": interval,
    "sierpinski": sierpinski,
    "koch": koch,
    "interpolation": interpolation,
    "quadratic_graph": quadratic_graph,
    "triangle": triangle,
    "mobius_arc": mobius_arc,
    "projective_line": projective_line,
    "schottky": schottky,
}


# The CLI's --cell default. quadratic_graph's point count grows about 4x
# per step, and at 1e-3 a step would pass fbe.ifs.MAX_IMAGE_POINTS.
DEFAULT_CELL = 1e-3
CELLS = {"quadratic_graph": 1 / 32}


def by_name(name: str) -> IfsSystem:
    try:
        return SYSTEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; choose from {sorted(SYSTEMS)}"
        ) from None
