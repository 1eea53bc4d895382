"""The resolution a cloud states, checked against attractors known in
closed form: H(cloud, A) <= epsilon.

Each oracle is a finite set S inside A with a covering radius r (every
point of A lies within r of S). Then d(p, A) <= d(p, S) for cloud points
p, and d(a, cloud) <= d(s, cloud) + r for points a of A, so
H(cloud, A) <= H(cloud, S) + r: the oracle's own error is added to the
measured distance, never subtracted.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fbe import systems
from fbe.ifs import attractor
from fbe.maps import to_sphere

from oracles import (
    cantor_distance,
    cantor_level_points,
    certified_cover,
    sierpinski_vertices,
)


def _one_sided(a: np.ndarray, b: np.ndarray) -> float:
    """The largest distance from a point of a to the set b."""
    return float(cKDTree(b).query(a)[0].max())


def _hausdorff_bound(cloud, s: np.ndarray, r: float) -> float:
    return max(_one_sided(cloud.points, s), _one_sided(s, cloud.points) + r)


def _cloud(name: str, cell: float):
    ifs = systems.by_name(name)
    return attractor(ifs, cell)


def test_interval_epsilon_against_unit_interval():
    cloud = _cloud("interval", 1e-3)
    n = 2**16
    s = (np.arange(n + 1) / n)[:, None]  # spacing 1/n, exact in binary
    assert _hausdorff_bound(cloud, s, 0.5 / n) <= cloud.epsilon


def test_projective_line_epsilon_against_arc():
    # the attractor is [0, 1] on the real line, an arc of the sphere; the
    # chordal distance is at most 2|t - t'|, so samples 1/n apart cover
    # the arc within 1/n
    cloud = _cloud("projective_line", 1e-3)
    n = 10**5
    s = to_sphere(np.arange(n + 1) / n)
    assert _hausdorff_bound(cloud, s, 1.0 / n) <= cloud.epsilon


@pytest.mark.parametrize("fixture", ["cantor_cloud", "cantor_cloud_fine"])
def test_cantor_epsilon_against_ternary_oracle(fixture, request):
    cloud = request.getfixturevalue(fixture)
    # cloud to C: the exact distance, correct to 3^-80
    to_set = max(cantor_distance(Fraction(float(x))) for x in cloud.points[:, 0])
    to_set = float(to_set) + 3.0**-80
    # C to cloud: every point of C is within 3^-k / 2 of a level-k endpoint
    level = 12
    s = np.array([[float(q)] for q in cantor_level_points(level)])
    from_set = _one_sided(s, cloud.points) + 0.5 * 3.0**-level
    assert max(to_set, from_set) <= cloud.epsilon


@pytest.mark.parametrize("cell", [2.0**-7, 2.0**-8, 2.0**-9])
def test_sierpinski_epsilon_against_vertex_set(cell):
    # every point of the gasket lies in a level-k triangle, within its
    # hypotenuse sqrt(2) * 2^-k of a vertex
    cloud = _cloud("sierpinski", cell)
    level = 10
    s = sierpinski_vertices(level) / 2.0**level
    r = np.sqrt(2.0) * 2.0**-level
    assert _hausdorff_bound(cloud, s, r) <= cloud.epsilon


@pytest.mark.parametrize(
    "name, cell",
    [
        ("koch", 2.0**-7),
        ("koch", 2.0**-8),
        ("interpolation", 2.0**-7),
        ("triangle", 2.0**-6),
        ("quadratic_graph", 1 / 16),
        ("sierpinski", 2.0**-9),  # cross-check with the vertex-set oracle
    ],
)
def test_affine_epsilon_against_certified_cover(name, cell):
    # every point of A lies within delta of the cover P, and P lies on A,
    # so H(cloud, A) <= H(cloud, P) + delta
    cloud = _cloud(name, cell)
    delta = cloud.epsilon / 4
    p = certified_cover(systems.by_name(name), delta)
    h = max(_one_sided(cloud.points, p), _one_sided(p, cloud.points))
    assert h + delta <= cloud.epsilon
