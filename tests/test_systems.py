import numpy as np
import pytest

from fbe import systems
from fbe.ifs import attractor, hausdorff_distance


def test_registry_constructs_all():
    for name in systems.SYSTEMS:
        ifs = systems.by_name(name)
        assert ifs.n_maps >= 1
        seed = ifs.fixed_points()
        assert seed.shape == (ifs.n_maps, ifs.dim)


def test_unknown_name():
    with pytest.raises(KeyError):
        systems.by_name("no-such-system")


def test_lipschitz_bound_flags():
    assert systems.cantor().map_lipschitz(1) == pytest.approx(1 / 3)
    assert systems.cantor().map_lipschitz(-1) == pytest.approx(3.0)
    assert np.isfinite(systems.mobius_arc().map_lipschitz(1))


@pytest.mark.parametrize(
    "name,cell",
    [
        ("koch", 2.0**-7),
        ("interpolation", 2.0**-7),
        ("triangle", 2.0**-6),
    ],
)
def test_affine_systems_converge_and_invariant(name, cell):
    ifs = systems.by_name(name)
    cloud = attractor(ifs, cell)
    imgs = np.concatenate(
        [ifs.transform(i, cloud.points) for i in range(1, ifs.n_maps + 1)]
    )
    assert hausdorff_distance(imgs, cloud.points) <= 2 * cloud.epsilon


def test_quadratic_graph_is_graph_of_square():
    # points are (Re z, Im z, Re w, Im w) with w = z^2 on the attractor
    ifs = systems.by_name("quadratic_graph")
    cloud = attractor(ifs, 0.05)
    z = cloud.points[:, 0] + 1j * cloud.points[:, 1]
    w = cloud.points[:, 2] + 1j * cloud.points[:, 3]
    # snapping moves points off the graph by at most the cell diagonal
    assert np.abs(w - z * z).max() <= 0.4
    assert np.abs(z.real).max() <= 1.1 and np.abs(z.imag).max() <= 1.1


def test_triangle_subdivision_geometry():
    ifs = systems.by_name("triangle")
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a, b, c = (0.5, 0.5), (0.0, 0.5), (0.5, 0.0)
    # f_4 sends the corners to the midpoint triangle
    out = ifs.transform(4, corners)
    assert np.allclose(sorted(map(tuple, out)), sorted([a, b, c]))


def test_schottky_attractor_near_units():
    ifs = systems.schottky()
    cloud = attractor(ifs, 1e-3)
    from fbe.maps import from_sphere

    z = from_sphere(cloud.points)
    near = np.minimum(np.abs(z - 1.0), np.abs(z + 1.0))
    assert near.max() <= 0.5
