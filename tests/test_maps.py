import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbe
from fbe import systems
from fbe.errors import NonInvertibleMapError
from fbe.maps import AffineMap, MoebiusMap, from_sphere, row_distances, to_sphere

from oracles import affine_row, chordal_distance


def test_affine_apply_and_inverse():
    m = AffineMap(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
    pts = np.array([[1.0, 2.0], [0.0, 0.0]])
    out = m(pts)
    assert np.allclose(out, [[5.0, 1.0], [1.0, -1.0]])
    back = m.inverse()(out)
    assert np.allclose(back, pts)


def test_affine_refuses_rows_of_another_width():
    m = AffineMap(np.eye(2), np.zeros(2))
    for pts in (np.zeros((4, 3)), np.zeros(1), np.zeros((2, 1))):
        with pytest.raises(ValueError):
            m(pts)


@st.composite
def _affine_batch(draw):
    """A random contractive affine map on R1, R2 or R4 (sigma_max <= 0.99),
    a batch of 1 to 64 points, and a row of it."""
    dim = draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = (np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2))
    mat = u @ np.diag(rng.uniform(-0.99, 0.99, dim)) @ v
    f = AffineMap(mat, rng.uniform(-1.0, 1.0, dim))
    pts = rng.uniform(-3.0, 3.0, (draw(st.integers(1, 64)), dim))
    return f, pts, draw(st.integers(0, len(pts) - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_affine_batch())
def test_affine_row_is_the_same_in_any_batch(case):
    # a row's image alone, inside the batch, inside the batch's tail from
    # that row, and from the formula in Python floats: one float each
    f, pts, r = case
    batch = f(pts)
    assert f(pts[r]).tobytes() == batch[r : r + 1].tobytes()
    assert f(pts[r:]).tobytes() == batch[r:].tobytes()
    mat, off = f.matrix.tolist(), f.offset.tolist()
    ref = [affine_row(mat, off, x) for x in pts.tolist()]
    assert batch.tobytes() == np.array(ref).tobytes()


def _image_digest() -> str:
    """sha256 of the images of 2,000 fixed points under each map and
    inverse of koch, interpolation and quadratic_graph: each batch, then
    its first 200 rows one call at a time."""
    h = hashlib.sha256()
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (2000, 4))
    for name in ("koch", "interpolation", "quadratic_graph"):
        ifs = systems.by_name(name)
        x = pts[:, : ifs.dim]
        for d in (d for i in range(1, ifs.n_maps + 1) for d in (i, -i)):
            f = ifs.map_for(d)
            h.update(f(x).tobytes())
            for row in x[:200]:
                h.update(f(row).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kernel", ["Sandybridge", "Haswell", "SkylakeX"])
def test_affine_images_do_not_depend_on_the_blas_kernel(kernel):
    # OpenBLAS picks its kernel when it loads, so a child interpreter runs
    # under each; a pre-FMA kernel (Sandybridge) rounds a BLAS product apart
    # from an FMA one, which affine_image never calls
    path = [str(Path(fbe.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(path)}
    code = "import test_maps; print(test_maps._image_digest())"
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert child.stdout.strip() == _image_digest()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_row_distances_equal_norm(dim):
    # bit for bit np.linalg.norm(a - b, axis=1), also where a row holds
    # inf, nan, -0.0 or a value whose square overflows, and against one point
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((500, dim)) * 10.0 ** rng.integers(-8, 8, (500, 1))
    b = rng.standard_normal((500, dim))
    for k, v in enumerate([np.inf, -np.inf, np.nan, -0.0, 1e200, -1e200]):
        a[k, k % dim] = v
        b[k + 10, -1] = v
        a[k + 20], b[k + 20] = v, v
    a[30:40], b[30:40] = -0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for other in (b, b[7], b[3:4]):
            ref = np.linalg.norm(a - other, axis=1)
            assert row_distances(a, other).tobytes() == ref.tobytes()


def test_affine_fixed_point():
    m = AffineMap(np.array([[0.5]]), np.array([0.5]))
    assert np.allclose(m.fixed_point(), [1.0])


def test_sphere_round_trip():
    z = np.array([0.0 + 0j, 1.0 + 2j, -3.5 + 0.25j, 1e8 + 1e8j])
    back = from_sphere(to_sphere(z))
    assert np.allclose(back[:3], z[:3])
    pole = to_sphere(np.array([complex(np.inf, 0)]))
    assert np.allclose(pole[0], [0.0, 0.0, 1.0])
    assert not np.isfinite(from_sphere(pole)[0].real)


def test_chordal_distance_formula():
    z, w = 1.0 + 1j, -2.0 + 0.5j
    expected = 2 * abs(z - w) / np.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))
    assert chordal_distance(z, w) == pytest.approx(expected, rel=1e-12)


def test_moebius_normalisation_and_inverse():
    m = MoebiusMap(9.0, 0.0, -2.0, 20.0)
    assert m.a * m.d - m.b * m.c == pytest.approx(1.0)
    z = np.array([0.3 + 0.1j])
    assert np.allclose(m.inverse().apply_complex(m.apply_complex(z)), z)


def test_moebius_pole_to_infinity():
    m = MoebiusMap(1.0, 0.0, 1.0, -1.0)  # pole at z=1
    out = m.apply_complex(np.array([1.0 + 0j]))
    assert not np.isfinite(out[0].real)
    # and infinity maps to a/c
    back = m.apply_complex(out)
    assert back[0] == pytest.approx(1.0)


def test_moebius_attracting_fixed_point_with_c_zero():
    # f(z) = z/4 + 1/2: the finite fixed point 2/3 attracts, infinity repels
    assert MoebiusMap(1.0, 2.0, 0.0, 4.0).attracting_fixed_point() == pytest.approx(
        2 / 3
    )
    # f(z) = 4z: infinity attracts, 0 repels
    z = MoebiusMap(4.0, 0.0, 0.0, 1.0).attracting_fixed_point()
    assert not np.isfinite(z.real)


def test_moebius_degenerate_rejected():
    with pytest.raises(NonInvertibleMapError):
        MoebiusMap(1.0, 2.0, 2.0, 4.0)


def test_chordal_derivative_matches_numeric():
    m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        z = complex(rng.normal(), rng.normal())
        h = 1e-6
        w = z + h
        numeric = chordal_distance(
            complex(m.apply_complex(np.array([z]))[0]),
            complex(m.apply_complex(np.array([w]))[0]),
        ) / chordal_distance(z, w)
        assert m.chordal_derivative(np.array([z]))[0] == pytest.approx(
            numeric, rel=1e-4
        )


def test_chordal_derivative_finite_at_pole_and_infinity():
    m = MoebiusMap(2.0, 1.0, 1.0, 1.0)
    pole = -m.d / m.c
    vals = m.chordal_derivative(np.array([pole, complex(np.inf, 0)]))
    assert np.all(np.isfinite(vals))
