import numpy as np
import pytest

from fbe.errors import NonInvertibleMapError
from fbe.maps import AffineMap, MoebiusMap, from_sphere, to_sphere

from oracles import chordal_distance


def test_affine_apply_and_inverse():
    m = AffineMap(np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
    pts = np.array([[1.0, 2.0], [0.0, 0.0]])
    out = m(pts)
    assert np.allclose(out, [[5.0, 1.0], [1.0, -1.0]])
    back = m.inverse()(out)
    assert np.allclose(back, pts)


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
