"""Invertible map families: affine maps on R^d and Moebius maps on the
Riemann sphere.

Sphere points are stored as unit 3-vectors (stereographic embedding), so
the chordal metric is plain Euclidean distance on the embedding and all
point-cloud machinery is dimension-agnostic. Moebius maps act on complex
values; conversion happens at the map boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleMapError

_INF = complex(np.inf, 0.0)


# -- Riemann sphere embedding -------------------------------------------------


def to_sphere(z: np.ndarray) -> np.ndarray:
    """Complex values -> unit-sphere 3-vectors; inf/nan map to the north pole."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    x, y = z.real, z.imag
    out = np.empty(z.shape + (3,), dtype=float)
    with np.errstate(all="ignore"):
        r2 = x * x + y * y
        denom = 1.0 + r2
        out[..., 0] = 2.0 * x / denom
        out[..., 1] = 2.0 * y / denom
        out[..., 2] = (r2 - 1.0) / denom
    bad = ~np.isfinite(z.real) | ~np.isfinite(z.imag) | ~np.isfinite(denom)
    out[bad] = (0.0, 0.0, 1.0)
    return out


def from_sphere(pts: np.ndarray) -> np.ndarray:
    """Unit-sphere 3-vectors -> complex values (north pole -> inf)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    # Re-normalise: grid snapping may leave points slightly off the sphere.
    norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    pts = pts / np.where(norms == 0.0, 1.0, norms)
    denom = 1.0 - pts[..., 2]
    near_pole = denom < 1e-14
    with np.errstate(all="ignore"):
        z = (pts[..., 0] + 1j * pts[..., 1]) / denom
    z[near_pole] = _INF
    return z


# -- affine maps ---------------------------------------------------------------


def affine_image(pts: np.ndarray, matrix: np.ndarray, offset: np.ndarray, out=None):
    """Rows x -> M x + b, coordinate k ((x_0 M[k,0] + x_1 M[k,1]) + ...) + b[k],
    one rounded ufunc call per product and sum (no BLAS, no fused multiply-add),
    so a row's image depends on that row alone; M and b may lead with a row axis."""
    d = matrix.shape[-1]
    if pts.shape[-1] != d:
        raise ValueError(f"{pts.shape[-1]} coordinates for a {d}-d map")
    out = np.empty(pts.shape) if out is None else out
    for k in range(d):  # column by column: each ufunc call runs over all rows
        acc = pts[..., 0] * matrix[..., k, 0]
        for j in range(1, d):
            acc += pts[..., j] * matrix[..., k, j]
        np.add(acc, offset[..., k], out=out[..., k])
    return out


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> matrix @ x + offset on R^d."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        t = np.asarray(self.offset, dtype=float).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != t.shape[0]:
            raise ValueError("matrix must be d x d with a length-d offset")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", t)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return affine_image(pts, self.matrix, self.offset)

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)

    def lipschitz(self) -> float:
        """Exact bound: the largest singular value."""
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])

    def fixed_point(self) -> np.ndarray:
        return np.linalg.solve(np.eye(self.dim) - self.matrix, self.offset)

    def coefficients(self):
        return {
            "type": "affine",
            "matrix": self.matrix.tolist(),
            "offset": self.offset.tolist(),
        }


# -- Moebius maps --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MoebiusMap:
    """z -> (a z + b) / (c z + d), normalised to ad - bc = 1."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(v) for v in (self.a, self.b, self.c, self.d))
        det = a * d - b * c
        if det == 0:
            raise NonInvertibleMapError(None, "moebius map has ad - bc = 0")
        s = np.sqrt(complex(det))
        object.__setattr__(self, "a", a / s)
        object.__setattr__(self, "b", b / s)
        object.__setattr__(self, "c", c / s)
        object.__setattr__(self, "d", d / s)

    def apply_complex(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty_like(z)
        at_inf = ~np.isfinite(z.real) | ~np.isfinite(z.imag)
        zf = np.where(at_inf, 0.0, z)
        num = self.a * zf + self.b
        den = self.c * zf + self.d
        pole = np.abs(den) == 0.0
        with np.errstate(all="ignore"):
            out = num / np.where(pole, 1.0, den)
        out[pole] = _INF
        if self.c == 0:
            out[at_inf] = _INF
        else:
            out[at_inf] = self.a / self.c
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Act on embedded sphere points."""
        return to_sphere(self.apply_complex(from_sphere(pts)))

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def chordal_derivative(self, z: np.ndarray) -> np.ndarray:
        """Derivative in the chordal metric, (1+|z|^2)/(|cz+d|^2 + |az+b|^2).

        Continuous across the pole; the value at infinity is the limit
        1/(|a|^2 + |c|^2).
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        at_inf = ~np.isfinite(z.real) | ~np.isfinite(z.imag)
        zf = np.where(at_inf, 0.0, z)
        num = 1.0 + np.abs(zf) ** 2
        den = np.abs(self.c * zf + self.d) ** 2 + np.abs(self.a * zf + self.b) ** 2
        out = num / den
        lim = 1.0 / (abs(self.a) ** 2 + abs(self.c) ** 2)
        out[at_inf] = lim
        return out

    def lipschitz(self) -> float:
        """Exact bound: the largest singular value of the matrix, squared.

        With v = (z, 1) the chordal derivative is |v|^2 / |Mv|^2, whose
        supremum is 1/sigma_min^2 = sigma_max^2 for det M = 1. The bound is
        >= 1, so it also bounds the Lipschitz constant of chord length.
        """
        return float(np.linalg.svd(self.matrix(), compute_uv=False)[0] ** 2)

    def fixed_points(self) -> list[complex]:
        """Solutions of c z^2 + (d - a) z - b = 0 (plus inf when c = 0)."""
        if self.c == 0:
            pts = [_INF]
            if self.a != self.d:
                pts.append(self.b / (self.d - self.a))
            return pts
        disc = np.sqrt(complex((self.d - self.a) ** 2 + 4 * self.b * self.c))
        return [
            ((self.a - self.d) + disc) / (2 * self.c),
            ((self.a - self.d) - disc) / (2 * self.c),
        ]

    def attracting_fixed_point(self) -> complex:
        """Fixed point with |f'| <= 1 (|cz + d| >= 1 in the det-1 form)."""

        def strength(z):
            if not np.isfinite(z.real) or not np.isfinite(z.imag):
                # c = 0 makes d = 1/a, so f(z) = a^2 z + ab and f'(inf) =
                # 1/a^2: |a| stands in for |cz + d|
                return abs(self.a)
            return abs(self.c * z + self.d)

        return max(self.fixed_points(), key=strength)

    def coefficients(self):
        return {
            "type": "moebius",
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "c": [self.c.real, self.c.imag],
            "d": [self.d.real, self.d.imag],
        }
