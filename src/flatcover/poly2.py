"""Bivariate polynomials with exact coefficient arithmetic.

A polynomial is stored as a sparse map ``(j, k) -> a_jk`` for the monomial
``x^j * y^k``.  All structural operations (differentiation, products,
affine substitution) are closed-form manipulations of that map; nothing
here ever fits or samples.  Coefficients are binary64 floats and the
arithmetic is the obvious one, so results are exact whenever the inputs
and intermediates are exactly representable (integer and dyadic
coefficients in particular).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

Exponent = Tuple[int, int]
CoeffMap = Dict[Exponent, float]


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in two variables, sparse coefficient form.

    ``degree`` is the declared cap: every stored exponent satisfies
    ``j + k <= degree``.  The declared degree may exceed the support
    (a quadratic may be declared with degree 4); it is carried so that
    normal-form bounds that depend on the degree have a stable ``d``.

    Instances are treated as immutable: the Horner rows of ``eval`` and
    the derivative polynomials are derived on first use and cached.
    """

    degree: int
    coeffs: CoeffMap = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        cleaned = {}
        for (j, k), a in self.coeffs.items():
            if j < 0 or k < 0:
                raise ValueError(f"negative exponent {(j, k)}")
            if j + k > self.degree:
                raise ValueError(
                    f"monomial {(j, k)} exceeds declared degree {self.degree}"
                )
            if a != 0.0:
                cleaned[(int(j), int(k))] = float(a)
        object.__setattr__(self, "coeffs", cleaned)

    # -- basic queries -------------------------------------------------

    def coeff(self, j: int, k: int) -> float:
        return self.coeffs.get((j, k), 0.0)

    def support_degree(self) -> int:
        """Largest j+k with a nonzero coefficient (0 for the zero poly)."""
        return max((j + k for (j, k) in self.coeffs), default=0)

    @cached_property
    def _horner_rows(self) -> Tuple[Tuple[float, ...], ...]:
        return _dense_rows(self.coeffs)

    def eval(self, x, y):
        """Evaluate at scalars or numpy arrays.

        Horner in y for each x-degree, then Horner in x; one pass per
        stored degree, no power tables.  Two Python floats stay Python
        floats throughout, with the same operations as the array path.
        """
        rows = self._horner_rows
        scalar = isinstance(x, float) and isinstance(y, float)
        if not scalar:
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            if not rows and (x.shape or y.shape):
                return np.zeros(np.broadcast(x, y).shape)
        out = _horner(rows, x, y)
        if scalar or np.ndim(out) == 0:
            return float(out)
        return out

    # -- calculus (exact coefficient manipulation) ---------------------

    def diff(self, axis: int) -> "BivariatePoly":
        """Partial derivative along axis 0 (x) or 1 (y)."""
        return BivariatePoly(max(self.degree - 1, 0), _diff_coeffs(self.coeffs, axis))

    @cached_property
    def _gradient_polys(self) -> Tuple["BivariatePoly", "BivariatePoly"]:
        return self.diff(0), self.diff(1)

    @cached_property
    def _hessian_polys(self) -> Tuple["BivariatePoly", "BivariatePoly", "BivariatePoly"]:
        px, py = self._gradient_polys
        return px.diff(0), px.diff(1), py.diff(1)

    def gradient(self, x, y):
        px, py = self._gradient_polys
        return np.stack([np.asarray(px.eval(x, y)), np.asarray(py.eval(x, y))], axis=-1)

    def hessian_polys(self):
        """The three second-derivative polynomials (pxx, pxy, pyy),
        derived once per polynomial."""
        return self._hessian_polys

    def hessian(self, x, y):
        pxx, pxy, pyy = self.hessian_polys()
        h11 = np.asarray(pxx.eval(x, y))
        h12 = np.asarray(pxy.eval(x, y))
        h22 = np.asarray(pyy.eval(x, y))
        return np.stack(
            [np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2
        )

    def hessian_det_poly(self) -> "BivariatePoly":
        """det of the Hessian as a polynomial: pxx*pyy - pxy^2, exact."""
        pxx, pxy, pyy = self.hessian_polys()
        return poly_sub(poly_mul(pxx, pyy), poly_mul(pxy, pxy))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        items = sorted(self.coeffs.items())
        return {
            "degree": self.degree,
            "coeffs": [[j, k, a] for (j, k), a in items],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "BivariatePoly":
        try:
            degree = int(obj["degree"])
            raw = obj["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed phase record: {exc}") from exc
        coeffs: CoeffMap = {}
        for entry in raw:
            if len(entry) != 3:
                raise ValueError(f"coefficient entry must be [j, k, value]: {entry}")
            j, k, a = int(entry[0]), int(entry[1]), float(entry[2])
            if not np.isfinite(a):
                raise ValueError(f"malformed phase record: coefficient ({j},{k}) is {a!r}")
            if j + k > degree:
                raise ValueError(
                    f"coefficient ({j},{k}) exceeds declared degree {degree}"
                )
            coeffs[(j, k)] = coeffs.get((j, k), 0.0) + a
        return BivariatePoly(degree, coeffs)


# -- arithmetic helpers (module level so they read like operators) -------
#
# The helpers on coefficient maps accept array entries, one value per
# polynomial of a stack that shares one key tuple: each array slot then
# takes the operations, in the same order, of its polynomial's own call.


def _dense_rows(coeffs: CoeffMap) -> Tuple[tuple, ...]:
    """Dense coefficient rows: row j holds a_jk for k = 0..kmax."""
    if not coeffs:
        return ()
    jmax = max(j for (j, _) in coeffs)
    kmax = max(k for (_, k) in coeffs)
    rows = [[0.0] * (kmax + 1) for _ in range(jmax + 1)]
    for (j, k), a in coeffs.items():
        rows[j][k] = a
    return tuple(map(tuple, rows))


def _horner(rows, x, y):
    """Horner in y for each row of ``_dense_rows``, then Horner in x."""
    out = 0.0
    for row in reversed(rows):
        acc = 0.0
        for a in reversed(row):
            acc = acc * y + a
        out = out * x + acc
    return out


def _diff_coeffs(coeffs: CoeffMap, axis: int) -> CoeffMap:
    out: CoeffMap = {}
    for (j, k), a in coeffs.items():
        if axis == 0 and j > 0:
            out[(j - 1, k)] = out.get((j - 1, k), 0.0) + j * a
        elif axis == 1 and k > 0:
            out[(j, k - 1)] = out.get((j, k - 1), 0.0) + k * a
    return out


def poly_sub(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    out = dict(p.coeffs)
    for e, a in q.coeffs.items():
        out[e] = out.get(e, 0.0) - a
    return BivariatePoly(max(p.degree, q.degree), out)


def poly_scale(p: BivariatePoly, c: float) -> BivariatePoly:
    return BivariatePoly(p.degree, {e: c * a for e, a in p.coeffs.items()})


def _mul_coeffs(p: CoeffMap, q: CoeffMap) -> CoeffMap:
    """Product of two coefficient maps, zero entries dropped as
    ``BivariatePoly`` drops them; array entries (``_compose_coeffs``) stay."""
    out: CoeffMap = {}
    for (j1, k1), a in p.items():
        for (j2, k2), b in q.items():
            e = (j1 + j2, k1 + k2)
            out[e] = out.get(e, 0.0) + a * b
    return {e: a for e, a in out.items() if (a != 0.0) is not False}


def poly_mul(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    return BivariatePoly(p.degree + q.degree, _mul_coeffs(p.coeffs, q.coeffs))


def _powers(lin: CoeffMap, top: int) -> List[CoeffMap]:
    """Coefficient maps of lin^0 .. lin^top, zero entries dropped."""
    out = [{(0, 0): 1.0}]
    lin = {e: a for e, a in lin.items() if (a != 0.0) is not False}
    for _ in range(top):
        out.append(_mul_coeffs(out[-1], lin))
    return out


def _compose_coeffs(coeffs: CoeffMap, mat, offset) -> CoeffMap:
    """``compose_affine``'s coefficients; an entry of ``mat`` or ``offset`` may
    be an array of one value per frame, whose zero products stay as zeros."""
    jmax = max((j for (j, _) in coeffs), default=0)
    kmax = max((k for (_, k) in coeffs), default=0)
    pow1, pow2 = (_powers({(1, 0): mat[i][0], (0, 1): mat[i][1], (0, 0): offset[i]}, top)
                  for i, top in ((0, jmax), (1, kmax)))
    acc: CoeffMap = {}
    for (j, k), a in coeffs.items():
        for e, b in _mul_coeffs(pow1[j], pow2[k]).items():
            acc[e] = acc.get(e, 0.0) + a * b
    return acc


def compose_affine(p: BivariatePoly, mat, offset) -> BivariatePoly:
    """Exact coefficients of p(L(u, v)) for the affine map L = mat . + offset.

    Each substituted variable is an affine polynomial in (u, v); powers are
    built by repeated exact products of coefficient maps, so dyadic inputs
    stay exact.  The result keeps the declared degree of ``p``.
    """
    mat = np.asarray(mat, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if mat.shape != (2, 2) or offset.shape != (2,):
        raise ValueError("affine map must be a 2x2 matrix and a 2-vector")
    return BivariatePoly(p.degree, _compose_coeffs(p.coeffs, mat.tolist(), offset.tolist()))


def _minus_tangent_coeffs(coeffs: CoeffMap, x: float, y: float) -> CoeffMap:
    """``minus_tangent_plane``'s coefficients, zero entries kept.  A plane
    term absent from ``coeffs`` is appended after its keys, in the order
    constant, x, y; one that comes out zero is then dropped, as adding a
    zero plane term leaves a polynomial as it was."""
    gx, gy = (_horner(_dense_rows(_diff_coeffs(coeffs, axis)), x, y) for axis in (0, 1))
    c0 = _horner(_dense_rows(coeffs), x, y) - gx * x - gy * y
    out = dict(coeffs)
    for e, a in (((0, 0), c0), ((1, 0), gx), ((0, 1), gy)):
        out[e] = out.get(e, 0.0) - a
    return out


def minus_tangent_plane(p: BivariatePoly, x: float = 0.0, y: float = 0.0) -> BivariatePoly:
    """p minus its tangent plane at (x, y); flatness defects do not see
    the difference."""
    return BivariatePoly(max(p.degree, 1), _minus_tangent_coeffs(p.coeffs, x, y))


# -- convenience constructors -------------------------------------------


def hyperbolic_phase() -> BivariatePoly:
    """The model saddle x*y."""
    return BivariatePoly(2, {(1, 1): 1.0})


def elliptic_phase() -> BivariatePoly:
    """The model bowl x^2 + y^2."""
    return BivariatePoly(2, {(2, 0): 1.0, (0, 2): 1.0})


def perturbed_hyperbolic(degree: int, rng: np.random.Generator) -> BivariatePoly:
    """Random admissible perturbation of x*y.

    All coefficients other than the mixed one are drawn uniformly from
    [-m, m] with the class bound m = 10^(-10*degree).
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    m = 10.0 ** (-10 * degree)
    coeffs: CoeffMap = {(1, 1): 1.0}
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            if (j, k) in ((1, 1), (0, 0), (1, 0), (0, 1)):
                continue
            coeffs[(j, k)] = rng.uniform(-m, m)
    return BivariatePoly(degree, coeffs)


def load_phase(path: str) -> BivariatePoly:
    with open(path, "r", encoding="utf-8") as fh:
        return BivariatePoly.from_json_dict(json.load(fh))
