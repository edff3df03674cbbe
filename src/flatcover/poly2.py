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

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

Exponent = Tuple[int, int]
CoeffMap = Dict[Exponent, float]

class DependenceClass(enum.Enum):
    """How many genuine variables a polynomial graph depends on."""

    AFFINE = "affine"
    ONE_VARIABLE = "one-variable"
    TWO_VARIABLE = "two-variable"


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in two variables, sparse coefficient form.

    ``degree`` is the declared cap: every stored exponent satisfies
    ``j + k <= degree``.  The declared degree may exceed the support
    (a quadratic may be declared with degree 4); it is carried so that
    normal-form bounds that depend on the degree have a stable ``d``.
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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x, y):
        return self.eval(x, y)

    def eval(self, x, y):
        """Evaluate at scalars or numpy arrays.

        Horner in y for each x-degree, then Horner in x; one pass per
        stored degree, no power tables.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not self.coeffs:
            return np.zeros(np.broadcast(x, y).shape) if x.shape or y.shape else 0.0
        jmax = max(j for (j, _) in self.coeffs)
        kmax = max(k for (_, k) in self.coeffs)
        table = np.zeros((jmax + 1, kmax + 1))
        for (j, k), a in self.coeffs.items():
            table[j, k] = a
        # Horner in y per row, then Horner in x.
        out = 0.0
        for j in range(jmax, -1, -1):
            row = 0.0
            for k in range(kmax, -1, -1):
                row = row * y + table[j, k]
            out = out * x + row
        if np.ndim(out) == 0:
            return float(out)
        return out

    # -- calculus (exact coefficient manipulation) ---------------------

    def diff(self, axis: int) -> "BivariatePoly":
        """Partial derivative along axis 0 (x) or 1 (y)."""
        out: CoeffMap = {}
        for (j, k), a in self.coeffs.items():
            if axis == 0 and j > 0:
                out[(j - 1, k)] = out.get((j - 1, k), 0.0) + j * a
            elif axis == 1 and k > 0:
                out[(j, k - 1)] = out.get((j, k - 1), 0.0) + k * a
        return BivariatePoly(max(self.degree - 1, 0), out)

    def gradient(self, x, y):
        return np.stack(
            [np.asarray(self.diff(0).eval(x, y)), np.asarray(self.diff(1).eval(x, y))],
            axis=-1,
        )

    def hessian_polys(self):
        """The three second-derivative polynomials (pxx, pxy, pyy)."""
        px, py = self.diff(0), self.diff(1)
        return px.diff(0), px.diff(1), py.diff(1)

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

    def hessian_det(self, x, y):
        return self.hessian_det_poly().eval(x, y)

    def normal(self, x, y):
        """Unit downward normal of the graph z = p(x, y) at a point."""
        g = self.gradient(x, y)
        n = np.concatenate([g, -np.ones(g.shape[:-1] + (1,))], axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

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
            if j + k > degree:
                raise ValueError(
                    f"coefficient ({j},{k}) exceeds declared degree {degree}"
                )
            coeffs[(j, k)] = coeffs.get((j, k), 0.0) + a
        return BivariatePoly(degree, coeffs)


# -- arithmetic helpers (module level so they read like operators) -------


def poly_add(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    out = dict(p.coeffs)
    for e, a in q.coeffs.items():
        out[e] = out.get(e, 0.0) + a
    return BivariatePoly(max(p.degree, q.degree), out)


def poly_sub(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    out = dict(p.coeffs)
    for e, a in q.coeffs.items():
        out[e] = out.get(e, 0.0) - a
    return BivariatePoly(max(p.degree, q.degree), out)


def poly_scale(p: BivariatePoly, c: float) -> BivariatePoly:
    return BivariatePoly(p.degree, {e: c * a for e, a in p.coeffs.items()})


def poly_mul(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    out: CoeffMap = {}
    for (j1, k1), a in p.coeffs.items():
        for (j2, k2), b in q.coeffs.items():
            e = (j1 + j2, k1 + k2)
            out[e] = out.get(e, 0.0) + a * b
    return BivariatePoly(p.degree + q.degree, out)


def compose_affine(p: BivariatePoly, mat, offset) -> BivariatePoly:
    """Exact coefficients of p(L(u, v)) for the affine map L = mat . + offset.

    Each substituted variable is an affine polynomial in (u, v); powers are
    built by repeated exact polynomial products, so dyadic inputs stay
    exact.  The result keeps the declared degree of ``p``.
    """
    mat = np.asarray(mat, dtype=float)
    offset = np.asarray(offset, dtype=float)
    if mat.shape != (2, 2) or offset.shape != (2,):
        raise ValueError("affine map must be a 2x2 matrix and a 2-vector")
    lin1 = BivariatePoly(
        1, {(1, 0): mat[0, 0], (0, 1): mat[0, 1], (0, 0): offset[0]}
    )
    lin2 = BivariatePoly(
        1, {(1, 0): mat[1, 0], (0, 1): mat[1, 1], (0, 0): offset[1]}
    )
    jmax = max((j for (j, _) in p.coeffs), default=0)
    kmax = max((k for (_, k) in p.coeffs), default=0)
    pow1 = [BivariatePoly(0, {(0, 0): 1.0})]
    for _ in range(jmax):
        pow1.append(poly_mul(pow1[-1], lin1))
    pow2 = [BivariatePoly(0, {(0, 0): 1.0})]
    for _ in range(kmax):
        pow2.append(poly_mul(pow2[-1], lin2))
    acc: CoeffMap = {}
    for (j, k), a in p.coeffs.items():
        term = poly_mul(pow1[j], pow2[k])
        for e, b in term.coeffs.items():
            acc[e] = acc.get(e, 0.0) + a * b
    return BivariatePoly(p.degree, acc)


# -- dependence classification ----------------------------------------


def classify_dependence(p: BivariatePoly, tol: float = 1e-10):
    """Sort a polynomial graph into affine / one-variable / two-variable.

    A graph depends on one variable exactly when some invertible affine
    change of coordinates turns it into ``psi(u) + c*v``.  For polynomials
    this is equivalent to the Hessian having a constant null direction as
    a polynomial identity, which reduces to a small linear system in the
    direction vector: collect the coefficients of H . v over all monomials
    and ask for a nullspace.

    Returns ``(cls, witness)`` where ``witness`` is an invertible 2x2
    matrix with ``p(witness @ (u, v))`` of the form ``psi(u) + c*v``
    (identity for the affine class, None for two-variable).
    """
    pxx, pxy, pyy = p.hessian_polys()
    scale = max((abs(a) for q in (pxx, pxy, pyy) for a in q.coeffs.values()), default=0.0)
    if scale == 0.0:
        return DependenceClass.AFFINE, np.eye(2)

    # Rows of the system: for every monomial e, coefficients of
    # (H11*v1 + H12*v2)[e] and (H12*v1 + H22*v2)[e] must vanish.
    monomials = sorted(
        set(pxx.coeffs) | set(pxy.coeffs) | set(pyy.coeffs)
    )
    rows = []
    for e in monomials:
        rows.append([pxx.coeff(*e), pxy.coeff(*e)])
        rows.append([pxy.coeff(*e), pyy.coeff(*e)])
    mat = np.asarray(rows) / scale
    _, s, vt = np.linalg.svd(mat)
    smin = s[-1] if len(s) == 2 else 0.0
    if smin > tol:
        return DependenceClass.TWO_VARIABLE, None
    v = vt[-1]  # constant null direction of the Hessian
    v = v / np.linalg.norm(v)
    u = np.array([v[1], -v[0]])  # complementary direction
    witness = np.column_stack([u, v])
    return DependenceClass.ONE_VARIABLE, witness


# -- restriction to lines and line nondegeneracy ------------------------


def restrict_to_line(p: BivariatePoly, a: float, b: float, swapped: bool = False):
    """Coefficients (ascending) of t -> p(t, a t + b), or the swapped
    parametrization p(a t + b, t)."""
    deg = p.support_degree()
    # Univariate polys as ascending coefficient arrays.
    line = np.zeros(2)
    line[0], line[1] = b, a
    powers_line = [np.array([1.0])]
    for _ in range(deg):
        powers_line.append(np.polynomial.polynomial.polymul(powers_line[-1], line))
    out = np.zeros(deg + 1)
    for (j, k), c in p.coeffs.items():
        jj, kk = (k, j) if swapped else (j, k)
        # term: c * t^jj * (a t + b)^kk
        term = powers_line[kk]
        arr = np.zeros(jj + len(term))
        arr[jj : jj + len(term)] = c * term
        out[: len(arr)] = out[: len(arr)] + arr[: len(out)]
    return out


def _line_objective(p: BivariatePoly, a: float, b: float, swapped: bool) -> float:
    coeffs = restrict_to_line(p, a, b, swapped)
    if len(coeffs) <= 2:
        return 0.0
    return float(np.max(np.abs(coeffs[2:])))


def _line_hits_unit_square(a: float, b: float) -> bool:
    lo, hi = min(b, a + b), max(b, a + b)
    return hi >= 0.0 and lo <= 1.0


def line_nondegeneracy(
    p: BivariatePoly,
    grid: int = 41,
    refine_rounds: int = 40,
    tol: float = 1e-9,
) -> float:
    """Estimate the infimum, over lines meeting the unit square, of the
    largest curvature-order coefficient of the restricted polynomial.

    A value of (numerically) zero means the graph contains a line
    segment.  Lines are searched in both ``(t, a t + b)`` and swapped
    parametrizations with |a| <= 1, which together reach every direction.
    Coarse grid, then coordinate-descent polish around the best cell.
    """
    best = math.inf
    best_pt = (0.0, 0.0, False)
    aa = np.linspace(-1.0, 1.0, grid)
    bb = np.linspace(-1.0, 2.0, int(grid * 1.5))
    for swapped in (False, True):
        for a in aa:
            for b in bb:
                if not _line_hits_unit_square(a, b):
                    continue
                val = _line_objective(p, a, b, swapped)
                if val < best:
                    best, best_pt = val, (float(a), float(b), swapped)
    # local polish: shrinking coordinate search
    a, b, swapped = best_pt
    step = 2.0 / (grid - 1)
    for _ in range(refine_rounds):
        improved = False
        for da, db in ((step, 0), (-step, 0), (0, step), (0, -step)):
            a2, b2 = a + da, b + db
            if abs(a2) > 1.0 or not _line_hits_unit_square(a2, b2):
                continue
            val = _line_objective(p, a2, b2, swapped)
            if val < best:
                best, a, b = val, a2, b2
                improved = True
        if not improved:
            step *= 0.5
            if step < 1e-14:
                break
    if best < tol:
        return 0.0
    return best


def sup_vs_coeff(coeffs, samples: int = 4097, refine_rounds: int = 60):
    """(sup |psi| on [0,1], max |coefficient|) for a univariate polynomial.

    ``coeffs`` ascending.  The sup is located by dense sampling followed
    by a monotone golden-section refinement around the best sample.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        return 0.0, 0.0
    ts = np.linspace(0.0, 1.0, samples)
    vals = np.abs(np.polynomial.polynomial.polyval(ts, c))
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, samples - 1)]
    f = lambda t: abs(float(np.polynomial.polynomial.polyval(t, c)))
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(refine_rounds):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    sup = max(float(np.max(vals)), f1, f2)
    return sup, float(np.max(np.abs(c)))


# -- convenience constructors -------------------------------------------


def hyperbolic_phase(degree: int = 2) -> BivariatePoly:
    """The model saddle x*y."""
    return BivariatePoly(max(degree, 2), {(1, 1): 1.0})


def elliptic_phase() -> BivariatePoly:
    """The model bowl x^2 + y^2."""
    return BivariatePoly(2, {(2, 0): 1.0, (0, 2): 1.0})


def perturbed_hyperbolic(degree: int, rng: np.random.Generator,
                         magnitude: float | None = None) -> BivariatePoly:
    """Random admissible perturbation of x*y.

    All coefficients other than the mixed one are drawn uniformly from
    [-m, m] with the class bound m = 10^(-10*degree) unless overridden.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    m = 10.0 ** (-10 * degree) if magnitude is None else magnitude
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


def save_phase(p: BivariatePoly, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(p.to_json_dict(), fh, indent=1)
        fh.write("\n")
