"""Flatness defects of polynomial graphs over parallelograms.

The defect of a phase ``phi`` over a box S is

    sup_{u, v in S} | phi(u) - phi(v) - grad phi(u) . (u - v) |,

the worst tangent-plane prediction error between two points of the box.
A box is ``(phi, delta)``-flat when the defect is at most ``delta``; the
graph over a flat box lies inside a slab of thickness ``2 delta``.

For quadratic phases the defect has a closed form: with the full-edge
matrix E of S and Hessian H, it equals ``max |t^T (E^T H E) t| / 2`` over
the unit square in t-coordinates, a maximization handled exactly by
checking vertices and edge critical points.  For higher degree the
certified bracket [lo, hi] is the quadratic part's closed form widened
by ``tail_bound``, a bound on what the degree >= 3 terms can add.

Every flatness decision reads that bracket alone: a box is flat iff
hi <= A delta.  ``boxes_flatness`` decides boxes of any shapes in one
call; ``tiling_flatness`` (all kept tiles of a tiling) and ``is_flat``
(one box) go through it, and ``flat_defect_interval`` is the one-box
bracket.
Sampling lives only in ``flat_defect``, the estimate behind the CLI's
``flat defect`` and the independent oracle of the tests: a grid of
point pairs with a Lipschitz remainder, polished by a local ascent and
intersected with the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import AffineMap2, Parallelogram, TileGrid
from .poly2 import BivariatePoly

# Default flatness-versus-scale constants used by the cover builders.
A_QUADRATIC = 4.0
A_GENERAL = 16.0

_CERT_REL_GAP = 0.01  # certification: bracket width below 1% of the value


@dataclass(frozen=True)
class FlatnessReport:
    """Defect estimate with certification bracket.

    ``defect`` is the best certified-from-below value; ``lower`` and
    ``upper`` bracket the true sup.  ``certified`` is set when the
    bracket is tighter than 1% (relative).  ``argmax`` is a witnessing
    point pair for the lower bound.
    """

    defect: float
    lower: float
    upper: float
    certified: bool
    argmax_u: Tuple[float, float]
    argmax_v: Tuple[float, float]


@dataclass(frozen=True)
class NullDirections:
    """The null directions of the Hessian at a saddle point of the phase.

    ``w = (-a, 1)`` and ``v = (1, -b)`` span the two directions in which
    the quadratic form of the Hessian vanishes; the off-axis slopes ``a``
    and ``b`` are tiny for phases close to the model saddle.
    """

    w: Tuple[float, float]
    v: Tuple[float, float]


def default_a_const(phi: BivariatePoly) -> float:
    return A_QUADRATIC if phi.support_degree() <= 2 else A_GENERAL


# -- certified brackets ---------------------------------------------------


def quad_defect(coeffs, edges):
    """Closed-form defect of the quadratic part of the phase with
    coefficient map ``coeffs`` over boxes with half-edge matrices
    ``edges`` (shape (..., 2, 2)), and a witness.  A coefficient may be
    an array of one value per box (see ``_bracket``).

    With the full-edge matrix E = 2 [e1 e2] and G = E^T H E, the defect
    is max |t^T G t| / 2 over t in [-1, 1]^2.  The extremum of a
    quadratic form on the square sits at a vertex or at an interior
    critical point of an edge restriction; |.| needs both the max and
    the min of the form.  Returns (defect, t), t of shape (..., 2).
    """
    h11 = 2.0 * coeffs.get((2, 0), 0.0)
    h12 = coeffs.get((1, 1), 0.0)
    h22 = 2.0 * coeffs.get((0, 2), 0.0)
    e = 2.0 * np.asarray(edges, dtype=float)
    a1, a2, b1, b2 = e[..., 0, 0], e[..., 1, 0], e[..., 0, 1], e[..., 1, 1]
    g11 = h11 * a1 * a1 + 2.0 * h12 * a1 * a2 + h22 * a2 * a2
    g12 = h11 * a1 * b1 + h12 * (a1 * b2 + a2 * b1) + h22 * a2 * b2
    g22 = h11 * b1 * b1 + 2.0 * h12 * b1 * b2 + h22 * b2 * b2
    # edge t1 = 1: g11 + 2 g12 t2 + g22 t2^2 is critical at t2 = -g12/g22;
    # edge t2 = 1 likewise at t1 = -g12/g11.  |t| <= 1 needs |g| > |g12|/2,
    # so any other g gives way to a NaN divisor, whose t fails |t| <= 1.
    half = 0.5 * np.abs(g12)
    s11, s22 = (np.where(np.abs(g) > half, g, np.nan) for g in (g11, g22))
    t2, t1 = -g12 / s22, -g12 / s11
    vals = np.stack([
        np.abs(g11 + g22 + 2 * g12),
        np.abs(g11 + g22 - 2 * g12),
        np.where(np.abs(t2) <= 1, np.abs(g11 - g12 * g12 / s22), 0.0),
        np.where(np.abs(t1) <= 1, np.abs(g22 - g12 * g12 / s11), 0.0),
    ])
    k = np.argmax(vals, axis=0)
    best = np.max(vals, axis=0)
    t = np.stack([np.where(k == 3, t1, 1.0), np.choose(k, [1.0, -1.0, t2, 1.0])], axis=-1)
    return 0.5 * best, np.where((best > 0)[..., None], t, 0.0)


def _hessian_bounds(coeffs, bboxes, min_total_degree: int = 2):
    """Entrywise sup bounds (b11, b12, b22) of |H| over axis boxes
    ``(xmin, ymin, xmax, ymax)`` (shape (..., 4)) for the phase with
    coefficient map ``coeffs``, restricted to monomials of total degree
    >= min_total_degree.  The terms are summed in key order, so phases
    stacked into per-box arrays must list those monomials in one order."""
    bb = np.asarray(bboxes, dtype=float)
    rx = np.maximum(np.maximum(np.abs(bb[..., 0]), np.abs(bb[..., 2])), 1e-300)
    ry = np.maximum(np.maximum(np.abs(bb[..., 1]), np.abs(bb[..., 3])), 1e-300)
    b11 = b12 = b22 = np.zeros(rx.shape)
    for (j, k), a in coeffs.items():
        if j + k < min_total_degree:
            continue
        mag = abs(a)
        if j >= 2:
            b11 = b11 + mag * j * (j - 1) * rx ** (j - 2) * ry ** k
        if j >= 1 and k >= 1:
            b12 = b12 + mag * j * k * rx ** (j - 1) * ry ** (k - 1)
        if k >= 2:
            b22 = b22 + mag * k * (k - 1) * rx ** j * ry ** (k - 2)
    return b11, b12, b22


def tail_bound(coeffs, bboxes, edges):
    """Bound on what the degree >= 3 terms of ``coeffs`` add to the defect
    of boxes with half-edge matrices ``edges`` (shape (..., 2, 2)) lying
    inside the axis boxes ``bboxes`` (shape (..., 4)).

    The defect integrand is the integral over t in [0, 1] of
    (1 - t) d^T H(u + t d) d with d = v - u, and |d_x| <= 2 h_x, |d_y| <=
    2 h_y for the box's bounding-box half extents (h_x, h_y).  With the
    entrywise Hessian bounds b_ij of those terms that gives
    2 (b11 h_x^2 + 2 b12 h_x h_y + b22 h_y^2); the bound returned is the
    smaller of that and half the operator-norm bound times diam^2.
    """
    b11, b12, b22 = _hessian_bounds(coeffs, bboxes, min_total_degree=3)
    e = np.asarray(edges, dtype=float)
    e1, e2 = e[..., :, 0], e[..., :, 1]
    hx = np.abs(e1[..., 0]) + np.abs(e2[..., 0])
    hy = np.abs(e1[..., 1]) + np.abs(e2[..., 1])
    diam = 2.0 * np.maximum(np.linalg.norm(e1 + e2, axis=-1), np.linalg.norm(e1 - e2, axis=-1))
    axis_form = 2.0 * (b11 * hx * hx + 2.0 * b12 * hx * hy + b22 * hy * hy)
    return np.minimum(axis_form, 0.5 * (np.maximum(b11, b22) + b12) * diam * diam)


def _region_bracket(coeffs, edges, bboxes):
    """[max(q - d, 0), q + d] and the witness t of ``quad_defect`` for boxes
    with half-edge matrices ``edges`` inside the axis boxes ``bboxes``
    ((4,) shared or (..., 4)): q the quadratic part's exact defect, d the
    tail bound over that region.  Coefficients are read as in ``_bracket``."""
    q, t = quad_defect(coeffs, edges)
    d = tail_bound(coeffs, bboxes, edges)
    return np.maximum(q - d, 0.0), q + d, t


def _bracket(coeffs, edges: np.ndarray, centers):
    """Per-box [lo, hi] for the boxes ``center + edges [-1,1]^2`` and the
    quadratic part's witness t, with one edge matrix (2, 2) shared by
    congruent boxes or one per box (n, 2, 2), for the phase with
    coefficient map ``coeffs`` (``phi.coeffs``).  A coefficient may also
    be an array of one value per box, the phases of several boxes stacked:
    every box then needs the same degree >= 3 monomials in the same key
    order (``_hessian_bounds`` sums them in that order); the quadratic
    ones are read by key.

    The quadratic part's defect is exact: one value for congruent boxes
    of one phase, one per box otherwise.  Each box widens it by the tail
    bound over its own bounding box (``_region_bracket``).  Every
    operation acts box by box, so a box's bracket does not depend on the
    others in the call.
    """
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if max((j + k for (j, k) in coeffs), default=0) <= 2:
        q, t = quad_defect(coeffs, edges)
        return np.full(len(c), q), np.full(len(c), q), t
    e1, e2 = edges[..., 0], edges[..., 1]
    verts = np.stack([c - e1 - e2, c + e1 - e2, c + e1 + e2, c - e1 + e2], axis=1)
    bboxes = np.concatenate([verts.min(axis=1), verts.max(axis=1)], axis=1)
    return _region_bracket(coeffs, edges, bboxes)


def _split_interval(phi: BivariatePoly, box: Parallelogram):
    """One box's bracket with the quadratic part's witness pair."""
    lo, hi, t = _bracket(phi.coeffs, box.edge_matrix, [box.center])
    c = np.asarray(box.center)
    d_half = box.edge_matrix @ t  # half of the extremal difference vector
    return float(lo[0]), float(hi[0]), tuple(c + d_half), tuple(c - d_half)


# -- grid sampling with Lipschitz certificate ----------------------------


def _sample_grid_quadratic(phi: BivariatePoly, box: Parallelogram, m: int):
    """The m^4 pair maximum, collapsed for quadratics.

    For a quadratic phase the integrand depends only on u - v, so the
    pair grid reduces to the (2m-1)^2 difference grid; the returned
    value equals the full pair enumeration exactly.
    """
    h = phi.hessian(*box.center)
    e = box.edge_matrix
    g = e.T @ h @ e
    d = np.linspace(-2.0, 2.0, 2 * m - 1)
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    vals = np.abs(0.5 * (g[0, 0] * d1 * d1 + 2 * g[0, 1] * d1 * d2
                         + g[1, 1] * d2 * d2))
    k = int(np.argmax(vals))
    t1, t2 = d1.flat[k], d2.flat[k]
    c = np.asarray(box.center)
    half = e @ np.array([t1 / 2.0, t2 / 2.0])
    u = tuple(c + half)
    v = tuple(c - half)
    return float(vals.flat[k]), u, v


def _sample_grid(phi: BivariatePoly, box: Parallelogram, m: int):
    """Max |defect integrand| over an m x m x m x m sample of S x S."""
    if phi.support_degree() <= 2:
        return _sample_grid_quadratic(phi, box, m)
    s = np.linspace(-1.0, 1.0, m)
    s1, s2 = np.meshgrid(s, s, indexing="ij")
    e = box.edge_matrix
    c = np.asarray(box.center)
    pts = (
        c[None, :]
        + s1.reshape(-1, 1) * e[:, 0][None, :]
        + s2.reshape(-1, 1) * e[:, 1][None, :]
    )
    x, y = pts[:, 0], pts[:, 1]
    vals = np.asarray(phi.eval(x, y))
    grads = phi.gradient(x, y)
    # g[i, j] = (phi(u_i) - grad_i . u_i) - phi(v_j) + grad_i . v_j
    a = vals - np.einsum("ij,ij->i", grads, pts)
    best = -1.0
    bi = bj = 0
    chunk = max(1, (1 << 22) // max(len(pts), 1))
    for lo in range(0, len(pts), chunk):
        hi = min(lo + chunk, len(pts))
        block = a[lo:hi, None] + grads[lo:hi] @ pts.T - vals[None, :]
        np.abs(block, out=block)
        k = int(np.argmax(block))
        val = float(block.flat[k])
        if val > best:
            best = val
            bi = lo + k // len(pts)
            bj = k % len(pts)
        del block
    u = tuple(pts[bi])
    v = tuple(pts[bj])
    return best, u, v


def _polish(phi: BivariatePoly, box: Parallelogram, u0, v0):
    """Local ascent of |g| from the best sampled pair, in box coordinates.
    ``scipy.optimize`` is imported here, at first use: it is the
    package's only use of scipy."""
    from scipy import optimize

    e = box.edge_matrix
    c = np.asarray(box.center)

    def neg_g(t):
        t = np.clip(t, -1.0, 1.0)
        u = c + e @ t[:2]
        v = c + e @ t[2:]
        gu = phi.gradient(*u)
        val = phi.eval(*u) - phi.eval(*v) - float(gu @ (u - v))
        return -abs(val)

    s0 = np.concatenate([box.affine_coords(u0)[0], box.affine_coords(v0)[0]])
    res = optimize.minimize(
        neg_g, s0, method="Nelder-Mead",
        options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-14},
    )
    t = np.clip(res.x, -1.0, 1.0)
    u = tuple(c + e @ t[:2])
    v = tuple(c + e @ t[2:])
    return -float(res.fun), u, v


# -- public API -----------------------------------------------------------


@dataclass(frozen=True)
class TilingFlatness:
    """Flatness of boxes (the kept tiles of a tiling, the loose members
    of a cover, or one box) at the threshold ``a_const * delta``.

    ``lo`` and ``hi`` bracket each box's defect without sampling.  A box
    is flat iff its certified upper end is at most the threshold, so
    ``flat`` is ``hi <= threshold``; a box whose bracket straddles the
    threshold counts as not flat.
    """

    lo: np.ndarray
    hi: np.ndarray
    threshold: float

    @property
    def flat(self) -> np.ndarray:
        return self.hi <= self.threshold


def flat_defect(
    phi: BivariatePoly,
    box: Parallelogram,
    m: int = 33,
    polish: bool = True,
    method: str = "auto",
) -> FlatnessReport:
    """Defect of ``phi`` over ``box`` with a certification bracket.

    ``method`` is "auto" (closed form for quadratics, sampling plus
    bounds otherwise), "closed" (force the quadratic path; errors on
    higher degree), or "sample" (force the grid estimate, used as an
    independent brute-force oracle in tests).  The grid estimate samples
    each box axis at ``m >= 2`` points.
    """
    if method not in ("auto", "closed", "sample"):
        raise ValueError(f"unknown method {method!r}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not np.isfinite([box.center, box.e1, box.e2]).all():
        raise ValueError(f"box must be finite, got center {box.center} and half-edges "
                         f"{box.e1}, {box.e2}")
    deg = phi.support_degree()
    if method == "closed" and deg > 2:
        raise ValueError("closed form requires a quadratic phase")
    if method != "sample" and deg <= 2:
        defect, _, u, v = _split_interval(phi, box)
        return FlatnessReport(defect, defect, defect, True, u, v)

    sampled, u, v = _sample_grid(phi, box, m)
    if polish:
        polished, u2, v2 = _polish(phi, box, u, v)
        if polished > sampled:
            sampled, u, v = polished, u2, v2
    # the true maximum exceeds the sampled one by at most a Lipschitz
    # bound of the integrand times the sample spacing
    spacing = 2.0 / (m - 1)
    e_norms = np.linalg.norm(box.edge_matrix, axis=0)
    b11, b12, b22 = _hessian_bounds(phi.coeffs, box.bounding_box())
    op = float(max(b11, b22) + b12)
    lower, upper = sampled, sampled + op * box.diameter() * spacing * float(e_norms.sum())
    if method != "sample":
        slo, shi, su, sv = _split_interval(phi, box)
        if slo > lower:
            lower, u, v = slo, su, sv
        upper = min(upper, shi)
    certified = (upper - lower) <= _CERT_REL_GAP * max(upper, 1e-300)
    return FlatnessReport(lower, lower, upper, certified, u, v)


def _require_a_const(a_const: float) -> None:
    if not (0.0 < a_const < math.inf):
        raise ValueError(f"A must be finite and positive, got {a_const!r}")


def _threshold(phi: BivariatePoly, delta: float, a_const: Optional[float]) -> float:
    if not delta > 0:
        raise ValueError("delta must be positive")
    a = default_a_const(phi) if a_const is None else float(a_const)
    _require_a_const(a)
    return a * delta


def tiling_flatness(
    phi: BivariatePoly,
    grid: TileGrid,
    delta: float,
    a_const: Optional[float] = None,
    frame: Optional[AffineMap2] = None,
) -> TilingFlatness:
    """Flatness of every kept tile of ``grid`` (seen through ``frame``
    when given), ordered as ``grid.kept_indices()``: ``boxes_flatness``
    over its tiles.

    All tiles share one edge matrix, so the quadratic part's exact
    defect is computed once; each tile adds the tail bound over its own
    bounding box.  Nothing is sampled.
    """
    centers, proto = grid.centers(), grid.tile(grid.i0, grid.j0)
    if frame is not None:
        centers, proto = frame.apply(centers), frame.apply_box(proto)
    return boxes_flatness(phi, centers, proto.edge_matrix, delta, a_const)


def boxes_flatness(
    phi: BivariatePoly,
    centers: np.ndarray,
    edges: np.ndarray,
    delta: float,
    a_const: Optional[float] = None,
) -> TilingFlatness:
    """Flatness of boxes given by their centers (n, 2) and half-edge
    matrices, columns e1 and e2 (``Parallelogram.edge_matrix``): one
    (2, 2) shared by congruent boxes or one per box (n, 2, 2).  One
    bracket call, in the order given; ``tiling_flatness`` and ``is_flat``
    decide their boxes through it."""
    threshold = _threshold(phi, delta, a_const)
    lo, hi, _ = _bracket(phi.coeffs, edges, centers)
    return TilingFlatness(lo, hi, threshold)


def flat_defect_interval(phi: BivariatePoly, box: Parallelogram):
    """Cheap certified bracket (no sampling): exact for quadratics,
    quadratic part plus tail bound otherwise."""
    lo, hi, _, _ = _split_interval(phi, box)
    return lo, hi


def is_flat(phi: BivariatePoly, box: Parallelogram, delta: float,
            a_const: Optional[float] = None) -> bool:
    """Whether the certified upper end of the defect is at most
    ``a_const * delta``: ``boxes_flatness`` of the one box."""
    return bool(boxes_flatness(phi, [box.center], box.edge_matrix, delta, a_const).flat[0])


# -- null directions and candidate boxes ---------------------------------


def null_directions(phi: BivariatePoly, point) -> NullDirections:
    """Directions annihilated by the Hessian quadratic form at a saddle:
    the one-point case of ``null_direction_fields``.

    Requires negative Hessian determinant at the point.  With
    ``s = sqrt(-det H)``, the slopes are ``a = H22 / (H12 + s)`` and
    ``b = H11 / (H12 + s)``, and ``w = (-a, 1)``, ``v = (1, -b)``
    satisfy ``w^T H w = v^T H v = 0`` identically.
    """
    x, y = float(point[0]), float(point[1])
    a, b, valid = null_direction_fields(phi, (x, y))
    if not valid[0]:
        h = phi.hessian(x, y)
        det = float(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
        if not det < 0.0:
            raise ValueError(
                f"null directions need a saddle (det H < 0); det H = {det:g} at {(x, y)}"
            )
        raise ValueError("degenerate Hessian: H12 + sqrt(|det H|) vanished")
    a, b = float(a[0]), float(b[0])
    return NullDirections((-a, 1.0), (1.0, -b))


def null_direction_fields(phi: BivariatePoly, points):
    """Vectorized slopes (a, b, valid) of ``null_directions`` across many
    points; valid = saddle with H12 + sqrt(-det H) nonzero."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pxx, pxy, pyy = phi.hessian_polys()
    h11 = np.asarray(pxx.eval(pts[:, 0], pts[:, 1]), dtype=float)
    h12 = np.asarray(pxy.eval(pts[:, 0], pts[:, 1]), dtype=float)
    h22 = np.asarray(pyy.eval(pts[:, 0], pts[:, 1]), dtype=float)
    det = h11 * h22 - h12 * h12
    valid = det < 0.0
    s = np.sqrt(np.where(valid, -det, 1.0))
    denom = h12 + s
    valid &= denom != 0.0
    safe = np.where(denom == 0.0, 1.0, denom)
    return h22 / safe, h11 / safe, valid


def _slope_spread_bound(phi: BivariatePoly, box) -> Optional[float]:
    """A bound D on |a(z) - a(z')| and |b(z) - b(z')| for the float slopes
    of ``null_direction_fields`` at any two points z, z' of the axis box
    ``box`` (xmin, ymin, xmax, ymax), every such point being valid; None
    when the bounds below cannot certify validity.  Points within 2^-40 R
    of the box count as in it, R its largest |coordinate|: points formed
    by a few roundings of coordinates up to 3R stay that close.

    With (B11, B12, B22) the degree >= 3 Hessian bounds of
    ``_hessian_bounds`` over the widened box, the quadratic part gives
    M11 = |2 c20| + B11 >= |H11|, M22 = |2 c02| + B22 >= |H22| and
    H12 >= c11 - B12.  With n the declared degree, u = 2^-53 and
    eta = 16 (n + 2)^2 u, the float H11, H22 are at most M11 (1 + eta),
    M22 (1 + eta) in absolute value and the float H12 is at least
    L = c11 (1 - eta) - B12 (1 + eta): eta covers the two roundings in
    each Hessian coefficient, <= 4n + 2 in Horner's rule, <= (n + 2)^2 / 2
    + 8 in the bounds and one in each of M11, M22 and L.  Where L > 0 and
    4 M11 M22 < L^2:

    * fl(H11 H22) <= M11 M22 (1 + eta)^3 < L^2 (1 - u) <= fl(H12^2), so
      det < 0, and -det >= (L^2 - 2 M11 M22)(1 - u)^2 since
      (1 + eta)^3 <= 2 (1 - u).
    * s = sqrt(-det) >= 0 makes H12 + s >= H12 > 0, so the point is
      valid, and H12 + s >= Q (1 - u)^3 with Q = L + sqrt(L^2 - 2 M11 M22).
    * |a| <= M22 (1 + eta)(1 + u) / (Q (1 - u)^3), |b| likewise with M11,
      and two slopes differ by at most twice that.

    The value returned, 2 (1 + 2 eta) max(M11, M22) / Q, is at least that
    bound: Q's radicand is at least L^2 / 2, so Q is formed within 8u,
    and three more roundings leave (1 + 2 eta)(1 - u)^3 / (1 + 8u) above
    (1 + eta)(1 + u) / (1 - u)^3 for eta >= 32u.  On a normal form the
    constant 2 (1 + 2 eta) / Q is 1 / c11 up to terms of the class bound.
    """
    xmin, ymin, xmax, ymax = box
    pad = 2.0 ** -40 * max(abs(xmin), abs(ymin), abs(xmax), abs(ymax))
    b11, b12, b22 = (float(v) for v in _hessian_bounds(
        phi.coeffs, (xmin - pad, ymin - pad, xmax + pad, ymax + pad), min_total_degree=3))
    eta = 16.0 * (phi.degree + 2) ** 2 * 2.0 ** -53
    m11 = abs(2.0 * phi.coeff(2, 0)) + b11
    m22 = abs(2.0 * phi.coeff(0, 2)) + b22
    low = phi.coeff(1, 1) * (1.0 - eta) - b12 * (1.0 + eta)
    if not (low > 0.0 and 4.0 * m11 * m22 < low * low):
        return None
    q = low + math.sqrt(low * low - 2.0 * m11 * m22)
    return 2.0 * (1.0 + 2.0 * eta) * max(m11, m22) / q


def candidate_box(
    phi: BivariatePoly,
    point,
    alpha: float,
    delta: float,
    which: str = "w",
) -> Parallelogram:
    """The delta*alpha by 1/alpha rectangle at a point, long side along
    the chosen null direction ("w" or "v")."""
    if which not in ("w", "v"):
        raise ValueError("which must be 'w' or 'v'")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not (1.0 - 1e-12 <= alpha <= delta ** -0.5 + 1e-9):
        raise ValueError(
            f"alpha must lie in [1, delta^-1/2]; got alpha={alpha:g}, delta={delta:g}"
        )
    nd = null_directions(phi, point)
    d = np.asarray(nd.w if which == "w" else nd.v, dtype=float)
    d = d / np.linalg.norm(d)
    perp = np.array([-d[1], d[0]])
    long_half = 0.5 / alpha
    short_half = 0.5 * delta * alpha
    return Parallelogram(
        (float(point[0]), float(point[1])),
        tuple(long_half * d),
        tuple(short_half * perp),
    )
