"""Parallelograms, affine maps and rotated tilings.

Everything here is plain planar geometry: no polynomials, no flatness.
A ``Parallelogram`` is stored as a center plus two half-edge vectors, so
its vertex set is ``center +- e1 +- e2`` and containment questions reduce
to affine coordinates with respect to the edge matrix ``[e1 e2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

BBox = Tuple[float, float, float, float]
UNIT_SQUARE: BBox = (0.0, 0.0, 1.0, 1.0)

_CONTAIN_TOL = 1e-9  # relative slack for closed containment tests

# angle-cell pairs per chunk of one batched domain-mask pass
_MASK_CELLS = 1 << 16


@dataclass(frozen=True)
class Parallelogram:
    """Center plus half-edge vectors; vertices are center +- e1 +- e2."""

    center: Tuple[float, float]
    e1: Tuple[float, float]
    e2: Tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "e1", (float(self.e1[0]), float(self.e1[1])))
        object.__setattr__(self, "e2", (float(self.e2[0]), float(self.e2[1])))

    # -- derived quantities -------------------------------------------

    @property
    def edge_matrix(self) -> np.ndarray:
        """Columns are the half-edge vectors."""
        return np.column_stack([self.e1, self.e2])

    def vertices(self) -> np.ndarray:
        c = np.asarray(self.center)
        e1 = np.asarray(self.e1)
        e2 = np.asarray(self.e2)
        return np.array([c - e1 - e2, c + e1 - e2, c + e1 + e2, c - e1 + e2])

    def side_lengths(self) -> Tuple[float, float]:
        """Full side lengths (2|e1|, 2|e2|)."""
        return (
            2.0 * float(np.hypot(*self.e1)),
            2.0 * float(np.hypot(*self.e2)),
        )

    def diameter(self) -> float:
        v = self.vertices()
        c = np.asarray(self.center)
        return 2.0 * float(np.max(np.linalg.norm(v - c, axis=1)))

    def affine_coords(self, points) -> np.ndarray:
        """Coordinates x with point = center + x1*e1 + x2*e2.

        Inside the closed parallelogram means max|x| <= 1.
        """
        return box_coords([self.center], [self.e1], [self.e2], points)[0]

    def contains(self, points, tol: float = _CONTAIN_TOL) -> np.ndarray:
        """Closed containment with a small relative tolerance."""
        x = self.affine_coords(points)
        return np.all(np.abs(x) <= 1.0 + tol, axis=-1)

    def distance(self, points) -> np.ndarray:
        """Euclidean distance from each point to the closed parallelogram."""
        return box_distances([self.center], [self.e1], [self.e2], points)[0]

    def bounding_box(self) -> BBox:
        v = self.vertices()
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"center": list(self.center), "e1": list(self.e1), "e2": list(self.e2)}

    @staticmethod
    def from_json_dict(obj: dict) -> "Parallelogram":
        """Keys other than center, e1 and e2 are ignored.  Refuses
        non-finite numbers and zero area."""
        try:
            box = Parallelogram(tuple(obj["center"]), tuple(obj["e1"]), tuple(obj["e2"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed parallelogram record: {exc}") from exc
        (a, b), (c, d) = box.e1, box.e2
        if not np.all(np.isfinite(box.center + box.e1 + box.e2)) or a * d - c * b == 0.0:
            raise ValueError(f"malformed parallelogram record: {obj!r} is not a finite box "
                             "of positive area")
        return box


def box_coords(centers, e1, e2, points) -> np.ndarray:
    """``Parallelogram.affine_coords`` of every point in each of the boxes
    ``center +- e1 +- e2``, stacked along the first axis of ``centers``,
    ``e1`` and ``e2`` (each (m, 2)): shape (m, points, 2).  numpy's
    stacked matmul runs each box's product as it runs one box's, so a box
    gets the same values alone as in a stack."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c, u, w = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (centers, e1, e2))
    det = u[:, 0] * w[:, 1] - w[:, 0] * u[:, 1]
    if np.any(det == 0.0):
        raise ValueError("degenerate parallelogram (zero area)")
    inv = np.empty((len(c), 2, 2))  # inverse of the edge matrix [e1 e2]
    inv[:, 0, 0], inv[:, 0, 1] = w[:, 1], -w[:, 0]
    inv[:, 1, 0], inv[:, 1, 1] = -u[:, 1], u[:, 0]
    inv /= det[:, None, None]
    return np.matmul(pts - c[:, None, :], inv.transpose(0, 2, 1))


def box_distances(centers, e1, e2, points) -> np.ndarray:
    """``Parallelogram.distance`` from every point to each of the boxes
    of ``box_coords``: shape (m, points), each box's values the same
    alone as in a stack."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c, u, w = (np.asarray(a, dtype=float).reshape(-1, 1, 2) for a in (centers, e1, e2))
    verts = [c - u - w, c + u - w, c + u + w, c - u + w]
    best = np.full((len(c), len(pts)), np.inf)
    for p0, p1 in zip(verts, verts[1:] + verts[:1]):
        seg = p1 - p0
        col = seg.transpose(0, 2, 1)
        t = np.clip(np.matmul(pts - p0, col)[..., 0] / np.matmul(seg, col)[..., 0], 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(pts - (p0 + t[..., None] * seg), axis=-1))
    best[np.all(np.abs(box_coords(c, u, w, pts)) <= 1.0, axis=-1)] = 0.0
    return best


def axis_rectangle(x0: float, y0: float, x1: float, y1: float) -> Parallelogram:
    """Axis-aligned rectangle [x0,x1] x [y0,y1]."""
    return Parallelogram(
        ((x0 + x1) / 2.0, (y0 + y1) / 2.0),
        ((x1 - x0) / 2.0, 0.0),
        (0.0, (y1 - y0) / 2.0),
    )


def rotated_rectangle(center, w: float, h: float, theta: float) -> Parallelogram:
    """Rectangle with full side w along angle theta and full side h across."""
    ct, st = math.cos(theta), math.sin(theta)
    return Parallelogram(
        tuple(center),
        (0.5 * w * ct, 0.5 * w * st),
        (-0.5 * h * st, 0.5 * h * ct),
    )


def dilate(s: Parallelogram, factor: float) -> Parallelogram:
    """Scale both half-edges about the center."""
    if factor <= 0:
        raise ValueError("dilation factor must be positive")
    return Parallelogram(s.center, (factor * s.e1[0], factor * s.e1[1]),
                         (factor * s.e2[0], factor * s.e2[1]))


def comparable(s1: Parallelogram, s2: Parallelogram, a_const: float) -> bool:
    """Mutual containment after dilating by 2*a_const.

    True iff s1 is inside the (2A)-dilate of s2 and vice versa.  The
    containment test is exact vertex membership in affine coordinates,
    so the result is invariant under applying one affine map to both
    boxes (up to roundoff).
    """
    if a_const <= 0:
        raise ValueError("comparability constant must be positive")
    big1 = dilate(s1, 2.0 * a_const)
    big2 = dilate(s2, 2.0 * a_const)
    return bool(np.all(big2.contains(s1.vertices())) and np.all(big1.contains(s2.vertices())))


# -- affine maps ------------------------------------------------------


@dataclass(frozen=True)
class AffineMap2:
    """Invertible affine map x -> mat @ x + off on the plane."""

    mat: Tuple[Tuple[float, float], Tuple[float, float]]
    off: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("mat must be 2x2")
        if abs(np.linalg.det(m)) < 1e-300:
            raise ValueError("affine map must be invertible")
        object.__setattr__(self, "mat", ((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])))
        object.__setattr__(self, "off", (float(self.off[0]), float(self.off[1])))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.mat, dtype=float)

    @property
    def offset(self) -> np.ndarray:
        return np.asarray(self.off, dtype=float)

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T + self.offset

    def apply_box(self, s: Parallelogram) -> Parallelogram:
        m = self.matrix
        return Parallelogram(tuple(self.apply(np.asarray(s.center))),
                             tuple(m @ np.asarray(s.e1)), tuple(m @ np.asarray(s.e2)))

    def image_bbox(self, box: BBox) -> BBox:
        """Axis bounding box of the image of the axis box ``box``."""
        xmin, ymin, xmax, ymax = box
        v = self.apply(np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]]))
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))

    def inverse(self) -> "AffineMap2":
        m = np.linalg.inv(self.matrix)
        return AffineMap2(tuple(map(tuple, m)), tuple(-m @ self.offset))

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        """self after inner: x -> self(inner(x))."""
        m = self.matrix @ inner.matrix
        o = self.matrix @ inner.offset + self.offset
        return AffineMap2(tuple(map(tuple, m)), tuple(o))

    @staticmethod
    def identity() -> "AffineMap2":
        return AffineMap2(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))

    @staticmethod
    def rotation(theta: float) -> "AffineMap2":
        c, s = math.cos(theta), math.sin(theta)
        return AffineMap2(((c, -s), (s, c)), (0.0, 0.0))


# -- rotated grid tilings ----------------------------------------------


def _index_range(u, r, slack: float, cell, reach: int, lo: int, hi: int):
    """Per coordinate u (in cell units), the first and last index in
    [lo, hi) within ``reach`` of its ``cell`` whose cell [index, index + 1]
    can lie within r + slack of u.  The bounds are widened by
    1e-9 (|u| + r + 1) cells, far more than rounding moves them."""
    pad = 1e-9 * (np.abs(u).max(initial=0.0) + r + 1.0)
    first = np.ceil(u - (r + pad + 1.0 + slack))
    np.maximum(first, np.maximum(cell - reach, lo), out=first)
    last = np.floor(u + (r + pad + slack))
    np.minimum(last, np.minimum(cell + reach, hi - 1), out=last)
    return first.astype(np.int64), last.astype(np.int64)


@dataclass
class TileGrid:
    """A congruent rectangle tiling in a rotated frame.

    Tile (i, j) occupies ``[u0 + i*w, u0 + (i+1)*w] x [v0 + j*h, v0 +
    (j+1)*h]`` in the frame rotated by ``theta``, where (u0, v0) is the
    rotated image of the grid anchor (the domain's lower-left corner).
    Only index ranges are stored, so grids with millions of tiles are
    cheap; tiles materialize on demand.
    """

    w: float
    h: float
    theta: float
    anchor: Tuple[float, float]
    i0: int
    i1: int  # exclusive
    j0: int
    j1: int  # exclusive
    domain: BBox = UNIT_SQUARE
    alpha: Optional[float] = None
    beta: Optional[int] = None
    keep: Optional[np.ndarray] = None  # bool mask (ni, nj); None = keep all

    @property
    def ni(self) -> int:
        return self.i1 - self.i0

    @property
    def nj(self) -> int:
        return self.j1 - self.j0

    def frame_origin(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, s], [-s, c]])  # world -> frame
        return rot @ np.asarray(self.anchor)

    def to_frame(self, points) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, s], [-s, c]])
        return np.atleast_2d(np.asarray(points, dtype=float)) @ rot.T

    def _frame_coords(self, points) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinates of points relative to the anchor in the grid frame."""
        rel = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.anchor)
        c, s = math.cos(self.theta), math.sin(self.theta)
        return rel[:, 0] * c + rel[:, 1] * s, -rel[:, 0] * s + rel[:, 1] * c

    def point_tiles(self, points, tol: Optional[float] = None):
        """(point index, i, j) for every kept tile that takes each point.

        With tol = None a tile takes the points of its half-open cell, and
        the outer boundary of the index range is closed: each point lands
        in at most one tile.  With tol > 0 a tile takes every point within
        distance tol of the closed tile; distances are exact, since tiles
        are rectangles in the grid frame.  With tol = 0 a tile takes the
        points of the closed tile, with the relative slack of
        ``Parallelogram.contains``, so a point on a shared edge or vertex
        lands in every tile that contains it.  At tol >= 0 each point's
        candidates are the columns whose cells can lie within tol of it
        and, in each, the rows whose cells can (those of the column at
        dx = 0, which hold every other column's), within floor(tol / w) + 1
        columns and floor(tol / h) + 1 rows of its own cell and inside the
        index range; each candidate is decided by its exact distance.  Work
        and memory follow the candidates.  The triples come out by column
        offset, then row offset, then point.
        """
        fx, fy = self._frame_coords(points)
        ux, uy = fx / self.w, fy / self.h
        ci = np.floor(ux).astype(np.int64)
        cj = np.floor(uy).astype(np.int64)
        if tol is None:
            slack = 1e-12 * max(abs(self.i0), abs(self.i1), abs(self.j0), abs(self.j1), 1)
            ci[(ci == self.i1) & (ux <= self.i1 + slack)] -= 1
            cj[(cj == self.j1) & (uy <= self.j1 + slack)] -= 1
            ci[(ci == self.i0 - 1) & (ux >= self.i0 - slack)] += 1
            cj[(cj == self.j0 - 1) & (uy >= self.j0 - slack)] += 1
            pidx = np.flatnonzero((ci >= self.i0) & (ci < self.i1)
                                  & (cj >= self.j0) & (cj < self.j1))
            ii, jj = ci[pidx], cj[pidx]
        elif not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
        else:
            reach_i = min(int(math.floor(tol / self.w * (1 + 1e-9))) + 1, 1 << 61)
            reach_j = min(int(math.floor(tol / self.h * (1 + 1e-9))) + 1, 1 << 61)
            slack = 0.5 * _CONTAIN_TOL if tol == 0 else 0.0
            lim = tol * tol * (1 + 1e-12)
            # each point's candidates: the columns and the rows within reach of
            # it (every column's rows lie in the rows at dx = 0)
            r = math.sqrt(lim)
            i_lo, i_hi = _index_range(ux, r / self.w, slack, ci, reach_i, self.i0, self.i1)
            j_lo, j_hi = _index_range(uy, r / self.h, slack, cj, reach_j, self.j0, self.j1)
            rows = np.maximum(j_hi - j_lo + 1, 0)
            n = np.maximum(i_hi - i_lo + 1, 0) * rows
            ends = np.cumsum(n)
            pidx = np.repeat(np.arange(len(n)), n)
            t = np.repeat(ends - n, n)
            np.subtract(np.arange(len(t)), t, out=t)
            di, dj = np.divmod(t, rows[pidx])
            di += (i_lo - ci)[pidx]
            dj += (j_lo - cj)[pidx]
            ii, jj = di + ci[pidx], dj + cj[pidx]
            x, y = fx[pidx], fy[pidx]
            dx = np.maximum(np.maximum(ii * self.w - x, x - (ii + 1) * self.w)
                            - slack * self.w, 0.0)
            dy = np.maximum(np.maximum(jj * self.h - y, y - (jj + 1) * self.h)
                            - slack * self.h, 0.0)
            k = np.flatnonzero((dx * dx + dy * dy) <= lim)
            # by column offset, then row offset: the sort is stable, so each
            # offset's points stay ascending (numpy radix-sorts 8- and 16-bit keys)
            k = k[np.lexsort(((dj[k] + reach_j).astype(np.min_scalar_type(2 * reach_j)),
                              (di[k] + reach_i).astype(np.min_scalar_type(2 * reach_i))))]
            pidx, ii, jj = pidx[k], ii[k], jj[k]
        if self.keep is not None:
            k = np.flatnonzero(self.keep[ii - self.i0, jj - self.j0])
            pidx, ii, jj = pidx[k], ii[k], jj[k]
        return pidx, ii, jj

    def tile_coords(self, points, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Affine coordinates of each point in its paired tile (i, j), as
        ``tile(i, j).affine_coords`` gives them: inside means max|x| <= 1."""
        fx, fy = self._frame_coords(points)
        return np.column_stack([(fx - (i + 0.5) * self.w) / (0.5 * self.w),
                                (fy - (j + 0.5) * self.h) / (0.5 * self.h)])

    def tile(self, i: int, j: int) -> Parallelogram:
        u0, v0 = self.frame_origin()
        uc = u0 + (i + 0.5) * self.w
        vc = v0 + (j + 0.5) * self.h
        c, s = math.cos(self.theta), math.sin(self.theta)
        center = (c * uc - s * vc, s * uc + c * vc)
        return rotated_rectangle(center, self.w, self.h, self.theta)

    def kept_indices(self) -> np.ndarray:
        ii, jj = np.meshgrid(
            np.arange(self.i0, self.i1), np.arange(self.j0, self.j1), indexing="ij"
        )
        if self.keep is not None:
            ii, jj = ii[self.keep], jj[self.keep]
        else:
            ii, jj = ii.ravel(), jj.ravel()
        return np.column_stack([ii, jj])

    def centers(self) -> np.ndarray:
        idx = self.kept_indices()
        u0, v0 = self.frame_origin()
        uc = u0 + (idx[:, 0] + 0.5) * self.w
        vc = v0 + (idx[:, 1] + 0.5) * self.h
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.column_stack([c * uc - s * vc, s * uc + c * vc])

    def __len__(self) -> int:
        if self.keep is None:
            return self.ni * self.nj
        return int(np.count_nonzero(self.keep))

    def tiles(self) -> Iterable[Parallelogram]:
        for i, j in self.kept_indices():
            yield self.tile(int(i), int(j))

    def count_points(self, points) -> np.ndarray:
        """How many kept tiles contain each point (0 or 1 per grid), with
        the half-open rule of ``point_tiles``."""
        pidx, _, _ = self.point_tiles(points)
        return np.bincount(pidx, minlength=len(np.atleast_2d(points))).astype(np.int64)

    def domain_mask(self) -> np.ndarray:
        """Boolean (ni, nj): which cells meet the domain with positive area
        (``domain_masks`` over the grid's own range and anchor)."""
        return domain_masks(self.w, self.h, [self.theta], self.domain,
                            [(self.i0, self.i1, self.j0, self.j1)], self.anchor)[0]


def _rotated_domain(thetas, domain: BBox, anchor) -> Tuple[np.ndarray, np.ndarray]:
    """The domain's corners in the frame of each angle, (n, 4, 2), and the
    anchor's, (n, 2), formed as ``TileGrid.to_frame`` and
    ``frame_origin`` form them one angle at a time: numpy's stacked
    matmul runs each angle's product as it runs one angle's."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    c = np.array([math.cos(t) for t in thetas])
    s = np.array([math.sin(t) for t in thetas])
    rot = np.empty((len(thetas), 2, 2))  # world -> frame
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, s, -s, c
    xmin, ymin, xmax, ymax = domain
    corners = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    return (np.matmul(corners, rot.transpose(0, 2, 1)),
            np.matmul(rot, np.asarray(anchor, dtype=float)))


def tile_ranges(w: float, h: float, thetas, domain: BBox = UNIT_SQUARE) -> np.ndarray:
    """Index ranges (i0, i1, j0, j1), one row per angle, of the grids of
    w x h tiles anchored at the domain's lower-left corner that cover the
    domain: every cell the rotated domain reaches by more than 1e-12.

    Raises ValueError where a range cannot be indexed in int64: its
    bounds or its cell count reach 2^62 (or are not finite)."""
    if not (w > 0 and h > 0):
        raise ValueError("tile sides must be positive")
    fc, origin = _rotated_domain(thetas, domain, domain[:2])
    rel = fc - origin[:, None, :]
    pad = 1e-12
    lo = np.floor((rel.min(axis=1) + pad) / np.array([w, h]))
    hi = np.maximum(np.ceil((rel.max(axis=1) - pad) / np.array([w, h])), lo + 1)
    cells = (hi - lo).prod(axis=1)
    bad = ~(np.all(np.abs(lo) < 2.0 ** 62, axis=1) & np.all(np.abs(hi) < 2.0 ** 62, axis=1)
            & (cells < 2.0 ** 62))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"a tiling of {w:g} x {h:g} tiles over {tuple(domain)} cannot be "
                         f"indexed in int64 ({cells[k]:.3g} cells)")
    return np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1).astype(np.int64)


def domain_masks(w: float, h: float, thetas, domain: BBox, ranges,
                 anchor=None) -> List[np.ndarray]:
    """Domain masks of the grids of w x h tiles at each angle, over the
    index ranges ``ranges`` (rows (i0, i1, j0, j1)), anchored at
    ``anchor`` (the domain's lower-left corner by default): boolean
    (ni, nj) per angle, true on the cells that meet the domain with
    positive area.

    Separating-axis test between each frame-aligned cell and the rotated
    image of the axis-aligned domain, with 1e-12 of slack per test: the
    frame axes, then the quadrilateral's four edge normals.  All angles
    run through one pass over cells padded to the largest range, in
    chunks of at most ``_MASK_CELLS`` angle-cell pairs; every value is
    formed elementwise, or by stacked matmuls, exactly as for one angle.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    ranges = np.asarray(ranges, dtype=np.int64).reshape(-1, 4)
    fc, origin = _rotated_domain(thetas, domain, domain[:2] if anchor is None else anchor)
    ni, nj = ranges[:, 1] - ranges[:, 0], ranges[:, 3] - ranges[:, 2]
    step = max(1, _MASK_CELLS // max(int(ni.max(initial=0)) * int(nj.max(initial=0)), 1))
    out = []
    for a in range(0, len(thetas), step):
        k = slice(a, a + step)
        f, r = fc[k], ranges[k]
        ulo = origin[k, :1] + (r[:, :1] + np.arange(ni[k].max())) * w
        uhi = ulo + w
        vlo = origin[k, 1:] + (r[:, 2:3] + np.arange(nj[k].max())) * h
        vhi = vlo + h
        # axis checks (frame axes)
        ok_u = (ulo < f[:, :, 0].max(axis=1)[:, None] - 1e-12) \
            & (uhi > f[:, :, 0].min(axis=1)[:, None] + 1e-12)
        ok_v = (vlo < f[:, :, 1].max(axis=1)[:, None] - 1e-12) \
            & (vhi > f[:, :, 1].min(axis=1)[:, None] + 1e-12)
        mask = ok_u[:, :, None] & ok_v[:, None, :]
        # edge-normal checks of the quad
        mid = f.mean(axis=1)
        for t in range(4):
            p, q = f[:, t], f[:, (t + 1) % 4]
            n = np.stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]], axis=1)
            inward = np.matmul(n[:, None, :], (mid - p)[:, :, None])[:, 0, 0] > 0
            n[inward] = -n[inward]  # make n the outward normal
            c0 = np.matmul(n[:, None, :], p[:, :, None])[:, 0, 0]
            # min of n.x over cell corners; cell outside iff min > c0
            ui = np.where(n[:, :1] < 0, uhi, ulo)
            vj = np.where(n[:, 1:] < 0, vhi, vlo)
            m = n[:, 0, None, None] * ui[:, :, None] + n[:, 1, None, None] * vj[:, None, :]
            mask &= m < (c0 - 1e-12)[:, None, None]
        out.extend(mask[b, :ni[a + b], :nj[a + b]].copy() for b in range(len(mask)))
    return out


def tile_grids(
    w: float,
    h: float,
    thetas,
    domain: BBox = UNIT_SQUARE,
    alpha: Optional[float] = None,
    betas=None,
) -> List[TileGrid]:
    """The rotated grids covering the domain, one per angle of one aspect
    level (labelled by ``betas``): ranges from ``tile_ranges``, and keep
    masks from one ``domain_masks`` pass over the angles that are not a
    multiple of pi/2 (the others keep every cell)."""
    thetas = [float(t) for t in np.asarray(thetas, dtype=float).reshape(-1)]
    betas = [None] * len(thetas) if betas is None else list(betas)
    ranges = tile_ranges(w, h, thetas, domain)
    rotated = [k for k, t in enumerate(thetas) if abs(t) % (math.pi / 2) > 1e-12]
    keep: List[Optional[np.ndarray]] = [None] * len(thetas)
    if rotated:
        masks = domain_masks(w, h, [thetas[k] for k in rotated], domain, ranges[rotated])
        for k, mask in zip(rotated, masks):
            keep[k] = mask
    return [TileGrid(w, h, t, (domain[0], domain[1]), *(int(v) for v in r), domain,
                     alpha, b, m) for t, r, b, m in zip(thetas, ranges, betas, keep)]


def make_tile_grid(
    w: float,
    h: float,
    theta: float,
    domain: BBox = UNIT_SQUARE,
    alpha: Optional[float] = None,
    beta: Optional[int] = None,
) -> TileGrid:
    """Index ranges for the rotated grid covering the domain: the
    one-angle case of ``tile_grids``."""
    return tile_grids(w, h, [theta], domain, alpha, [beta])[0]
