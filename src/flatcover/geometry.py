"""Parallelograms, affine maps and rotated tilings.

Everything here is plain planar geometry: no polynomials, no flatness.
A ``Parallelogram`` is stored as a center plus two half-edge vectors, so
its vertex set is ``center +- e1 +- e2`` and containment questions reduce
to affine coordinates with respect to the edge matrix ``[e1 e2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

import numpy as np

BBox = Tuple[float, float, float, float]
UNIT_SQUARE: BBox = (0.0, 0.0, 1.0, 1.0)

_CONTAIN_TOL = 1e-9  # relative slack for closed containment tests


@dataclass(frozen=True)
class Parallelogram:
    """Center plus half-edge vectors; vertices are center +- e1 +- e2.

    ``alpha`` and ``beta`` are optional labels recording which tiling of
    a cover construction the box came from; they do not affect geometry.
    """

    center: Tuple[float, float]
    e1: Tuple[float, float]
    e2: Tuple[float, float]
    alpha: Optional[float] = None
    beta: Optional[int] = None

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
        out = {"center": list(self.center), "e1": list(self.e1), "e2": list(self.e2)}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.beta is not None:
            out["beta"] = self.beta
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "Parallelogram":
        try:
            return Parallelogram(
                tuple(obj["center"]),
                tuple(obj["e1"]),
                tuple(obj["e2"]),
                alpha=obj.get("alpha"),
                beta=obj.get("beta"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed parallelogram record: {exc}") from exc


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


def rotated_rectangle(center, w: float, h: float, theta: float, **labels) -> Parallelogram:
    """Rectangle with full side w along angle theta and full side h across."""
    ct, st = math.cos(theta), math.sin(theta)
    return Parallelogram(
        tuple(center),
        (0.5 * w * ct, 0.5 * w * st),
        (-0.5 * h * st, 0.5 * h * ct),
        **labels,
    )


def dilate(s: Parallelogram, factor: float) -> Parallelogram:
    """Scale both half-edges about the center."""
    if factor <= 0:
        raise ValueError("dilation factor must be positive")
    return replace(
        s,
        e1=(factor * s.e1[0], factor * s.e1[1]),
        e2=(factor * s.e2[0], factor * s.e2[1]),
    )


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
        return replace(
            s,
            center=tuple(self.apply(np.asarray(s.center))),
            e1=tuple(m @ np.asarray(s.e1)),
            e2=tuple(m @ np.asarray(s.e2)),
        )

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
        lands in every tile that contains it.  The cells tried around a
        point's own cell reach floor(tol / w) + 1 columns and
        floor(tol / h) + 1 rows each way, enough to find every tile at
        distance up to tol; offsets that put no point's cell inside the
        index range are skipped.
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
            pidx, ii, jj = np.arange(len(fx)), ci, cj
        elif not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
        else:
            reach_i = int(math.floor(tol / self.w * (1 + 1e-9))) + 1
            reach_j = int(math.floor(tol / self.h * (1 + 1e-9))) + 1
            slack = 0.5 * _CONTAIN_TOL if tol == 0 else 0.0
            # only the offsets that can put some point's cell in the index range
            lo_i, hi_i = (int(ci.min()), int(ci.max())) if len(ci) else (self.i1, self.i0)
            lo_j, hi_j = (int(cj.min()), int(cj.max())) if len(cj) else (self.j1, self.j0)
            found = [(ci[:0],) * 3]
            for di in range(max(-reach_i, self.i0 - hi_i), min(reach_i, self.i1 - 1 - lo_i) + 1):
                ii = ci + di
                dx = np.maximum(np.maximum(ii * self.w - fx, fx - (ii + 1) * self.w)
                                - slack * self.w, 0.0)
                for dj in range(max(-reach_j, self.j0 - hi_j),
                                min(reach_j, self.j1 - 1 - lo_j) + 1):
                    jj = cj + dj
                    dy = np.maximum(np.maximum(jj * self.h - fy, fy - (jj + 1) * self.h)
                                    - slack * self.h, 0.0)
                    k = np.flatnonzero((dx * dx + dy * dy) <= tol * tol * (1 + 1e-12))
                    found.append((k, ii[k], jj[k]))
            pidx, ii, jj = (np.concatenate(a) for a in zip(*found))
        ok = (ii >= self.i0) & (ii < self.i1) & (jj >= self.j0) & (jj < self.j1)
        if self.keep is not None:
            sel = np.flatnonzero(ok)
            ok[sel] = self.keep[ii[sel] - self.i0, jj[sel] - self.j0]
        return pidx[ok], ii[ok], jj[ok]

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
        return rotated_rectangle(center, self.w, self.h, self.theta,
                                 alpha=self.alpha, beta=self.beta)

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
        """Boolean (ni, nj): which cells meet the domain with positive area.

        Separating-axis test between each frame-aligned cell and the
        rotated image of the axis-aligned domain.
        """
        xmin, ymin, xmax, ymax = self.domain
        corners = np.array(
            [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float
        )
        fc = self.to_frame(corners)  # rotated domain, convex quad in frame coords
        u0, v0 = self.frame_origin()
        iis = np.arange(self.i0, self.i1)
        jjs = np.arange(self.j0, self.j1)
        ulo = u0 + iis * self.w
        uhi = ulo + self.w
        vlo = v0 + jjs * self.h
        vhi = vlo + self.h
        # axis checks (frame axes)
        ok_u = (ulo[:, None] < fc[:, 0].max() - 1e-12) & (uhi[:, None] > fc[:, 0].min() + 1e-12)
        ok_v = (vlo[None, :] < fc[:, 1].max() - 1e-12) & (vhi[None, :] > fc[:, 1].min() + 1e-12)
        mask = ok_u & ok_v  # (ni, nj) via broadcasting of (ni,1) & (1,nj)
        # edge-normal checks of the quad
        for t in range(4):
            p, q = fc[t], fc[(t + 1) % 4]
            n = np.array([q[1] - p[1], p[0] - q[0]])  # outward or inward, fix sign below
            if np.dot(n, fc.mean(axis=0) - p) > 0:
                n = -n  # make n the outward normal
            c0 = np.dot(n, p)
            # min of n.x over cell corners; cell outside iff min > c0
            ui = np.where(n[0] < 0, uhi, ulo)
            vj = np.where(n[1] < 0, vhi, vlo)
            m = n[0] * ui[:, None] + n[1] * vj[None, :]
            mask &= m < c0 - 1e-12
        return mask


def make_tile_grid(
    w: float,
    h: float,
    theta: float,
    domain: BBox = UNIT_SQUARE,
    alpha: Optional[float] = None,
    beta: Optional[int] = None,
) -> TileGrid:
    """Index ranges for the rotated grid covering the domain."""
    if w <= 0 or h <= 0:
        raise ValueError("tile sides must be positive")
    xmin, ymin, xmax, ymax = domain
    corners = np.array(
        [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float
    )
    grid = TileGrid(w, h, float(theta), (xmin, ymin), 0, 0, 0, 0, domain, alpha, beta)
    fc = grid.to_frame(corners) - grid.frame_origin()
    pad = 1e-12
    i0 = int(math.floor((fc[:, 0].min() + pad) / w))
    i1 = int(math.ceil((fc[:, 0].max() - pad) / w))
    j0 = int(math.floor((fc[:, 1].min() + pad) / h))
    j1 = int(math.ceil((fc[:, 1].max() - pad) / h))
    grid.i0, grid.i1, grid.j0, grid.j1 = i0, max(i1, i0 + 1), j0, max(j1, j0 + 1)
    if abs(theta) % (math.pi / 2) > 1e-12:
        grid.keep = grid.domain_mask()
    return grid
