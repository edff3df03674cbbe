"""Families of flat boxes covering the unit square.

Three families appear:

* ``canonical_caps``: the square-root-scale square partition.
* ``hp_axis_family``: the log-many axis-aligned anisotropic partitions,
  one per dyadic aspect level.
* ``build_cover_hp`` / ``build_cover_general``: the full construction,
  which enumerates dyadic aspect ratios and quantized angles, keeps the
  rectangles that are flat and comparable to the Hessian-null candidate
  boxes, and (in the general case) recurses through a curved/flat
  dichotomy.

Members are stored as whole tilings (``TileGrid``) plus a boolean keep
mask, optionally behind a shared affine frame, so million-member covers
occupy a few kilobytes and membership queries vectorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .flatness import (
    TilingFlatness,
    _bracket,
    _region_bracket,
    _require_a_const,
    _slope_spread_bound,
    boxes_flatness,
    flat_defect_interval,
    is_flat,
    null_direction_fields,
    null_directions,
    quad_defect,
    tiling_flatness,
)
from .geometry import (
    AffineMap2,
    BBox,
    Parallelogram,
    TileGrid,
    UNIT_SQUARE,
    axis_rectangle,
    box_distances,
    make_tile_grid,
    tile_grids,
)
from .poly2 import (
    BivariatePoly,
    _compose_coeffs,
    _minus_tangent_coeffs,
    compose_affine,
    minus_tangent_plane,
    poly_scale,
)

# Patches split into _M_CONST x _M_CONST squares; saddle and bowl patches
# need |det H| > 1/_M_CONST; recursion depth is capped at 4*log_M(1/delta).
_M_CONST = 4

# point-box pairs per chunk of the stacked loose-member count and world-distance pass
_LOOSE_PAIRS = 8192

_NINE_OFFSETS = np.array(
    [(0.0, 0.0), (1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)]
)


@dataclass
class FramedGroups:
    """Tilings expressed in a local frame; members are frame(tile)."""

    frame: Optional[AffineMap2]
    groups: List[TileGrid] = field(default_factory=list)

    def world_box(self, tile: Parallelogram) -> Parallelogram:
        if self.frame is None:
            return tile
        return self.frame.apply_box(tile)


def _similarity_scale(mat: np.ndarray) -> Optional[float]:
    """Scale factor if mat is a similarity (rotation times scaling)."""
    g = mat.T @ mat
    if abs(g[0, 1]) > 1e-9 * abs(g[0, 0]) or abs(g[0, 0] - g[1, 1]) > 1e-9 * abs(g[0, 0]):
        return None
    return math.sqrt(abs(g[0, 0]))


class Incidence(NamedTuple):
    """The points that one tiling takes: point ``pidx[k]`` lies in kept
    tile ``(ii[k], jj[k])`` of ``grid``, and ``local`` holds the points
    in the tiling's frame."""

    grid: TileGrid
    local: np.ndarray
    pidx: np.ndarray
    ii: np.ndarray
    jj: np.ndarray

    def cells(self) -> np.ndarray:
        """Row-major cell index of each incidence's tile in the grid's
        index range."""
        return (self.ii - self.grid.i0) * self.grid.nj + (self.jj - self.grid.j0)

    def blocks(self) -> List[np.ndarray]:
        """Point indices of each tile that takes any, in member order."""
        key = self.cells()
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return np.split(self.pidx[order], cuts) if len(key) else []

    def coords(self) -> np.ndarray:
        """Affine coordinates of each taken point in its tile."""
        return self.grid.tile_coords(self.local[self.pidx], self.ii, self.jj)


def _loose_counts(boxes: List[Parallelogram], pts: np.ndarray) -> np.ndarray:
    """How many loose members take each point at tol None, as their
    one-tile tilings in ``incidences`` do: member (E, c) is the tile of
    the unit square centered at the origin behind the frame (2E, c), and
    its one cell, [0, 1]^2 in f = local + 1/2, takes p iff f lies in
    [-s, 1 + s]^2, s = 1e-12 the outer boundary's slack.  The stacked
    inverse and matmul repeat ``frame.inverse().apply`` bit for bit (numpy
    runs the same product member by member), which matters: sample
    midpoints fall exactly on the dyadic edges of deep patches."""
    centers = np.array([b.center for b in boxes], dtype=float)
    frames = 2.0 * np.stack([np.array([b.e1 for b in boxes], dtype=float),
                             np.array([b.e2 for b in boxes], dtype=float)], axis=-1)
    inv = np.linalg.inv(frames)
    off = np.matmul(-inv, centers[:, :, None])[:, :, 0]
    out = np.zeros(len(pts), dtype=np.int64)
    step = max(1, _LOOSE_PAIRS // max(len(pts), 1))
    for lo in range(0, len(boxes), step):
        local = np.matmul(pts, inv[lo:lo + step].transpose(0, 2, 1)) + off[lo:lo + step, None, :]
        f = local + 0.5
        inside = (f >= -1e-12) & (f <= 1 + 1e-12)
        out += (inside[..., 0] & inside[..., 1]).sum(axis=0)
    return out


def _tiles_within(part: FramedGroups, grid: TileGrid, pts: np.ndarray, tol: float):
    """``grid.point_tiles`` at tol > 0 in world distance: the rule for
    tilings behind a frame that is not a similarity.  Point p is taken by
    a kept tile iff its ``box_distances`` is at most tol (1 + 1e-12), one
    stacked pass per chunk of at most ``_LOOSE_PAIRS`` tile-point pairs
    (and at least one tile).  The stacked matmul gives each tile's center
    as ``world_box`` does."""
    idx = grid.kept_indices()
    edges = part.world_box(grid.tile(grid.i0, grid.j0))
    mat = part.frame.matrix
    centers = np.matmul(grid.centers()[:, None, :], mat.T)[:, 0, :] + part.frame.offset
    e1, e2 = (np.broadcast_to(e, centers.shape) for e in (edges.e1, edges.e2))
    step = max(1, _LOOSE_PAIRS // max(len(pts), 1))
    found = [(np.zeros(0, dtype=np.int64),) * 2]
    for lo in range(0, len(centers), step):
        hi = lo + step
        b, k = np.nonzero(box_distances(centers[lo:hi], e1[lo:hi], e2[lo:hi], pts)
                          <= tol * (1 + 1e-12))
        found.append((b + lo, k))
    b, k = (np.concatenate(a) for a in zip(*found))
    return k, idx[b, 0], idx[b, 1]


def _partition_margins(grids: List[TileGrid]) -> List[Optional[float]]:
    """Per grid, a margin if it is a partition tiling, else None.

    A partition tiling equals the canonical tiling that ``tile_grids``
    builds for its (w, h, theta, domain): the same anchor, index range
    and keep mask, or every cell of that range kept.  This is decided
    from the grid alone on every call, with one ``tile_grids`` pass per
    (w, h, domain) group.  Its margin is mu = 1e-9 (S + 1/L), with
    S = 1 + max |coordinate of D| + w + h and L the shorter side of D, or
    a wider one: the widest among the grids that share its domain D.

    Such a tiling takes each point p at least mu inside D (in each axis)
    exactly once under ``point_tiles`` at tol None.  That rule gives p
    one candidate cell, the floor of its frame coordinates, so at most
    once.  Every quantity below is formed from numbers of size at most
    3S, each to within 64uS, u = 2^-53 (times |n| for the products with
    an edge normal n).  So the candidate's closed cell holds a point q
    within 64uS of p, and q lies at least mu - 64uS inside D along every
    unit direction.  The range covers D's projections up to a pad of
    1e-12, so the candidate is in range and no outer-boundary rule moves
    it.  Each separating-axis test of ``domain_masks`` asks for a gap of
    1e-12 along a frame axis, or 1e-12 / |n| in distance along an edge
    normal n, whose length is a side of the rotated domain, at least
    L (1 - 1e-15).  The gap q offers, mu - 64uS, exceeds either slack
    plus 128uS of rounding by a factor above 100 (S >= 1).  So the cell
    meets D by every test, lies in the mask, and is kept.
    """
    groups: dict = {}
    for k, grid in enumerate(grids):
        groups.setdefault((grid.w, grid.h, tuple(grid.domain)), []).append(k)
    out: List[Optional[float]] = [None] * len(grids)
    for (w, h, domain), ks in groups.items():
        xmin, ymin, xmax, ymax = domain
        side = min(xmax - xmin, ymax - ymin)
        if not (np.all(np.isfinite(domain)) and side > 0):
            continue
        margin = 1e-9 * (1.0 + max(abs(v) for v in domain) + w + h + 1.0 / side)
        for k, canon in zip(ks, tile_grids(w, h, [grids[k].theta for k in ks], domain)):
            g = grids[k]
            if ((tuple(g.anchor), g.i0, g.i1, g.j0, g.j1)
                    == (canon.anchor, canon.i0, canon.i1, canon.j0, canon.j1)
                    and (g.keep is None or (g.keep.all() if canon.keep is None
                                            else np.array_equal(g.keep, canon.keep)))):
                out[k] = margin
    # a wider margin serves too: one margin per domain, the widest
    widest: dict = {}
    for grid, margin in zip(grids, out):
        if margin is not None:
            widest[tuple(grid.domain)] = max(margin, widest.get(tuple(grid.domain), 0.0))
    return [None if m is None else widest[tuple(g.domain)] for g, m in zip(grids, out)]


@dataclass
class FlatCover:
    """A family of parallelograms tagged with its construction scale."""

    delta: float
    a_const: float
    parts: List[FramedGroups] = field(default_factory=list)
    loose: List[Parallelogram] = field(default_factory=list)
    kind: str = "generic"
    domain: BBox = UNIT_SQUARE

    def __len__(self) -> int:
        return sum(len(g) for p in self.parts for g in p.groups) + len(self.loose)

    def iter_members(self) -> Iterable[Parallelogram]:
        """Every kept tile of every tiling in world coordinates, then the
        loose members."""
        for part in self.parts:
            for grid in part.groups:
                for tile in grid.tiles():
                    yield part.world_box(tile)
        yield from self.loose

    def incidences(self, points, tol: Optional[float] = None) -> Iterator[Incidence]:
        """Which members take which points, one tiling at a time in
        ``iter_members`` order.  A loose member is the one-tile tiling it
        is: the tile of the unit square centered at the origin, behind the
        frame (2E, c) that maps it onto the member exactly, E its edge
        matrix and c its center.

        ``tol`` is a world distance under ``TileGrid.point_tiles``' rules:
        None takes half-open cells (a tiling's outer boundary, so a whole
        loose member, closed), 0 the closed member with the slack of
        ``Parallelogram.contains``, tol > 0 every point within distance
        tol.  Behind a similarity frame tol > 0 becomes tol / scale; behind
        any other it is decided tile by tile in world distance.
        """
        if tol is not None and not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        unit = make_tile_grid(1.0, 1.0, 0.0, (-0.5, -0.5, 0.5, 0.5)) if self.loose else None
        loose = (FramedGroups(AffineMap2(tuple(map(tuple, 2.0 * b.edge_matrix)), b.center),
                              [unit]) for b in self.loose)
        for part in chain(self.parts, loose):
            local = pts if part.frame is None else part.frame.inverse().apply(pts)
            scale = 1.0 if part.frame is None else _similarity_scale(part.frame.matrix)
            for grid in part.groups:
                if not tol:
                    found = grid.point_tiles(local, tol)
                elif scale is not None:
                    found = grid.point_tiles(local, tol / scale)
                else:
                    found = _tiles_within(part, grid, pts, tol)
                yield Incidence(grid, local, *found)

    def membership_counts(self, points) -> np.ndarray:
        """How many members take each point (``incidences`` at tol None).

        A partition tiling (``_partition_margins``) takes each point lying
        inside its domain by its margin exactly once, so it adds 1 there
        without locating the point; ``point_tiles`` places only the other
        points, and every point for the other tilings.  The loose members
        are counted together, by ``_loose_counts``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts), dtype=np.int64)
        for part in self.parts:
            local = pts if part.frame is None else part.frame.inverse().apply(pts)
            x, y = local[:, 0], local[:, 1]
            split = {}  # domain -> (inside by its margin, indices of the rest)
            for grid, margin in zip(part.groups, _partition_margins(part.groups)):
                if margin is None:
                    out += np.bincount(grid.point_tiles(local)[0], minlength=len(pts))
                    continue
                key = tuple(grid.domain)
                if key not in split:
                    xmin, ymin, xmax, ymax = key
                    inside = ((x > xmin + margin) & (x < xmax - margin)
                              & (y > ymin + margin) & (y < ymax - margin))
                    split[key] = (inside, np.flatnonzero(~inside))
                inside, rest = split[key]
                out += inside
                if len(rest):
                    out += np.bincount(rest[grid.point_tiles(local[rest])[0]],
                                       minlength=len(pts))
        if self.loose:
            out += _loose_counts(self.loose, pts)
        return out

    def sample_members(self, rng: np.random.Generator, k: int) -> List[Parallelogram]:
        """k >= 1 members drawn uniformly (with replacement) from the family."""
        if k < 1:
            raise ValueError(f"member count must be at least 1, got {k}")
        handles = [(part, grid) for part in self.parts for grid in part.groups]
        cum = np.cumsum([len(grid) for _, grid in handles] + [1] * len(self.loose))
        total = int(cum[-1]) if len(cum) else 0
        if total == 0:
            raise ValueError("cover has no members")
        kept = {}  # slot -> kept_indices(), computed once per drawn grid
        out = []
        for r in rng.integers(0, total, size=k):
            slot = int(np.searchsorted(cum, r, side="right"))
            if slot >= len(handles):
                out.append(self.loose[slot - len(handles)])
                continue
            part, grid = handles[slot]
            if slot not in kept:
                kept[slot] = grid.kept_indices()
            offset = r - (cum[slot - 1] if slot > 0 else 0)
            idx = kept[slot][offset]
            out.append(part.world_box(grid.tile(int(idx[0]), int(idx[1]))))
        return out

    def overlap_bound(self) -> float:
        """The advertised pointwise overlap bound for this family kind."""
        log_inv = math.log2(1.0 / self.delta)
        if self.kind == "caps":
            return 1.0
        if self.kind == "axis":
            return math.floor(log_inv) + 1.0
        if self.kind == "hp":
            return 4.0 * self.a_const * log_inv
        return 8.0 * self.a_const * max(log_inv, 1.0) ** 2

    def to_json_dict(self) -> dict:
        """Exact grouped serialization: grids stay index ranges plus a
        dropped-cell list, so large covers stay small on disk and the
        grouped fast paths survive a round trip."""
        parts = []
        for part in self.parts:
            frame = None
            if part.frame is not None:
                frame = {
                    "matrix": part.frame.matrix.tolist(),
                    "offset": part.frame.offset.tolist(),
                }
            groups = []
            for g in part.groups:
                rec = {
                    "w": g.w, "h": g.h, "theta": g.theta,
                    "anchor": [float(g.anchor[0]), float(g.anchor[1])],
                    "i0": g.i0, "i1": g.i1, "j0": g.j0, "j1": g.j1,
                    "domain": list(g.domain),
                    "alpha": g.alpha, "beta": g.beta,
                }
                if g.keep is not None:
                    ii, jj = np.nonzero(~g.keep)
                    rec["drop"] = np.column_stack(
                        [ii + g.i0, jj + g.j0]
                    ).tolist()
                groups.append(rec)
            parts.append({"frame": frame, "groups": groups})
        return {
            "schema": 1,
            "delta": self.delta,
            "A": self.a_const,
            "kind": self.kind,
            "domain": list(self.domain),
            "count": len(self),
            "parts": parts,
            "loose": [m.to_json_dict() for m in self.loose],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "FlatCover":
        """Refuses non-finite numbers, dropped cells that are not integer
        cells of their grid's index range, and zero-area loose members."""
        try:
            parts = []
            for prec in obj.get("parts", []):
                frame = prec.get("frame")
                if frame is not None:
                    mat, off = (np.array(frame[k], dtype=float) for k in ("matrix", "offset"))
                    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
                        raise ValueError("non-finite frame")
                    frame = AffineMap2(tuple(map(tuple, mat)), tuple(off))
                groups = []
                for rec in prec["groups"]:
                    grid = TileGrid(
                        float(rec["w"]), float(rec["h"]), float(rec["theta"]),
                        (float(rec["anchor"][0]), float(rec["anchor"][1])),
                        int(rec["i0"]), int(rec["i1"]), int(rec["j0"]), int(rec["j1"]),
                        domain=tuple(rec["domain"]), alpha=rec.get("alpha"), beta=rec.get("beta"),
                    )
                    if not np.all(np.isfinite((grid.w, grid.h, grid.theta)
                                              + grid.anchor + grid.domain)):
                        raise ValueError("non-finite grid")
                    if rec.get("drop"):
                        drop, lo = np.array(rec["drop"], dtype=float), (grid.i0, grid.j0)
                        if (drop.ndim != 2 or drop.shape[1] != 2 or np.any(drop != np.floor(drop))
                                or np.any((drop < lo) | (drop >= (grid.i1, grid.j1)))):
                            raise ValueError(f"drop entries must be integer cells of [{grid.i0}, "
                                             f"{grid.i1}) x [{grid.j0}, {grid.j1})")
                        ij = (drop - lo).astype(np.int64)
                        grid.keep = np.ones((grid.ni, grid.nj), dtype=bool)
                        grid.keep[ij[:, 0], ij[:, 1]] = False
                    groups.append(grid)
                parts.append(FramedGroups(frame, groups))
            loose = [Parallelogram.from_json_dict(m) for m in obj.get("loose", [])]
            _require_a_const(float(obj["A"]))
            cover = FlatCover(float(obj["delta"]), float(obj["A"]), parts, loose,
                              obj.get("kind", "generic"), tuple(obj.get("domain", UNIT_SQUARE)))
            if not np.all(np.isfinite((cover.delta,) + cover.domain)):
                raise ValueError("non-finite delta or domain")
            return cover
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValueError(f"malformed cover record: {exc}") from exc


@dataclass(frozen=True)
class OverlapProfile:
    max: int
    mean: float
    min: int
    histogram: dict
    samples: int


@dataclass(frozen=True)
class VerifyReport:
    all_flat: bool
    covers_domain: bool
    overlap_ok: bool
    max_overlap: int
    overlap_bound: float
    worst_defect: float
    min_a_flat: float  # smallest A for which every member would pass

    @property
    def ok(self) -> bool:
        return self.all_flat and self.covers_domain and self.overlap_ok


# -- basic families ------------------------------------------------------


def _require_dyadic(delta: float) -> int:
    if not 0 < delta <= 1:  # NaN fails too
        raise ValueError("delta must lie in (0, 1]")
    k = math.log2(1.0 / delta)
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"1/delta must be a power of two, got delta={delta!r}")
    return int(round(k))


def canonical_caps(delta: float) -> FlatCover:
    """Partition of the unit square into sqrt(delta)-side squares."""
    _require_dyadic(delta)
    side = math.sqrt(delta)
    grid = make_tile_grid(side, side, 0.0, alpha=delta ** -0.5, beta=0)
    return FlatCover(delta, 1.0, [FramedGroups(None, [grid])], kind="caps")


def hp_axis_family(delta: float, domain: BBox = UNIT_SQUARE) -> FlatCover:
    """Axis-aligned anisotropic partitions, one per dyadic aspect level.

    Level m tiles have width 2^m sqrt(delta) and height 2^-m sqrt(delta);
    m runs over |m| <= log2(1/delta)/2.  Every level partitions the
    domain, so the pointwise overlap is exactly the number of levels.
    """
    _require_dyadic(delta)
    root = math.sqrt(delta)
    mmax = int(math.floor(0.5 * math.log2(1.0 / delta) + 1e-9))
    groups = []
    for m in range(-mmax, mmax + 1):
        w = (2.0 ** m) * root
        h = (2.0 ** -m) * root
        alpha = 1.0 / max(w, h)
        groups.append(make_tile_grid(w, h, 0.0, domain, alpha=alpha, beta=m))
    return FlatCover(delta, 1.0, [FramedGroups(None, groups)], kind="axis", domain=domain)


def normal_axis_family(phi: BivariatePoly, delta: float) -> FlatCover:
    """The axis family expressed in the normal frame of a quadratic phase.

    For saddles the frame axes follow the two null directions, so every
    level's tiles are flat at scale delta no matter how elongated; this
    keeps the member count implicit in the grid records even at scales
    where listing tiles would be hopeless.  Definite phases have no null
    directions and fall back to the square partition.
    """
    if phi.support_degree() > 2:
        raise ValueError("normal-frame families need a quadratic phase")
    _require_dyadic(delta)
    hess = phi.hessian(0.0, 0.0)
    det = float(hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0])
    if det >= 0:
        if det == 0:
            raise ValueError("degenerate quadratic: no normal frame")
        caps = canonical_caps(delta)
        a = max(1.0, (abs(hess[0, 0]) + abs(hess[1, 1])
                      + 2 * abs(hess[0, 1])) / 2.0)
        return FlatCover(delta, a, caps.parts, kind="caps")
    nd = null_directions(phi, (0.0, 0.0))
    u1 = np.asarray(nd.v, dtype=float)
    u2 = np.asarray(nd.w, dtype=float)
    u1 /= np.linalg.norm(u1)
    u2 /= np.linalg.norm(u2)
    mixed = abs(float(u1 @ hess @ u2))
    frame = AffineMap2(((u1[0], u2[0]), (u1[1], u2[1])), (0.0, 0.0))
    local_box = frame.inverse().image_bbox(UNIT_SQUARE)
    groups = hp_axis_family(delta, local_box).parts[0].groups
    part = FramedGroups(frame, groups)
    # The tiles are tuned so the defect equals the declared bound, and
    # certification compares with a bare <=; take the constant from the
    # achieved prototype defects and bump past any rounding in w * h.
    worst = 0.0
    for grid in groups:
        _, hi = flat_defect_interval(phi, part.world_box(grid.tile(grid.i0, grid.j0)))
        worst = max(worst, hi)
    a = max(1.0, mixed, worst / delta)
    while a * delta < worst:
        a = math.nextafter(a, math.inf)
    return FlatCover(delta, a, [part], kind="axis")


# -- the anisotropic cover for saddle phases -----------------------------


def _normal_form_error(phi: BivariatePoly) -> Optional[str]:
    d = phi.degree
    bound = 10.0 ** (-10 * d)
    if abs(phi.coeff(1, 1) - 1.0) > 1e-9:
        return f"mixed coefficient must be 1, got {phi.coeff(1, 1)!r}"
    for (j, k), a in phi.coeffs.items():
        if j + k < 2 or (j, k) == (1, 1):
            continue
        if abs(a) > bound * (1 + 1e-9):
            return f"coefficient ({j},{k})={a!r} exceeds the class bound {bound:g}"
    return None


def _route_extents(a_f: np.ndarray, b_f: np.ndarray, theta, r: float) -> np.ndarray:
    """The comparability rule's arithmetic for tiles with aspect r = h/w,
    from the null-direction slopes (a, b) at their nine anchors, each
    (n, 9), at the angle ``theta``: one for every tile, or one per row.
    Returns an (n, 2) array: per tile and route ("w", "v"), the largest
    absolute coordinate of (i) a candidate vertex in the tile's
    half-edge frame and (ii) a tile vertex in the candidate's, over all
    nine anchors.  The route is comparable iff that extent is at most 2A
    (NaN compares false).

    The candidate box is congruent to the tile, with half sides w/2
    along the unit null direction and h/2 across it.  With (c, s) that
    direction in the tile's axes and o the anchor offset in half edges,
    (i) has coordinates (o1 + s1 c - s2 r s, o2 + s1 s/r + s2 c) and (ii)
    (t1 c + t2 r s, t2 c - t1 s/r) with t = sign - o, for vertex signs
    s1, s2 = +-1.  Their largest absolute values are

        max(|o1|, |o1 c + o2 r s|) + |c| + r|s|        (long sides)
        max(|o2|, |o2 c - o1 s/r|) + |c| + |s|/r       (short sides).
    """
    thetas = np.atleast_1d(theta)
    ct = np.array([math.cos(t) for t in thetas])[:, None]
    st = np.array([math.sin(t) for t in thetas])[:, None]
    o1, o2 = _NINE_OFFSETS.T
    ext = []
    for d1, d2 in ((-a_f, 1.0), (1.0, -b_f)):
        norm = np.sqrt(d1 * d1 + d2 * d2)
        c = (d1 * ct + d2 * st) / norm
        s = (d2 * ct - d1 * st) / norm
        base_long = np.abs(c) + r * np.abs(s)
        base_short = np.abs(c) + np.abs(s) / r
        long_side = np.maximum(np.abs(o1), np.abs(o1 * c + o2 * (r * s))) + base_long
        short_side = np.maximum(np.abs(o2), np.abs(o2 * c - o1 * (s / r))) + base_short
        ext.append(np.maximum(long_side, short_side).max(axis=1))
    return np.stack(ext, axis=1)


def _anchor_slopes(phi: BivariatePoly, grid: TileGrid):
    """Null-direction slopes (a, b, valid) at the nine anchors of every
    kept tile of ``grid``, each (n, 9), from one ``null_direction_fields``
    call."""
    ct, st = math.cos(grid.theta), math.sin(grid.theta)
    e1 = 0.5 * grid.w * np.array([ct, st])
    e2 = 0.5 * grid.h * np.array([-st, ct])
    z = grid.centers()[:, None, :] + _NINE_OFFSETS[:, :1] * e1 + _NINE_OFFSETS[:, 1:] * e2
    return tuple(v.reshape(z.shape[:2]) for v in null_direction_fields(phi, z.reshape(-1, 2)))


def _whole_comparability(
    a_z: float, b_z: float, thetas: np.ndarray, r: float, a_const: float,
    spread: Optional[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Comparability of whole tilings of one aspect level, decided in
    closed form: masks (kept, dropped) over ``thetas``, flagging the
    angles at which ``_comparability_keep`` would keep every tile, or
    drop every tile.  Neither is set where the test below is
    inconclusive, or everywhere when ``spread`` is None.

    ``_route_extents`` reads a tile only through the float slopes at its
    anchors.  Each angle's virtual tile has the slopes (a_z, b_z) of one
    point z at all nine anchors, and its extents decide every tile of
    the tiling when, per route, their margin to 2A exceeds
    err = K (D + 32u), where r = h/w <= 1, K = 2(1 + 1/r), u = 2^-53 and
    ``spread`` = D is at least every difference between the slopes at z
    and at an anchor of a tile, with every anchor valid:

    * The null direction's angle is 1-Lipschitz in the slope, (c, s) is
      1-Lipschitz in the angle, and each anchor's extent term moves by
      at most 2(|dc| + |ds|/r); so the exact extents of a tile and of
      the virtual tile differ by <= K D.
    * c and s are formed with absolute error <= 5u.  The terms are at
      most 1 + 1/r, s/r carries 6u/r, and each sum rounds once more, so
      a computed extent is within 14u + 16u/r <= 8uK of its exact value.
      Two tiles take 16uK; the other 16uK covers rounding in err, in
      the comparisons with 2A (extents are <= K) and at second order.

    ``_build_hp_core`` passes the bound of ``_slope_spread_bound`` over
    the domain padded by the tile diameter, a box that holds z (the
    domain's corner) and every anchor of a tile meeting the domain, and
    that bound also certifies every such point valid.
    """
    none = np.zeros(len(thetas), dtype=bool)
    if spread is None:
        return none, none
    ext = _route_extents(np.full((len(thetas), 9), a_z), np.full((len(thetas), 9), b_z),
                         thetas, r)
    err = 2.0 * (1.0 + 1.0 / r) * (spread + 32.0 * 2.0 ** -53)
    lim = 2.0 * a_const * (1.0 + 1e-9)
    return np.any(ext + err < lim, axis=1), np.all(ext - err > lim, axis=1)


def _comparability_keep(phi: BivariatePoly, grid: TileGrid, a_const: float) -> np.ndarray:
    """Comparability, tile by tile: a tile is kept iff, along one
    null-direction route ("w" or "v"), the candidate boxes anchored at
    all nine anchor points are two-sidedly comparable to the tile (each
    inside the other dilated by 2A), every anchor having null
    directions.  Returns a boolean vector over the kept tiles."""
    a_f, b_f, valid = _anchor_slopes(phi, grid)
    ext = _route_extents(a_f, b_f, grid.theta, grid.h / grid.w)
    return np.any(ext <= 2.0 * a_const * (1.0 + 1e-9), axis=1) & valid.all(axis=1)


def _refine_keep(grid: TileGrid, keep_vec: np.ndarray) -> None:
    """Restrict the grid's keep mask to the tiles flagged in keep_vec
    (ordered as kept_indices())."""
    mask = np.ones((grid.ni, grid.nj), dtype=bool) if grid.keep is None else grid.keep
    mask[mask] = keep_vec
    grid.keep = mask


def _build_hp_core(
    phi: BivariatePoly,
    delta: float,
    a_const: float,
    domain: BBox,
) -> List[TileGrid]:
    """Angle/aspect enumeration behind build_cover_hp.

    Assumes the quadratic part of ``phi`` is the saddle normal form
    (mixed coefficient 1, no square terms beyond the class bound).  Each
    aspect level is decided in two passes.  The closed-form pass covers
    every angle at once: the quadratic part's defect plus a domain-wide
    tail bound sorts the tilings into sure, maybe and rejected flat, and
    ``_whole_comparability`` keeps or drops the sure and maybe ones whole
    from the null slopes at the domain's corner, evaluated once per
    cover, and the closed-form slope spread over the level
    (``_slope_spread_bound``).  The per-tile pass runs only where that
    leaves a doubt: a maybe tiling keeps the tiles ``tiling_flatness``
    finds flat, and an undecided angle the tiles ``_comparability_keep``
    finds comparable.  Dropped angles build no grid.
    """
    amax = int(math.floor(math.log2(delta ** -0.5) + 1e-9))
    groups: List[TileGrid] = []
    threshold = a_const * delta
    xmin, ymin, xmax, ymax = domain
    a_z, b_z, _ = null_direction_fields(phi, (xmin, ymin))
    for aexp in range(amax + 1):
        alpha = float(2 ** aexp)
        w = 1.0 / alpha
        h = delta * alpha
        beta_max = int(math.floor(math.pi / (delta * alpha * alpha)))
        thetas = delta * alpha * alpha * np.arange(beta_max + 1)
        c, s = np.cos(thetas), np.sin(thetas)
        edges = np.stack([np.stack([0.5 * w * c, -0.5 * h * s], axis=-1),
                          np.stack([0.5 * w * s, 0.5 * h * c], axis=-1)], axis=-2)
        # a tile meeting the domain lies in the domain padded by its diameter
        diam = math.hypot(w, h)
        padded = (xmin - diam, ymin - diam, xmax + diam, ymax + diam)
        lo, hi = _region_bracket(phi.coeffs, edges, padded)
        sure = hi <= threshold
        maybe = ~sure & (lo <= threshold)
        betas = np.flatnonzero(sure | maybe)
        kept, dropped = _whole_comparability(
            a_z[0], b_z[0], thetas[betas], h / w, a_const, _slope_spread_bound(phi, padded))
        live = [int(b) for b in betas[~dropped]]
        grids = tile_grids(w, h, thetas[live], domain, alpha, live)
        for beta, whole, grid in zip(live, kept[~dropped], grids):
            if maybe[beta]:
                flat_vec = tiling_flatness(phi, grid, delta, a_const).flat
                if not flat_vec.any():
                    continue
                _refine_keep(grid, flat_vec)
            if not whole:
                comp = _comparability_keep(phi, grid, a_const)
                if not comp.any():
                    continue
                if not comp.all():
                    _refine_keep(grid, comp)
            groups.append(grid)
    return groups


def build_cover_hp(
    phi: BivariatePoly,
    delta: float,
    a_const: float = 4.0,
) -> FlatCover:
    """The anisotropic flat cover for a perturbed-saddle normal form.

    Enumerates dyadic aspects alpha in [1, delta^-1/2] and integer angle
    steps beta with tilt delta*alpha^2*beta up to pi, tiles the unit
    square by (1/alpha) x (delta*alpha) rectangles at that tilt, and
    keeps a tile iff it is flat at scale a_const*delta and comparable (two-sided
    containment after dilating by 2*a_const) to the candidate boxes
    anchored at nine sample points, along one null direction uniformly.
    Each aspect level takes one closed-form pass over all its angles,
    which keeps or drops tilings whole, and a per-tile pass on those it
    leaves in doubt: tilings whose flatness is uncertain, and those
    whose route extents lie too near 2A for the slope spread.

    Raises if ``phi`` is not in normal form, a_const is not finite and
    positive, or nothing survives.
    """
    _require_dyadic(delta)
    _require_a_const(a_const)
    err = _normal_form_error(phi)
    if err is not None:
        raise ValueError(f"phase not in perturbed-saddle normal form: {err}")
    groups = _build_hp_core(phi, delta, a_const, UNIT_SQUARE)
    if not groups:
        raise ValueError("empty cover: no tile passed; A is too small")
    return FlatCover(delta, a_const, [FramedGroups(None, groups)], kind="hp")


# -- profiles and verification -------------------------------------------


def _sample_points(domain: BBox, n: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = domain
    xs = xmin + (xmax - xmin) * (np.arange(n) + 0.5) / n
    ys = ymin + (ymax - ymin) * (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def overlap_profile(cover: FlatCover, n: int = 64) -> OverlapProfile:
    """Pointwise membership counts on an n x n sample grid."""
    if n < 64:
        raise ValueError(f"overlap profile needs n >= 64 samples per axis, got {n}")
    counts = cover.membership_counts(_sample_points(cover.domain, n))
    vals, freq = np.unique(counts, return_counts=True)
    return OverlapProfile(
        int(counts.max()),
        float(counts.mean()),
        int(counts.min()),
        {int(v): int(c) for v, c in zip(vals, freq)},
        int(counts.size),
    )


def _members_flatness(cover: FlatCover, phi: BivariatePoly, delta: float,
                     a_const: Optional[float]) -> Iterator[TilingFlatness]:
    """``tiling_flatness`` of each tiling of ``cover`` in member order,
    then one ``boxes_flatness`` of its loose members if it has any."""
    for part in cover.parts:
        for grid in part.groups:
            yield tiling_flatness(phi, grid, delta, a_const, part.frame)
    if cover.loose:
        yield boxes_flatness(phi, np.array([b.center for b in cover.loose], dtype=float),
                             np.array([b.edge_matrix for b in cover.loose], dtype=float),
                             delta, a_const)


def verify_cover(
    cover: FlatCover,
    phi: BivariatePoly,
    a_const: Optional[float] = None,
    n: int = 64,
) -> VerifyReport:
    """Re-certify flatness of every member, coverage at sample
    resolution, and the pointwise overlap bound, all at the cover's own
    delta and ``overlap_bound()``, sampling coverage and overlap on an
    n x n grid, n >= 64.

    Every member is decided by the certified bracket alone, tiling by
    tiling as ``tiling_flatness`` decides it (``_members_flatness``): a
    member is flat iff its upper end ``hi`` is at most ``a_const * delta``.
    ``worst_defect`` is the largest ``hi`` (NaN if any is), a certified
    upper bound on every member's defect, and ``min_a_flat =
    worst_defect / delta`` is the smallest A at which every member passes.
    """
    prof = overlap_profile(cover, n)
    delta = cover.delta
    a_const = cover.a_const if a_const is None else a_const
    worst, all_flat = -1.0, True
    for rep in _members_flatness(cover, phi, delta, a_const):
        all_flat = all_flat and bool(rep.flat.all())
        worst = float(np.max(rep.hi, initial=worst))  # a NaN end stays NaN
    bound = cover.overlap_bound()
    covers = prof.min >= 1
    overlap_ok = prof.max <= bound
    min_a = worst / delta if delta > 0 else math.inf
    return VerifyReport(all_flat, covers, overlap_ok, prof.max, bound, worst, min_a)


# -- the general construction ----------------------------------------------


def _det_range(phi: BivariatePoly, domain: BBox):
    """(certified min |det H|, sign at center) over the domain, via a
    17 x 17 sample grid padded by a Lipschitz bound."""
    n = 17
    det_poly = phi.hessian_det_poly()
    pts = _sample_points(domain, n)
    vals = np.asarray(det_poly.eval(pts[:, 0], pts[:, 1]))
    gx, gy = det_poly.diff(0), det_poly.diff(1)
    xmin, ymin, xmax, ymax = domain
    rx = max(abs(xmin), abs(xmax), 1.0)
    ry = max(abs(ymin), abs(ymax), 1.0)
    lip = sum(abs(a) * rx ** j * ry ** k for (j, k), a in gx.coeffs.items()) + sum(
        abs(a) * rx ** j * ry ** k for (j, k), a in gy.coeffs.items()
    )
    spacing = math.hypot((xmax - xmin) / n, (ymax - ymin) / n)
    pad = lip * spacing * 0.5
    if np.all(vals > pad):
        return float(vals.min() - pad), 1
    if np.all(vals < -pad):
        return float(-vals.max() - pad), -1
    return 0.0, 0


def _saddle_normalizer(phi: BivariatePoly) -> Tuple[AffineMap2, float, BivariatePoly]:
    """Linear map N, scale m and phi o N, with (phi o N)/m in saddle
    normal form: zero square coefficients and unit mixed coefficient.

    The null slopes are those of ``null_direction_fields`` at the origin,
    where the Hessian is (2 c20, c11; c11, 2 c02) exactly."""
    h11, h12, h22 = 2.0 * phi.coeff(2, 0), phi.coeff(1, 1), 2.0 * phi.coeff(0, 2)
    det = h11 * h22 - h12 * h12
    denom = h12 + math.sqrt(-det) if det < 0.0 else 0.0
    if denom == 0.0:
        if not det < 0:
            raise ValueError("saddle normalization needs det H < 0 for the quadratic part")
        # rotate a hair to break the degeneracy (pure anti-diagonal case)
        rot = AffineMap2.rotation(0.25)
        inner = compose_affine(phi, rot.matrix, rot.offset)
        n2, m2, _ = _saddle_normalizer(inner)
        nmap = rot.compose(n2)
        return nmap, m2, compose_affine(phi, nmap.matrix, nmap.offset)
    w = np.array([-(h22 / denom), 1.0])
    v = np.array([1.0, -(h11 / denom)])
    n_mat = np.column_stack([v / np.linalg.norm(v), w / np.linalg.norm(w)])
    composed = compose_affine(phi, n_mat, np.zeros(2))
    mixed = composed.coeff(1, 1)
    if mixed == 0.0:
        raise ValueError("degenerate quadratic part")
    return AffineMap2(tuple(map(tuple, n_mat))), float(mixed), composed


def _strip_1d_split(
    psi: BivariatePoly, target: float, a_const: float
) -> Optional[List[Tuple[float, float]]]:
    """Greedy maximal intervals I so that the strip I x [0,1] is flat at
    scale a_const*target for psi.  Intervals partition [0, 1].  None when
    a strip has no certified width: its bisection ends at length 0, so not
    even the strip 2^-40 of the remaining length wide is flat.

    ValueError past ``cap`` strips, and before any bisection where that
    is sure to come: when even the exact quadratic defect of a strip
    0.5/cap wide is above the threshold, every strip is narrower, so the
    split needs twice the cap; and when a strip 2^-40 wide is certified
    flat under the tail bound of the whole patch, which bounds every
    narrower strip's bracket, so no strip ends at length 0.
    """
    cap = 100000
    threshold = a_const * target
    wide, _ = quad_defect(psi.coeffs, axis_rectangle(0.0, 0.0, 0.5 / cap, 1.0).edge_matrix)
    thin = axis_rectangle(0.0, 0.0, 2.0 ** -40, 1.0).edge_matrix
    # the patch widened a hair: rounding can put a strip's corner past 1
    _, thin_hi = _region_bracket(psi.coeffs, thin, (0.0, 0.0, 1.0 + 2.0 ** -40, 1.0))
    too_steep = ValueError(f"strip split needs more than {cap} strips: the phase is too "
                           "steep for this delta")
    if wide > threshold and thin_hi <= threshold:
        raise too_steep
    out = []
    x0 = 0.0
    while x0 < 1.0 - 1e-12:
        lo_len, hi_len = 0.0, 1.0 - x0
        strip = axis_rectangle(x0, 0.0, x0 + hi_len, 1.0)
        if is_flat(psi, strip, target, a_const):
            out.append((x0, x0 + hi_len))
            break
        for _ in range(40):
            mid = 0.5 * (lo_len + hi_len)
            strip = axis_rectangle(x0, 0.0, x0 + mid, 1.0)
            if is_flat(psi, strip, target, a_const):
                lo_len = mid
            else:
                hi_len = mid
        if lo_len == 0.0:
            return None
        length = max(lo_len, 1e-6 * (1.0 - x0), 1e-9)
        out.append((x0, min(x0 + length, 1.0)))
        x0 += length
        if len(out) > cap:
            raise too_steep
    return out


def _cross_mass(coeffs) -> float:
    """Nonlinear cross-variable coefficient mass: the sum of |a_jk| over
    k >= 1, j + k >= 2, left to right in key order (per frame, for array
    entries; the builtin ``sum`` compensates float sums from Python 3.12)."""
    total = 0.0
    for (j, k), a in coeffs.items():
        if k >= 1 and j + k >= 2:
            total = total + abs(a)
    return total


def _rotation_residual(phi: BivariatePoly, theta: float) -> float:
    """``_cross_mass`` of phi rotated by theta."""
    rot = AffineMap2.rotation(theta)
    return _cross_mass(compose_affine(phi, rot.matrix, rot.offset).coeffs)


def _rotation_residuals(phi: BivariatePoly, thetas: np.ndarray) -> Tuple[np.ndarray, float]:
    """``_rotation_residual`` at every angle in one pass, and the margin
    above the batched minimum within which the batched value of the
    scalar scan's minimizer must lie.

    The pass is ``compose_affine``'s expansion on arrays of the angles'
    cosines and sines (``AffineMap2.rotation``'s).  A batched and a scalar
    value sum the same terms, a_jk times j + k rotation entries, up to
    order and exact zeros, so each is within gamma_K S of the exact
    residual at those entries (barring underflow): gamma_K = K eps /
    (1 - K eps), eps = 2^-53, S <= sum |a_jk| 2^((j+k)/2) the terms'
    absolute sum, and K the roundings on one term's path: 2 per power
    step, 1 + n per power product and again into the result, and one per
    residual summand, so K <= 2n + 2(n + 1) + (n+1)(n+2)/2 < (n + 4)^2, n
    the support degree.  The scalar minimizer's batched value is then
    within 4 gamma_K S of the batched minimum; the margin returned,
    16 K eps S with K = (n + 4)^2, has a factor 4 to spare for
    gamma_K > K eps and its own rounding.
    """
    c, s = (np.array([f(t) for t in thetas]) for f in (math.cos, math.sin))
    coeffs = _compose_coeffs(phi.coeffs, ((c, -s), (s, c)), (0.0, 0.0))
    residual = np.broadcast_to(_cross_mass(coeffs), c.shape)  # no cross terms: 0
    mass = sum(abs(a) * 2.0 ** (0.5 * (j + k)) for (j, k), a in phi.coeffs.items())
    return residual, 16.0 * (phi.support_degree() + 4) ** 2 * 2.0 ** -53 * mass


def _rotation_floor(phi: BivariatePoly, approx: np.ndarray, tol: float) -> float:
    """A certified lower bound on every value the scalar scan of
    ``_best_rotation`` can return, from the batched grid residuals
    ``approx`` and the margin ``tol`` of ``_rotation_residuals``:

        min(approx) - tol - (1/2) L dtheta (1 + 1e-9),

    with dtheta = pi/180 the grid step and
    L = sum over j + k >= 2 of |a_jk| (j + k) 2^((j+k)/2).

    * L bounds the slope of the exact residual R(theta).  With
      X = c u - s v and Y = s u + c v, dX/dtheta = -Y and dY/dtheta = X,
      so d/dtheta X^j Y^k = -j X^(j-1) Y^(k+1) + k X^(j+1) Y^(k-1).  The
      absolute coefficients of a product of m linear forms each summing
      to |c| + |s| <= sqrt 2 sum to at most 2^(m/2), so the rotated
      coefficients' derivatives have absolute sum <= L (terms of degree
      < 2 rotate into monomials the residual skips), and R, a sum of
      their absolute values, is L-Lipschitz.
    * The scan returns a scalar value at an angle of [-pi/2, pi/2], which
      lies within dtheta/2 of a grid angle.  Each scalar or batched value
      is within tol/4 of R at its angle's float cosine and sine (see
      ``_rotation_residuals``); those entries move R by O(L eps), and the
      grid angles sit within ulps of their exact places.  The factor
      1 + 1e-9 covers both, and the rounding of the bound itself.

    NaN in ``approx`` gives NaN, which rejects nothing.
    """
    lip = sum(abs(a) * (j + k) * 2.0 ** (0.5 * (j + k))
              for (j, k), a in phi.coeffs.items() if j + k >= 2)
    return float(approx.min()) - tol - 0.5 * lip * (math.pi / 180) * (1 + 1e-9)


def _best_rotation(phi: BivariatePoly, limit: float) -> Optional[Tuple[float, float]]:
    """Angle minimizing the nonlinear cross-variable coefficient mass,
    with that mass, or None when the mass is above ``limit``: the
    rotation route's acceptance test.

    181 grid angles over [-pi/2, pi/2] are scored in one batched pass.
    When ``_rotation_floor`` is above the limit, no angle can pass and
    the search stops there; a rejected route's angle is never read.
    Otherwise every angle whose batched residual lies within the
    rounding margin of ``_rotation_residuals`` above the batched minimum
    is re-scored by ``_rotation_residual``, and the first exact minimum
    among them wins.  The scalar minimizer is always among the re-scored
    angles, so the pick and its value are those of an argmin over the
    scalar scan.  A golden-section search between the grid neighbours
    then refines it.
    """
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 181)
    approx, tol = _rotation_residuals(phi, thetas)
    if _rotation_floor(phi, approx, tol) > limit:
        return None
    near = np.flatnonzero(~(approx > approx.min() + tol))  # NaN keeps every angle
    vals = [_rotation_residual(phi, t) for t in thetas[near]]
    best = int(np.argmin(vals))
    i = int(near[best])
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, len(thetas) - 1)]
    gold = (math.sqrt(5) - 1) / 2
    x1 = hi - gold * (hi - lo)
    x2 = lo + gold * (hi - lo)
    f1, f2 = _rotation_residual(phi, x1), _rotation_residual(phi, x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - gold * (hi - lo)
            f1 = _rotation_residual(phi, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + gold * (hi - lo)
            f2 = _rotation_residual(phi, x2)
    theta = x1 if f1 <= f2 else x2
    residual = float(min(f1, f2, vals[best]))
    return (float(theta), residual) if residual <= limit else None


def _stack(polys: List[BivariatePoly], keys) -> dict:
    """The coefficients ``keys`` of the polynomials as one array per key,
    0.0 where a polynomial has no such term."""
    return {e: np.array([p.coeffs.get(e, 0.0) for p in polys]) for e in keys}


def _groups(keys: Iterable) -> List[np.ndarray]:
    """Indices of equal keys, one array per distinct key."""
    out: dict = {}
    for n, key in enumerate(keys):
        out.setdefault(key, []).append(n)
    return [np.array(idx) for idx in out.values()]


def _patches_flat(psis: List[BivariatePoly], targets: np.ndarray, a_const: float) -> np.ndarray:
    """``is_flat`` of the unit square for each phase at its own target,
    bit for bit: one ``_bracket`` call per order of degree >= 3 monomials
    (the terms its tail bound sums in key order) with the phases stacked."""
    patch = axis_rectangle(*UNIT_SQUARE)
    tails = [tuple(e for e in p.coeffs if sum(e) >= 3) for p in psis]
    flat = np.zeros(len(psis), dtype=bool)
    for idx in _groups(tails):
        coeffs = _stack([psis[n] for n in idx], ((2, 0), (1, 1), (0, 2)) + tails[idx[0]])
        lo, hi, _ = _bracket(coeffs, patch.edge_matrix, np.tile(patch.center, (len(idx), 1)))
        flat[idx] = TilingFlatness(lo, hi, float(a_const) * targets[idx]).flat
    return flat


def _split_support(coeffs: dict):
    """Split a stack of polynomials by their nonzero terms: (slots, the
    stack of those slots without the terms that are zero there), so each
    part has the keys, in order, of its polynomials as ``BivariatePoly``
    keeps them."""
    keys = list(coeffs)
    nonzero = np.array([coeffs[e] != 0.0 for e in keys]).T
    for idx in _groups(map(bytes, nonzero)):
        yield idx, {e: coeffs[e][idx] for e, keep in zip(keys, nonzero[idx[0]]) if keep}


def _zoom_children(psis: List[BivariatePoly], zooms: List[AffineMap2],
                   norm: float) -> List[List[BivariatePoly]]:
    """For each phase, its normalized child under every zoom: the phase
    composed with the zoom, less its tangent plane at the centre (1/2, 1/2),
    times 1/norm, bit for bit as one ``compose_affine``,
    ``minus_tangent_plane`` and ``poly_scale`` call per child would give.

    The zooms share one matrix.  Children are composed in one
    ``_compose_coeffs`` pass per key tuple of the phases and zero pattern
    of the offsets, since the terms a zero offset drops change the order
    in which the composed terms appear; the tangent shift then runs once
    per key tuple of the composed children.
    """
    mat = zooms[0].matrix.tolist()
    jobs = [(n, z) for n in range(len(psis)) for z in range(len(zooms))]
    out: List[List[Optional[BivariatePoly]]] = [[None] * len(zooms) for _ in psis]
    for idx in _groups((tuple(psis[n].coeffs), zooms[z].off[0] == 0.0, zooms[z].off[1] == 0.0)
                       for n, z in jobs):
        group = [jobs[k] for k in idx]
        parents = [psis[n] for n, _ in group]
        offs = np.array([zooms[z].off for _, z in group])
        offset = [0.0 if offs[0, i] == 0.0 else offs[:, i] for i in (0, 1)]
        composed = _compose_coeffs(_stack(parents, parents[0].coeffs), mat, offset)
        for part, sub in _split_support(composed):
            shifted = {e: (1.0 / norm) * a for e, a in _minus_tangent_coeffs(sub, 0.5, 0.5).items()}
            for where, slot in enumerate(part):
                n, z = group[slot]
                out[n][z] = BivariatePoly(max(psis[n].degree, 1),
                                          {e: a[where] for e, a in shifted.items()})
    return out


def build_cover_general(
    phi: BivariatePoly,
    delta: float,
    a_const: float = 16.0,
) -> FlatCover:
    """Flat cover for an arbitrary polynomial phase.

    Recursive dichotomy: patches with certified Hessian determinant of
    one sign are normalized (saddle -> mixed normal form and the
    anisotropic construction; bowl -> square caps at the certified flat
    scale); degenerate patches are rotated so the phase is nearly a
    function of the first variable, split into maximal flat strips, and
    each strip is zoomed to unit scale and recursed; a patch that rotates
    badly, or has a strip with no certified width, is split into
    M x M squares, each zoomed and recursed.  ValueError is raised for
    an a_const that is not finite and positive, and for a phase too steep
    for delta: depth beyond 4*log_M(1/delta), with M = ``_M_CONST``, a
    strip split needing more than 100000 strips, or bowl caps flat at no
    dyadic side down to 2^-10.

    The recursion runs one depth at a time.  Every patch of a depth's
    frontier is the unit square in its own frame, so one stacked bracket
    decides them all flat or not (``_patches_flat``), and the M x M
    children of all its mixed patches are composed and normalized
    together (``_zoom_children``); saddle, bowl and rotation patches are
    handled one at a time, and their strips join the next frontier.  Each
    patch carries its path of child indices from the root, and members
    are emitted in path order: the order of a depth-first recursion.

    Every member is decided flat at scale a_const*delta as it is
    emitted, in its patch's frame, where the normalized phase has the
    defect of the original phase divided by the patch's scale, and
    every decision is the certified bracket's: a box is flat iff its
    upper end is at most the threshold, so no defect is sampled.  Flat
    patches and strips are decided by ``is_flat``'s bracket; saddle
    tilings by the anisotropic builder's closed-form prefilter, with
    ``tiling_flatness`` on its uncertain band; bowl tilings by
    ``tiling_flatness`` at the largest dyadic side whose every tile
    passes.  ``verify_cover`` re-decides them for the original phase by
    the same rule.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    _require_a_const(a_const)
    max_depth = max(8, int(4 * math.log(1.0 / delta) / math.log(_M_CONST)))
    side = 1.0 / _M_CONST
    f = side * side  # parabolic zoom normalizer
    zooms = [AffineMap2(((side, 0.0), (0.0, side)), (i * side, j * side))
             for i in range(_M_CONST) for j in range(_M_CONST)]
    parts: List[Tuple[tuple, FramedGroups]] = []
    loose: List[Tuple[tuple, Parallelogram]] = []

    def emit_groups(path: tuple, frame: Optional[AffineMap2], groups: List[TileGrid]) -> None:
        if groups:
            parts.append((path, FramedGroups(frame, groups)))

    def in_path_order(emitted: list) -> list:
        return [member for _, member in sorted(emitted, key=lambda item: item[0])]

    def curved_or_strips(path, frame, psi, scale, target, frontier) -> bool:
        """Handle a patch that is not flat, unless it is mixed: emit its
        saddle or bowl tilings or its strips, or queue its zoomed strips
        on ``frontier``.  False leaves the patch to the dichotomy."""
        min_det, sign = _det_range(psi, UNIT_SQUARE)
        if sign < 0 and min_det > 1.0 / _M_CONST:
            nmap, mixed, composed = _saddle_normalizer(psi)
            chi = poly_scale(composed, 1.0 / mixed)
            bbox = nmap.inverse().image_bbox(UNIT_SQUARE)
            groups = _build_hp_core(chi, target / abs(mixed), a_const, bbox)
            emit_groups(path, frame.compose(nmap), groups)
            return True
        if sign > 0 and min_det > 1.0 / _M_CONST:
            # bowl: square caps at the largest dyadic side whose whole
            # tiling is flat
            side = 1.0
            while True:
                grid = make_tile_grid(side, side, 0.0, alpha=1.0 / side, beta=0)
                if len(grid) > 1 << 20:
                    raise ValueError("bowl caps found no flat dyadic side: the phase "
                                     f"is too steep for delta={delta:g}")
                if tiling_flatness(psi, grid, target, a_const).flat.all():
                    break
                side *= 0.5
            emit_groups(path, frame, [grid])
            return True
        # degenerate patch: try the rotation route on the whole patch
        coeff_scale = max(
            (abs(a) for (j, k), a in psi.coeffs.items() if j + k >= 2), default=0.0
        )
        limit = max(1e-3 * max(coeff_scale, 1e-30), 0.25 * a_const * target)
        route = _best_rotation(psi, limit)
        if route is None:
            return False
        theta, residual = route
        rot = AffineMap2.rotation(theta)
        rotated = compose_affine(psi, rot.matrix, rot.offset)
        # rotated frame domain: bounding box of the rotated patch
        uxmin, uymin, uxmax, uymax = AffineMap2.rotation(-theta).image_bbox(UNIT_SQUARE)
        span = uxmax - uxmin
        unit = AffineMap2(((span, 0.0), (0.0, uymax - uymin)), (uxmin, uymin))
        local = compose_affine(rotated, unit.matrix, unit.offset)
        work = max(target, 2.0 * residual / a_const)
        pieces = _strip_1d_split(local, work, a_const)
        # without a certified strip width, fall through to the dichotomy
        if pieces is None:
            return False
        to_world = frame.compose(rot).compose(unit)
        if work <= target * (1 + 1e-9):
            for k, (x0, x1) in enumerate(pieces):
                loose.append((path + (k,), to_world.apply_box(axis_rectangle(x0, 0.0, x1, 1.0))))
            return True
        for k, (x0, x1) in enumerate(pieces):
            strip = axis_rectangle(x0, 0.0, x1, 1.0)
            zoom = AffineMap2(((x1 - x0, 0.0), (0.0, 1.0)), (x0, 0.0))
            sub = compose_affine(local, zoom.matrix, zoom.offset)
            lo, hi = flat_defect_interval(local, strip)
            norm = max(hi, target)
            sub_n = poly_scale(minus_tangent_plane(sub, 0.5, 0.5), 1.0 / norm)
            frontier.append((path + (k,), to_world.compose(zoom), sub_n, scale * norm))
        return True

    # (path, frame, phase, scale): every patch is the unit square in its
    # own frame, where the phase is the original one over the patch
    # divided by its scale
    patch = axis_rectangle(*UNIT_SQUARE)
    frontier = [((), AffineMap2.identity(), phi, 1.0)]
    depth = 0
    while frontier:
        if depth > max_depth:
            raise ValueError(f"cover recursion exceeded depth {max_depth}: the phase is "
                             f"too steep for delta={delta:g}")
        targets = np.array([delta / scale for _, _, _, scale in frontier])
        flat = _patches_flat([psi for _, _, psi, _ in frontier], targets, a_const)
        nxt: list = []
        mixed = []
        for (path, frame, psi, scale), target, ok in zip(frontier, targets.tolist(), flat):
            if ok:
                loose.append((path, frame.apply_box(patch)))
            elif not curved_or_strips(path, frame, psi, scale, target, nxt):
                mixed.append((path, frame, psi, scale))
        if mixed:
            kids = _zoom_children([psi for _, _, psi, _ in mixed], zooms, f)
            for (path, frame, _, scale), subs in zip(mixed, kids):
                for z, (zoom, sub) in enumerate(zip(zooms, subs)):
                    nxt.append((path + (z,), frame.compose(zoom), sub, scale * f))
        frontier = nxt
        depth += 1
    cover = FlatCover(delta, a_const, in_path_order(parts), in_path_order(loose), kind="general")
    if len(cover) == 0:
        raise ValueError("general cover came out empty")
    return cover
