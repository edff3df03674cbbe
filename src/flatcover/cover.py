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
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .flatness import (
    _require_a_const,
    flat_defect_interval,
    is_flat,
    null_direction_fields,
    null_directions,
    quad_defect,
    tail_bound,
    tiling_flatness,
)
from .geometry import (
    AffineMap2,
    BBox,
    Parallelogram,
    TileGrid,
    UNIT_SQUARE,
    axis_rectangle,
    make_tile_grid,
)
from .poly2 import BivariatePoly, compose_affine, minus_tangent_plane, poly_scale

# Patches split into _M_CONST x _M_CONST squares; saddle and bowl patches
# need |det H| > 1/_M_CONST; recursion depth is capped at 4*log_M(1/delta).
_M_CONST = 4

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

    def _cells(self) -> np.ndarray:
        return (self.ii - self.grid.i0) * self.grid.nj + (self.jj - self.grid.j0)

    def blocks(self) -> List[np.ndarray]:
        """Point indices of each tile that takes any, in member order."""
        key = self._cells()
        order = np.argsort(key, kind="stable")
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        return np.split(self.pidx[order], cuts) if len(key) else []

    def coords(self) -> np.ndarray:
        """Affine coordinates of each taken point in its tile."""
        return self.grid.tile_coords(self.local[self.pidx], self.ii, self.jj)

    def member_counts(self, ok: np.ndarray) -> np.ndarray:
        """Points taken by each kept tile, in member order, counting only
        the incidences flagged in ``ok``."""
        counts = np.bincount(self._cells()[ok], minlength=self.grid.ni * self.grid.nj)
        return counts if self.grid.keep is None else counts[self.grid.keep.ravel()]


def _as_tiling(box: Parallelogram) -> FramedGroups:
    """A loose member as the one tile of the unit square centered at the
    origin, behind the frame that maps it back onto the member exactly."""
    tile = make_tile_grid(1.0, 1.0, 0.0, (-0.5, -0.5, 0.5, 0.5), box.alpha, box.beta)
    return FramedGroups(AffineMap2(tuple(map(tuple, 2.0 * box.edge_matrix)), box.center),
                        [tile])


def _tiles_within(part: FramedGroups, grid: TileGrid, pts: np.ndarray, tol: float):
    """``grid.point_tiles`` at tol > 0 in world distance, tile by tile:
    the rule for tilings behind a frame that is not a similarity."""
    found = [(np.zeros(0, dtype=np.int64),) * 3]
    for i, j in grid.kept_indices():
        near = part.world_box(grid.tile(int(i), int(j))).distance(pts)
        k = np.flatnonzero(near <= tol * (1 + 1e-12))
        found.append((k, np.full(len(k), i), np.full(len(k), j)))
    return tuple(np.concatenate(a) for a in zip(*found))


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
        for part in self.tilings():
            for grid in part.groups:
                for tile in grid.tiles():
                    yield part.world_box(tile)

    def tilings(self) -> List[FramedGroups]:
        """The parts, then each loose member as a one-tile tiling."""
        return self.parts + [_as_tiling(box) for box in self.loose]

    def incidences(self, points, tol: Optional[float] = None) -> Iterator[Incidence]:
        """Which members take which points, one tiling (or loose member)
        at a time in ``iter_members`` order.

        ``tol`` is a world distance under ``TileGrid.point_tiles``' rules:
        None takes half-open cells (a tiling's outer boundary, so a whole
        loose member, closed), 0 the closed member with the slack of
        ``Parallelogram.contains``, tol > 0 every point within distance
        tol.  Behind a similarity frame tol > 0 becomes tol / scale; behind
        any other it is decided member by member in world distance.
        """
        if tol is not None and tol < 0:
            raise ValueError("tol must be non-negative")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        for part in self.tilings():
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
        """How many members take each point (``incidences`` at tol None)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts), dtype=np.int64)
        for inc in self.incidences(pts):
            out += np.bincount(inc.pidx, minlength=len(pts))
        return out

    def sample_members(self, rng: np.random.Generator, k: int) -> List[Parallelogram]:
        """k >= 1 members drawn uniformly (with replacement) from the family."""
        if k < 1:
            raise ValueError(f"member count must be at least 1, got {k}")
        handles = [(part, grid) for part in self.tilings() for grid in part.groups]
        cum = np.cumsum([len(grid) for _, grid in handles])
        total = int(cum[-1]) if len(cum) else 0
        if total == 0:
            raise ValueError("cover has no members")
        kept = {}  # slot -> kept_indices(), computed once per drawn grid
        out = []
        for r in rng.integers(0, total, size=k):
            slot = int(np.searchsorted(cum, r, side="right"))
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
        try:
            parts = []
            for prec in obj.get("parts", []):
                frame = None
                if prec.get("frame") is not None:
                    frame = AffineMap2(
                        tuple(map(tuple, prec["frame"]["matrix"])),
                        tuple(prec["frame"]["offset"]),
                    )
                groups = []
                for rec in prec["groups"]:
                    grid = TileGrid(
                        float(rec["w"]), float(rec["h"]), float(rec["theta"]),
                        (float(rec["anchor"][0]), float(rec["anchor"][1])),
                        int(rec["i0"]), int(rec["i1"]),
                        int(rec["j0"]), int(rec["j1"]),
                        domain=tuple(rec["domain"]),
                        alpha=rec.get("alpha"), beta=rec.get("beta"),
                    )
                    if rec.get("drop"):
                        keep = np.ones((grid.ni, grid.nj), dtype=bool)
                        for i, j in rec["drop"]:
                            keep[int(i) - grid.i0, int(j) - grid.j0] = False
                        grid.keep = keep
                    groups.append(grid)
                parts.append(FramedGroups(frame, groups))
            loose = [Parallelogram.from_json_dict(m) for m in obj.get("loose", [])]
            _require_a_const(float(obj["A"]))
            return FlatCover(
                float(obj["delta"]),
                float(obj["A"]),
                parts=parts,
                loose=loose,
                kind=obj.get("kind", "generic"),
                domain=tuple(obj.get("domain", UNIT_SQUARE)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
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
    if delta <= 0 or delta > 1:
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


def _route_extents(a_f: np.ndarray, b_f: np.ndarray, theta: float, r: float) -> np.ndarray:
    """The comparability rule's arithmetic for tiles at angle ``theta``
    with aspect r = h/w, from the null-direction slopes (a, b) at their
    nine anchors, each (n, 9).  Returns an (n, 2) array: per tile and
    route ("w", "v"), the largest absolute coordinate of (i) a candidate
    vertex in the tile's half-edge frame and (ii) a tile vertex in the
    candidate's, over all nine anchors.  The route is comparable iff
    that extent is at most 2A (NaN compares false).

    The candidate box is congruent to the tile, with half sides w/2
    along the unit null direction and h/2 across it.  With (c, s) that
    direction in the tile's axes and o the anchor offset in half edges,
    (i) has coordinates (o1 + s1 c - s2 r s, o2 + s1 s/r + s2 c) and (ii)
    (t1 c + t2 r s, t2 c - t1 s/r) with t = sign - o, for vertex signs
    s1, s2 = +-1.  Their largest absolute values are

        max(|o1|, |o1 c + o2 r s|) + |c| + r|s|        (long sides)
        max(|o2|, |o2 c - o1 s/r|) + |c| + |s|/r       (short sides).
    """
    ct, st = math.cos(theta), math.sin(theta)
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


def _comparability_keep(phi: BivariatePoly, grid: TileGrid, a_const: float) -> np.ndarray:
    """Comparability, decided per tiling: a tile is kept iff, along one
    null-direction route ("w" or "v"), the candidate boxes anchored at
    all nine anchor points are two-sidedly comparable to the tile (each
    inside the other dilated by 2A).  Returns a boolean vector over the
    kept tiles.

    The slopes at every anchor come from one ``null_direction_fields``
    call, and ``_route_extents`` reads a tile only through them, so tiles
    with equal slopes get bit-equal decisions.  Tile 0's extents decide
    the whole tiling when all anchors are valid and, per route, its
    margin to 2A exceeds err = K (D + 32u), where r = h/w <= 1,
    K = 2(1 + 1/r), u = 2^-53 and D is the largest slope difference from
    tile 0 at the same anchor:

    * The null direction's angle is 1-Lipschitz in the slope, (c, s) is
      1-Lipschitz in the angle, and each extent term moves by at most
      2(|dc| + |ds|/r); so exact extents of two tiles differ by <= K D.
    * c and s are formed with absolute error <= 5u.  The terms are at
      most 1 + 1/r, s/r carries 6u/r, and each sum rounds once more, so
      a computed extent is within 14u + 16u/r <= 8uK of its exact value.
      Two tiles take 16uK; the other 16uK covers rounding in err, in
      the comparisons with 2A (extents are <= K) and at second order.

    Otherwise (a near-tie, an invalid anchor, slopes that vary too much)
    ``_route_extents`` runs on every tile.
    """
    ct, st = math.cos(grid.theta), math.sin(grid.theta)
    e1 = 0.5 * grid.w * np.array([ct, st])
    e2 = 0.5 * grid.h * np.array([-st, ct])
    z = grid.centers()[:, None, :] + _NINE_OFFSETS[:, :1] * e1 + _NINE_OFFSETS[:, 1:] * e2
    fields = null_direction_fields(phi, z.reshape(-1, 2))
    a_f, b_f, valid = (v.reshape(z.shape[:2]) for v in fields)
    r = grid.h / grid.w
    lim = 2.0 * a_const * (1.0 + 1e-9)
    if len(z) and valid.all():
        ext = _route_extents(a_f[:1], b_f[:1], grid.theta, r)[0]
        spread = np.array([np.abs(a_f - a_f[0]).max(), np.abs(b_f - b_f[0]).max()])
        err = 2.0 * (1.0 + 1.0 / r) * (spread + 32.0 * 2.0 ** -53)
        if np.any(ext + err < lim):
            return np.ones(len(z), dtype=bool)
        if np.all(ext - err > lim):
            return np.zeros(len(z), dtype=bool)
    ext = _route_extents(a_f, b_f, grid.theta, r)
    return np.any(ext <= lim, axis=1) & valid.all(axis=1)


def _refine_keep(grid: TileGrid, keep_vec: np.ndarray) -> None:
    """Restrict the grid's keep mask to the tiles flagged in keep_vec
    (ordered as kept_indices())."""
    idx = grid.kept_indices()
    mask = np.zeros((grid.ni, grid.nj), dtype=bool)
    sel = idx[keep_vec]
    mask[sel[:, 0] - grid.i0, sel[:, 1] - grid.j0] = True
    grid.keep = mask


def _build_hp_core(
    phi: BivariatePoly,
    delta: float,
    a_const: float,
    domain: BBox,
) -> List[TileGrid]:
    """Angle/aspect enumeration behind build_cover_hp.

    Assumes the quadratic part of ``phi`` is the saddle normal form
    (mixed coefficient 1, no square terms beyond the class bound).  Per
    aspect, the quadratic part's closed-form defect at every angle plus
    a domain-wide tail bound sorts the tilings into sure, maybe and
    rejected.  A maybe tiling keeps the tiles ``tiling_flatness`` finds
    flat.  Each candidate box is congruent to its tile, so
    ``_comparability_keep`` decides comparability from the null
    direction's angle in the tile's axes alone: once per tiling when the
    slopes barely vary, tile by tile otherwise.
    """
    amax = int(math.floor(math.log2(delta ** -0.5) + 1e-9))
    groups: List[TileGrid] = []
    threshold = a_const * delta
    xmin, ymin, xmax, ymax = domain
    for aexp in range(amax + 1):
        alpha = float(2 ** aexp)
        w = 1.0 / alpha
        h = delta * alpha
        beta_max = int(math.floor(math.pi / (delta * alpha * alpha)))
        thetas = delta * alpha * alpha * np.arange(beta_max + 1)
        c, s = np.cos(thetas), np.sin(thetas)
        edges = np.stack([np.stack([0.5 * w * c, -0.5 * h * s], axis=-1),
                          np.stack([0.5 * w * s, 0.5 * h * c], axis=-1)], axis=-2)
        q, _ = quad_defect(phi, edges)
        # a tile meeting the domain lies in the domain padded by its diameter
        diam = math.hypot(w, h)
        rem = tail_bound(phi, (xmin - diam, ymin - diam, xmax + diam, ymax + diam), edges)
        sure = q + rem <= threshold
        maybe = (~sure) & (q - rem <= threshold)
        for beta in np.flatnonzero(sure | maybe):
            theta = float(thetas[beta])
            grid = make_tile_grid(w, h, theta, domain, alpha=alpha, beta=int(beta))
            if maybe[beta]:
                flat_vec = tiling_flatness(phi, grid, delta, a_const).flat
                if not flat_vec.any():
                    continue
                _refine_keep(grid, flat_vec)
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
    A tile's comparability depends only on the null slopes at its
    anchors, so the tilings of xy, where they are constant, come out
    all kept or all dropped.

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
        raise ValueError("overlap profile needs n >= 64")
    counts = cover.membership_counts(_sample_points(cover.domain, n))
    vals, freq = np.unique(counts, return_counts=True)
    return OverlapProfile(
        int(counts.max()),
        float(counts.mean()),
        int(counts.min()),
        {int(v): int(c) for v, c in zip(vals, freq)},
        int(counts.size),
    )


def verify_cover(
    cover: FlatCover,
    phi: BivariatePoly,
    a_const: Optional[float] = None,
    n: int = 64,
) -> VerifyReport:
    """Re-certify flatness of every member, coverage at sample
    resolution, and the pointwise overlap bound, all at the cover's own
    delta and ``overlap_bound()``.

    Each tiling, and each loose member as a one-tile tiling, is decided
    by ``tiling_flatness``'s certified bracket alone: a member is flat iff
    its upper end ``hi`` is at most ``a_const * delta``.  ``worst_defect``
    is the largest ``hi``, a certified upper bound on every member's
    defect, and ``min_a_flat = worst_defect / delta`` is the smallest A at
    which every member passes.
    """
    delta = cover.delta
    a_const = cover.a_const if a_const is None else a_const
    worst = -1.0
    all_flat = True
    for part in cover.tilings():
        for grid in part.groups:
            rep = tiling_flatness(phi, grid, delta, a_const, part.frame)
            if len(rep.hi) == 0:
                continue
            all_flat = all_flat and bool(rep.flat.all())
            worst = max(worst, float(rep.hi.max()))
    prof = overlap_profile(cover, max(n, 64))
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


def _saddle_normalizer(phi: BivariatePoly) -> Tuple[AffineMap2, float]:
    """Linear map N and scale m with (phi o N)/m in saddle normal form:
    zero square coefficients and unit mixed coefficient."""
    a, b, valid = null_direction_fields(phi, (0.0, 0.0))
    if not valid[0]:
        h = phi.hessian(0.0, 0.0)
        if not h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0] < 0:
            raise ValueError("saddle normalization needs det H < 0 for the quadratic part")
        # rotate a hair to break the degeneracy (pure anti-diagonal case)
        rot = AffineMap2.rotation(0.25)
        inner = compose_affine(phi, rot.matrix, rot.offset)
        n2, m2 = _saddle_normalizer(inner)
        return rot.compose(n2), m2
    w = np.array([-a[0], 1.0])
    v = np.array([1.0, -b[0]])
    n_mat = np.column_stack([v / np.linalg.norm(v), w / np.linalg.norm(w)])
    composed = compose_affine(phi, n_mat, np.zeros(2))
    mixed = composed.coeff(1, 1)
    if mixed == 0.0:
        raise ValueError("degenerate quadratic part")
    return AffineMap2(tuple(map(tuple, n_mat))), float(mixed)


def _strip_1d_split(
    psi: BivariatePoly, target: float, a_const: float
) -> List[Tuple[float, float]]:
    """Greedy maximal intervals I so that the strip I x [0,1] is flat at
    scale a_const*target for psi.  Intervals partition [0, 1]."""
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
        length = max(lo_len, 1e-6 * (1.0 - x0), 1e-9)
        out.append((x0, min(x0 + length, 1.0)))
        x0 += length
        if len(out) > 100000:
            raise RuntimeError("strip split did not terminate")
    return out


def _rotation_residual(phi: BivariatePoly, theta: float) -> float:
    rot = AffineMap2.rotation(theta)
    rotated = compose_affine(phi, rot.matrix, rot.offset)
    total = 0.0
    for (j, k), a in rotated.coeffs.items():
        if k >= 1 and j + k >= 2:
            total += abs(a)
    return total


def _best_rotation(phi: BivariatePoly) -> Tuple[float, float]:
    """Angle minimizing the nonlinear cross-variable coefficient mass."""
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 181)
    vals = [_rotation_residual(phi, t) for t in thetas]
    i = int(np.argmin(vals))
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
    return float(theta), float(min(f1, f2, vals[i]))


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
    each strip is zoomed to unit scale and recursed.  Depth beyond
    4*log_M(1/delta) raises, with M = ``_M_CONST``, and so does an
    a_const that is not finite and positive.

    Every member is decided flat at scale a_const*delta as it is
    emitted, in its patch's frame, where the normalized phase has the
    defect of the original phase divided by the patch's scale, and
    every decision is the certified bracket's: a box is flat iff its
    upper end is at most the threshold, so no defect is sampled.  Flat
    patches and strips are decided by ``is_flat``; saddle tilings by the
    anisotropic builder's closed-form prefilter, with ``tiling_flatness``
    on its uncertain band; bowl tilings by ``tiling_flatness`` at the
    largest dyadic side whose every tile passes.  ``verify_cover``
    re-decides them for the original phase by the same rule.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    _require_a_const(a_const)
    max_depth = max(8, int(4 * math.log(1.0 / delta) / math.log(_M_CONST)))
    cover = FlatCover(delta, a_const, [], [], kind="general")

    def emit_groups(frame: Optional[AffineMap2], groups: List[TileGrid]) -> None:
        if groups:
            cover.parts.append(FramedGroups(frame, groups))

    def emit_leaf(box: Parallelogram) -> None:
        cover.loose.append(box)

    # every patch is the unit square in its own frame
    patch = axis_rectangle(*UNIT_SQUARE)

    def process(frame: AffineMap2, psi: BivariatePoly, scale: float, depth: int) -> None:
        if depth > max_depth:
            raise RuntimeError(f"cover recursion exceeded depth {max_depth}")
        target = delta / scale
        if is_flat(psi, patch, target, a_const):
            emit_leaf(frame.apply_box(patch))
            return
        min_det, sign = _det_range(psi, UNIT_SQUARE)
        if sign < 0 and min_det > 1.0 / _M_CONST:
            nmap, mixed = _saddle_normalizer(psi)
            chi = poly_scale(compose_affine(psi, nmap.matrix, nmap.offset), 1.0 / mixed)
            bbox = nmap.inverse().image_bbox(UNIT_SQUARE)
            groups = _build_hp_core(chi, target / abs(mixed), a_const, bbox)
            emit_groups(frame.compose(nmap), groups)
            return
        if sign > 0 and min_det > 1.0 / _M_CONST:
            # bowl: square caps at the largest dyadic side whose whole
            # tiling is flat
            side = 1.0
            while True:
                grid = make_tile_grid(side, side, 0.0, alpha=1.0 / side, beta=0)
                if len(grid) > 1 << 20:
                    raise RuntimeError("bowl caps found no flat dyadic side")
                if tiling_flatness(psi, grid, target, a_const).flat.all():
                    break
                side *= 0.5
            emit_groups(frame, [grid])
            return
        # degenerate patch: try the rotation route on the whole patch
        theta, residual = _best_rotation(psi)
        coeff_scale = max(
            (abs(a) for (j, k), a in psi.coeffs.items() if j + k >= 2), default=0.0
        )
        if residual <= max(1e-3 * max(coeff_scale, 1e-30), 0.25 * a_const * target):
            rot = AffineMap2.rotation(theta)
            rotated = compose_affine(psi, rot.matrix, rot.offset)
            # rotated frame domain: bounding box of the rotated patch
            uxmin, uymin, uxmax, uymax = AffineMap2.rotation(-theta).image_bbox(UNIT_SQUARE)
            span = uxmax - uxmin
            unit = AffineMap2(((span, 0.0), (0.0, uymax - uymin)), (uxmin, uymin))
            local = compose_affine(rotated, unit.matrix, unit.offset)
            work = max(target, 2.0 * residual / a_const)
            pieces = _strip_1d_split(local, work, a_const)
            to_world = frame.compose(rot).compose(unit)
            if work <= target * (1 + 1e-9):
                for (x0, x1) in pieces:
                    emit_leaf(to_world.apply_box(axis_rectangle(x0, 0.0, x1, 1.0)))
                return
            for (x0, x1) in pieces:
                strip = axis_rectangle(x0, 0.0, x1, 1.0)
                zoom = AffineMap2(((x1 - x0, 0.0), (0.0, 1.0)), (x0, 0.0))
                sub = compose_affine(local, zoom.matrix, zoom.offset)
                lo, hi = flat_defect_interval(local, strip)
                norm = max(hi, target)
                sub_n = poly_scale(minus_tangent_plane(sub, 0.5, 0.5), 1.0 / norm)
                process(to_world.compose(zoom), sub_n, scale * norm, depth + 1)
            return
        # mixed patch: curved/flat square dichotomy, zoom each square
        side = 1.0 / _M_CONST
        f = side * side  # parabolic zoom normalizer
        for i in range(_M_CONST):
            for j in range(_M_CONST):
                zoom = AffineMap2(((side, 0.0), (0.0, side)), (i * side, j * side))
                sub = compose_affine(psi, zoom.matrix, zoom.offset)
                sub_n = poly_scale(minus_tangent_plane(sub, 0.5, 0.5), 1.0 / f)
                process(frame.compose(zoom), sub_n, scale * f, depth + 1)

    process(AffineMap2.identity(), phi, 1.0, 0)
    if len(cover) == 0:
        raise ValueError("general cover came out empty")
    return cover
