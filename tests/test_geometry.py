import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatcover.geometry import (
    _CONTAIN_TOL,
    AffineMap2,
    Parallelogram,
    axis_rectangle,
    comparable,
    dilate,
    domain_masks,
    make_tile_grid,
    rotated_rectangle,
    tile_grids,
    tile_ranges,
)


def area(box):
    return 4.0 * abs(float(np.linalg.det(box.edge_matrix)))


def test_axis_rectangle_basics():
    box = axis_rectangle(0.1, 0.2, 0.6, 0.4)
    assert box.center == pytest.approx((0.35, 0.3))
    assert box.side_lengths() == pytest.approx((0.5, 0.2))
    assert area(box) == pytest.approx(0.1)
    assert box.diameter() == pytest.approx(math.hypot(0.5, 0.2))
    v = box.vertices()
    assert v[:, 0].min() == pytest.approx(0.1)
    assert v[:, 1].max() == pytest.approx(0.4)


def test_rotated_rectangle_geometry():
    theta = 0.3
    box = rotated_rectangle((0.5, 0.5), 0.4, 0.1, theta)
    assert box.side_lengths() == pytest.approx((0.4, 0.1))
    assert area(box) == pytest.approx(0.04)
    # e1 points along theta
    assert math.atan2(box.e1[1], box.e1[0]) == pytest.approx(theta)
    # vertices land where rotating an axis box would put them
    c = np.array([0.5, 0.5])
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    corner = c + rot @ np.array([0.2, 0.05])
    assert np.min(np.linalg.norm(box.vertices() - corner, axis=1)) < 1e-12


def test_affine_coords_and_contains():
    box = rotated_rectangle((0.0, 0.0), 2.0, 1.0, 0.7)
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, size=(50, 2))
    pts = np.asarray(box.center) + t[:, :1] * box.e1 + t[:, 1:] * box.e2
    np.testing.assert_allclose(box.affine_coords(pts), t, atol=1e-12)
    assert box.contains(pts).all()
    far = np.asarray(box.center) + 1.01 * (np.asarray(box.e1) + np.asarray(box.e2))
    assert not box.contains(far[None, :])[0]


def test_dilate_scales_area():
    box = rotated_rectangle((0.3, 0.4), 0.5, 0.2, 1.1)
    big = dilate(box, 3.0)
    assert big.center == box.center
    assert area(big) == pytest.approx(9.0 * area(box))
    assert big.contains(np.array([box.vertices()[2]]))[0]


def test_comparable_detects_shape_mismatch():
    a = axis_rectangle(0.0, 0.0, 0.2, 0.2)
    b = axis_rectangle(0.05, 0.05, 0.25, 0.25)
    thin = axis_rectangle(0.0, 0.0, 1.0, 0.01)
    assert comparable(a, b, 4.0)
    assert not comparable(a, thin, 1.5)


def test_affine_map_round_trip():
    m = AffineMap2(((0.8, -0.4), (0.3, 1.1)), (0.2, -0.5))
    pts = np.random.default_rng(9).normal(size=(30, 2))
    back = m.inverse().apply(m.apply(pts))
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_affine_map_compose_matches_sequential():
    outer = AffineMap2.rotation(0.4)
    inner = AffineMap2(((2.0, 0.0), (0.0, 0.5)), (0.1, 0.1))
    pts = np.random.default_rng(2).normal(size=(10, 2))
    both = outer.compose(inner).apply(pts)
    seq = outer.apply(inner.apply(pts))
    np.testing.assert_allclose(both, seq, atol=1e-12)


def test_affine_map_on_boxes_preserves_area_ratio():
    m = AffineMap2(((1.5, 0.2), (-0.1, 0.8)), (0.0, 0.3))
    det = abs(1.5 * 0.8 - 0.2 * (-0.1))
    box = rotated_rectangle((0.2, 0.7), 0.3, 0.1, 0.25)
    assert area(m.apply_box(box)) == pytest.approx(det * area(box))


def test_rotation_map_is_orthogonal():
    r = AffineMap2.rotation(1.2)
    mat = r.matrix
    np.testing.assert_allclose(mat.T @ mat, np.eye(2), atol=1e-14)


def test_tile_grid_partitions_unit_square():
    grid = make_tile_grid(0.25, 0.125, 0.0)
    tiles = list(grid.tiles())
    assert len(tiles) == 4 * 8
    total = sum(area(t) for t in tiles)
    assert total == pytest.approx(1.0)
    # every interior point sits in exactly one half-open tile
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.001, 0.999, size=(300, 2))
    counts = grid.count_points(pts)
    np.testing.assert_array_equal(counts, 1)
    member = np.zeros(len(pts), dtype=int)
    for t in tiles:
        x = t.affine_coords(pts)
        member += np.all((x >= -1.0) & (x < 1.0), axis=1)
    np.testing.assert_array_equal(member, 1)


def test_tile_grid_count_points_matches_cells():
    grid = make_tile_grid(0.2, 0.3, 0.0, (0.0, 0.0, 1.0, 1.0))
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 1, size=(500, 2))
    counts = grid.count_points(pts)
    cells = np.floor(pts / [0.2, 0.3])
    inside = (
        (cells[:, 0] >= grid.i0) & (cells[:, 0] < grid.i1)
        & (cells[:, 1] >= grid.j0) & (cells[:, 1] < grid.j1)
    )
    np.testing.assert_array_equal(counts, inside.astype(counts.dtype))


def test_tile_grid_point_tiles_agree_with_tile_membership():
    grid = make_tile_grid(0.21, 0.17, 0.35, (0.0, 0.0, 1.0, 1.0))
    grid.keep = None
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.1, 0.9, size=(60, 2))
    pidx, ii, jj = grid.point_tiles(pts)
    np.testing.assert_array_equal(pidx, np.arange(len(pts)))
    for i, j, p in zip(ii, jj, pts):
        tile = grid.tile(int(i), int(j))
        x = tile.affine_coords(p[None, :])[0]
        assert np.all(np.abs(x) <= 1.0 + 1e-9)


def _brute_point_tiles(grid, pts, tol):
    """(point, i, j) triples from a per-tile check on each Parallelogram:
    half-open containment with the outer boundary closed (tol None), or
    distance to the closed tile at most tol."""
    out = set()
    for i, j in grid.kept_indices():
        tile = grid.tile(int(i), int(j))
        x = tile.affine_coords(pts)
        if tol is None:
            last = (i == grid.i1 - 1, j == grid.j1 - 1)
            hit = np.all([(x[:, k] >= -1.0) & ((x[:, k] < 1.0) | last[k] & (x[:, k] <= 1.0))
                          for k in (0, 1)], axis=0)
        else:
            a, b = 0.5 * grid.w, 0.5 * grid.h
            dx = a * np.maximum(np.abs(x[:, 0]) - 1.0, 0.0)
            dy = b * np.maximum(np.abs(x[:, 1]) - 1.0, 0.0)
            hit = np.hypot(dx, dy) <= tol * (1 + 1e-12)
        out.update((int(k), int(i), int(j)) for k in np.flatnonzero(hit))
    return out


def _kernel_triples(grid, pts, tol):
    pidx, ii, jj = grid.point_tiles(pts, tol)
    triples = list(zip(pidx.tolist(), ii.tolist(), jj.tolist()))
    assert len(triples) == len(set(triples))
    return set(triples)


@settings(max_examples=60)
@given(
    a=st.integers(1, 3), b=st.integers(1, 4),
    tol_kind=st.sampled_from(["sharp", "zero", "w", "h", "random"]),
    tol_random=st.floats(0.01, 0.6),
    masked=st.booleans(), seed=st.integers(0, 2 ** 16),
)
def test_point_tiles_matches_per_tile_check_on_lattice_points(a, b, tol_kind, tol_random,
                                                              masked, seed):
    """Axis grids with dyadic sides: lattice points on cell edges, at
    corners and at centers are exact, so every boundary case is decided
    the same way by the kernel and by the per-tile check."""
    w, h = 2.0 ** -a, 2.0 ** -b
    grid = make_tile_grid(w, h, 0.0)
    rng = np.random.default_rng(seed)
    if masked:
        grid.keep = rng.random((grid.ni, grid.nj)) < 0.6
    k, l = np.meshgrid(np.arange(-2, 2 * grid.ni + 3), np.arange(-2, 2 * grid.nj + 3),
                       indexing="ij")
    pts = np.column_stack([k.ravel() * (w / 2), l.ravel() * (h / 2)])
    pts = np.concatenate([pts, rng.uniform(-0.2, 1.2, size=(40, 2))])
    tol = {"sharp": None, "zero": 0.0, "w": w, "h": h, "random": tol_random}[tol_kind]
    assert _kernel_triples(grid, pts, tol) == _brute_point_tiles(grid, pts, tol)


@settings(max_examples=40)
@given(
    w=st.floats(0.15, 0.5), h=st.floats(0.1, 0.3), theta=st.floats(0.0, math.pi),
    tol_kind=st.sampled_from(["w", "h", "random"]),
    tol_random=st.floats(0.005, 0.4),
    clip=st.booleans(), masked=st.booleans(), seed=st.integers(0, 2 ** 16),
)
def test_point_tiles_matches_per_tile_check_on_rotated_grids(w, h, theta, tol_kind,
                                                             tol_random, clip, masked,
                                                             seed):
    """Rotated grids, with the domain clip mask or a random keep mask:
    random points plus every tile vertex, whose distance to the tiles
    two cells away is a tile side.  Vertices are not exactly on the
    kernel's cell edges, so sharp and zero-distance rules, which have no
    slack, are checked on the random points only."""
    grid = make_tile_grid(w, h, theta)
    if not clip:
        grid.keep = None
    rng = np.random.default_rng(seed)
    if masked:
        grid.keep = rng.random((grid.ni, grid.nj)) < 0.6
    verts = np.concatenate([t.vertices() for t in grid.tiles()] or [np.zeros((0, 2))])
    generic = rng.uniform(-0.2, 1.2, size=(150, 2))
    pts = np.concatenate([verts, generic])
    tol = {"w": w, "h": h, "random": tol_random}[tol_kind]
    assert _kernel_triples(grid, pts, tol) == _brute_point_tiles(grid, pts, tol)
    for sharp in (None, 0.0):
        assert _kernel_triples(grid, generic, sharp) == _brute_point_tiles(grid, generic, sharp)


def test_point_tiles_at_a_huge_tol_pairs_every_point_with_every_kept_tile(time_limit):
    """Only offsets that can land a point's cell in the index range are
    tried, so a tol far beyond the grid costs no more than the grid."""
    grid = make_tile_grid(0.25, 0.125, 0.4)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, size=(30, 2))
    with time_limit(10):
        got = _kernel_triples(grid, pts, 1e6)
        empty = grid.point_tiles(np.zeros((0, 2)), 1e6)
    kept = grid.kept_indices().tolist()
    assert got == {(p, i, j) for p in range(len(pts)) for i, j in kept}
    assert all(len(a) == 0 for a in empty)


def _offset_loop_point_tiles(grid, points, tol):
    """``point_tiles`` at tol >= 0 as one pass over all points per (di, dj)
    offset within reach: the order oracle for the candidate lookup."""
    fx, fy = grid._frame_coords(points)
    ci = np.floor(fx / grid.w).astype(np.int64)
    cj = np.floor(fy / grid.h).astype(np.int64)
    reach_i = int(math.floor(tol / grid.w * (1 + 1e-9))) + 1
    reach_j = int(math.floor(tol / grid.h * (1 + 1e-9))) + 1
    slack = 0.5 * _CONTAIN_TOL if tol == 0 else 0.0
    lo_i, hi_i = (int(ci.min()), int(ci.max())) if len(ci) else (grid.i1, grid.i0)
    lo_j, hi_j = (int(cj.min()), int(cj.max())) if len(cj) else (grid.j1, grid.j0)
    found = [(ci[:0],) * 3]
    for di in range(max(-reach_i, grid.i0 - hi_i), min(reach_i, grid.i1 - 1 - lo_i) + 1):
        ii = ci + di
        dx = np.maximum(np.maximum(ii * grid.w - fx, fx - (ii + 1) * grid.w)
                        - slack * grid.w, 0.0)
        for dj in range(max(-reach_j, grid.j0 - hi_j), min(reach_j, grid.j1 - 1 - lo_j) + 1):
            jj = cj + dj
            dy = np.maximum(np.maximum(jj * grid.h - fy, fy - (jj + 1) * grid.h)
                            - slack * grid.h, 0.0)
            k = np.flatnonzero((dx * dx + dy * dy) <= tol * tol * (1 + 1e-12))
            found.append((k, ii[k], jj[k]))
    pidx, ii, jj = (np.concatenate(a) for a in zip(*found))
    ok = (ii >= grid.i0) & (ii < grid.i1) & (jj >= grid.j0) & (jj < grid.j1)
    if grid.keep is not None:
        sel = np.flatnonzero(ok)
        ok[sel] = grid.keep[ii[sel] - grid.i0, jj[sel] - grid.j0]
    return pidx[ok], ii[ok], jj[ok]


def _assert_same_triples(grid, pts, tol):
    got, want = grid.point_tiles(pts, tol), _offset_loop_point_tiles(grid, pts, tol)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=60)
@given(
    a=st.integers(1, 3), b=st.integers(1, 4),
    tol_kind=st.sampled_from(["zero", "w", "h", "random"]),
    tol_random=st.floats(0.0, 1.5), masked=st.booleans(), seed=st.integers(0, 2 ** 16),
)
def test_point_tiles_keeps_the_offset_order_on_axis_grids(a, b, tol_kind, tol_random, masked,
                                                          seed):
    """Dyadic axis grids, with lattice points on every edge, corner and
    center: the same (point, i, j) arrays as the offset loop, in its order
    (column offset, row offset, point)."""
    w, h = 2.0 ** -a, 2.0 ** -b
    grid = make_tile_grid(w, h, 0.0)
    rng = np.random.default_rng(seed)
    if masked:
        grid.keep = rng.random((grid.ni, grid.nj)) < 0.6
    k, l = np.meshgrid(np.arange(-2, 2 * grid.ni + 3), np.arange(-2, 2 * grid.nj + 3),
                       indexing="ij")
    pts = np.column_stack([k.ravel() * (w / 2), l.ravel() * (h / 2)])
    pts = rng.permutation(np.concatenate([pts, rng.uniform(-0.2, 1.2, size=(40, 2))]))
    tol = {"zero": 0.0, "w": w, "h": h, "random": tol_random}[tol_kind]
    _assert_same_triples(grid, pts, tol)


@settings(max_examples=60)
@given(
    w=st.floats(0.05, 0.5), h=st.floats(0.02, 0.3), theta=st.floats(0.0, math.pi),
    tol_kind=st.sampled_from(["zero", "w", "h", "random"]),
    tol_random=st.floats(0.0, 1.0), clip=st.booleans(), masked=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_point_tiles_keeps_the_offset_order_on_rotated_grids(w, h, theta, tol_kind, tol_random,
                                                             clip, masked, seed):
    """Rotated grids, clipped or not and with a random keep mask: tile
    vertices and edge midpoints (on cell edges up to rounding) plus random
    points, in the offset loop's order."""
    grid = make_tile_grid(w, h, theta)
    if not clip:
        grid.keep = None
    rng = np.random.default_rng(seed)
    if masked:
        grid.keep = rng.random((grid.ni, grid.nj)) < 0.6
    tiles = list(grid.tiles())
    verts = np.concatenate([t.vertices() for t in tiles] or [np.zeros((0, 2))])
    mids = 0.5 * (verts + np.concatenate([np.roll(t.vertices(), -1, axis=0) for t in tiles]
                                         or [np.zeros((0, 2))]))
    pts = np.concatenate([verts, mids, rng.uniform(-0.5, 1.5, size=(150, 2))])
    tol = {"zero": 0.0, "w": w, "h": h, "random": tol_random}[tol_kind]
    _assert_same_triples(grid, pts, tol)
    _assert_same_triples(grid, pts[:0], tol)


@pytest.mark.parametrize("e", [6, 8])
def test_point_tiles_keeps_the_offset_order_where_reach_runs_to_many_cells(e):
    """Thin tiles of one aspect ladder, as the hp covers have them, at a tol
    many cells wide on one axis and at none."""
    pts = np.random.default_rng(e).uniform(-0.1, 1.1, size=(60, 2))
    for k in range(0, e + 1, 2):
        grid = make_tile_grid(2.0 ** -k, 2.0 ** (k - e), 0.3 * k)
        for tol in (0.0, 2.0 ** -e, 0.05, 0.3):
            _assert_same_triples(grid, pts, tol)


@settings(max_examples=40)
@given(
    w=st.floats(0.1, 0.6), h=st.floats(0.1, 0.6), theta=st.floats(0.0, math.pi),
    corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    size=st.tuples(st.floats(0.3, 1.5), st.floats(0.3, 1.5)),
)
def test_point_tiles_at_zero_tol_finds_closed_tiles(w, h, theta, corner, size):
    """At tol = 0 a point on a shared edge or vertex lands in every kept
    tile whose closed box contains it, as Parallelogram.contains says."""
    domain = (corner[0], corner[1], corner[0] + size[0], corner[1] + size[1])
    grid = make_tile_grid(w, h, theta, domain)
    tiles = list(grid.tiles())
    verts = np.concatenate([t.vertices() for t in tiles])
    mids = 0.5 * (verts + np.concatenate([np.roll(t.vertices(), -1, axis=0) for t in tiles]))
    pts = np.concatenate([verts, mids])
    pidx, _, _ = grid.point_tiles(pts, 0.0)
    want = np.sum([t.contains(pts) for t in tiles], axis=0)
    np.testing.assert_array_equal(np.bincount(pidx, minlength=len(pts)), want)


def test_rotated_tiling_covers_domain():
    tiles = list(make_tile_grid(0.3, 0.11, 0.5).tiles())
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, size=(400, 2))
    hit = np.zeros(len(pts), dtype=bool)
    for t in tiles:
        hit |= t.contains(pts)
    assert hit.all()


def test_tile_grid_clip_drops_outside_cells():
    clipped = make_tile_grid(0.3, 0.11, 0.5)
    full = make_tile_grid(0.3, 0.11, 0.5)
    full.keep = None
    assert len(list(clipped.tiles())) < len(list(full.tiles()))
    # clipping never drops a tile that meets the domain
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 1, size=(200, 2))
    np.testing.assert_array_equal(
        clipped.count_points(pts), full.count_points(pts)
    )


def test_parallelogram_json_round_trip():
    box = rotated_rectangle((0.3, 0.4), 0.5, 0.2, 1.1)
    box2 = Parallelogram.from_json_dict(box.to_json_dict())
    assert box2.center == box.center
    assert box2.e1 == box.e1
    with pytest.raises(ValueError):
        Parallelogram.from_json_dict({"center": [0, 0]})


def test_make_tile_grid_rejects_bad_sides():
    with pytest.raises(ValueError):
        make_tile_grid(0.0, 0.1, 0.0)


@settings(max_examples=40)
@given(
    e1=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    e2=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    seed=st.integers(0, 2 ** 16),
)
def test_parallelogram_distance_matches_sampled_boundary(e1, e2, seed):
    """Zero inside; outside, the distance to the nearest of 4000 points
    spread over the boundary, up to the spacing of that sample."""
    assume(abs(e1[0] * e2[1] - e1[1] * e2[0]) >= 1e-3)
    box = Parallelogram((0.2, -0.1), e1, e2)
    pts = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(200, 2))
    got = box.distance(pts)
    t = np.linspace(-1.0, 1.0, 1001)
    c, a, b = np.asarray(box.center), np.asarray(e1), np.asarray(e2)
    edge = np.concatenate([c + s * a + t[:, None] * b for s in (-1, 1)]
                          + [c + t[:, None] * a + s * b for s in (-1, 1)])
    sampled = np.min(np.linalg.norm(pts[:, None, :] - edge[None, :, :], axis=2), axis=1)
    spacing = 0.002 * max(np.hypot(*a), np.hypot(*b))
    inside = box.contains(pts, tol=0.0)
    assert np.all(got[inside] == 0.0)
    assert np.all(got[~inside] <= sampled[~inside] + 1e-12)
    assert np.all(got[~inside] >= sampled[~inside] - spacing)


def _range_oracle(w, h, theta, domain):
    """The index range of the rotated grid covering the domain, one angle
    at a time, as ``make_tile_grid`` formed it before ranges were batched."""
    xmin, ymin, xmax, ymax = domain
    corners = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    fc = corners @ rot.T - rot @ np.asarray((xmin, ymin))
    pad = 1e-12
    i0 = int(math.floor((fc[:, 0].min() + pad) / w))
    i1 = int(math.ceil((fc[:, 0].max() - pad) / w))
    j0 = int(math.floor((fc[:, 1].min() + pad) / h))
    j1 = int(math.ceil((fc[:, 1].max() - pad) / h))
    return i0, max(i1, i0 + 1), j0, max(j1, j0 + 1)


def _mask_oracle(grid):
    """The separating-axis domain mask of one grid, cell by cell against
    the rotated domain: the per-grid loop that the batched
    ``domain_masks`` replaced."""
    xmin, ymin, xmax, ymax = grid.domain
    corners = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=float)
    fc = grid.to_frame(corners)
    u0, v0 = grid.frame_origin()
    ulo = u0 + np.arange(grid.i0, grid.i1) * grid.w
    uhi = ulo + grid.w
    vlo = v0 + np.arange(grid.j0, grid.j1) * grid.h
    vhi = vlo + grid.h
    ok_u = (ulo[:, None] < fc[:, 0].max() - 1e-12) & (uhi[:, None] > fc[:, 0].min() + 1e-12)
    ok_v = (vlo[None, :] < fc[:, 1].max() - 1e-12) & (vhi[None, :] > fc[:, 1].min() + 1e-12)
    mask = ok_u & ok_v
    for t in range(4):
        p, q = fc[t], fc[(t + 1) % 4]
        n = np.array([q[1] - p[1], p[0] - q[0]])
        if np.dot(n, fc.mean(axis=0) - p) > 0:
            n = -n
        c0 = np.dot(n, p)
        ui = np.where(n[0] < 0, uhi, ulo)
        vj = np.where(n[1] < 0, vhi, vlo)
        mask &= n[0] * ui[:, None] + n[1] * vj[None, :] < c0 - 1e-12
    return mask


@settings(max_examples=60)
@given(
    w=st.sampled_from([1.0, 0.5, 0.25, 0.3, 0.21]),
    h=st.sampled_from([2.0 ** -6, 2.0 ** -4, 0.17, 0.11]),
    thetas=st.lists(st.floats(-1.0, 7.0), min_size=1, max_size=12),
    steps=st.integers(0, 3),
    corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    size=st.tuples(st.floats(0.05, 1.5), st.floats(0.05, 1.5)),
)
def test_batched_ranges_and_masks_match_the_per_grid_oracle(w, h, thetas, steps, corner, size):
    """One batched pass gives every angle of a level the range and the
    domain mask the per-grid computation gives it, bit for bit; dyadic
    angles (hp tilts, multiples of pi/2) are mixed in."""
    domain = (corner[0], corner[1], corner[0] + size[0], corner[1] + size[1])
    thetas = thetas + [2.0 ** -6 * k for k in range(steps * 50)] + [0.0, math.pi / 2, math.pi]
    grids = tile_grids(w, h, thetas, domain, 1.0, list(range(len(thetas))))
    np.testing.assert_array_equal(tile_ranges(w, h, thetas, domain),
                                  [_range_oracle(w, h, t, domain) for t in thetas])
    for theta, grid in zip(thetas, grids):
        assert (grid.i0, grid.i1, grid.j0, grid.j1) == _range_oracle(w, h, theta, domain)
        want = _mask_oracle(grid)
        np.testing.assert_array_equal(grid.domain_mask(), want)
        if abs(theta) % (math.pi / 2) > 1e-12:
            np.testing.assert_array_equal(grid.keep, want)
        else:
            assert grid.keep is None
    # another anchor, and ranges not derived from the domain
    grid = grids[0]
    grid.anchor = (grid.anchor[0] + 0.3 * w, grid.anchor[1] - 0.7 * h)
    grid.i0, grid.j1 = grid.i0 - 1, grid.j1 + 2
    np.testing.assert_array_equal(grid.domain_mask(), _mask_oracle(grid))
    assert domain_masks(w, h, [], domain, np.zeros((0, 4))) == []


@pytest.mark.parametrize("w, h, domain", [
    (2.0 ** -200, 1.0, (0.0, 0.0, 1.0, 1.0)),
    (2.0 ** -31, 2.0 ** -32, (0.0, 0.0, 1.0, 1.0)),
    (0.1, 0.1, (0.0, 0.0, math.inf, 1.0)),
    (0.1, 0.1, (0.0, 0.0, math.nan, 1.0)),
])
def test_tilings_too_large_to_index_are_refused(w, h, domain):
    with pytest.raises(ValueError, match="cannot be indexed in int64"):
        make_tile_grid(w, h, 0.3, domain)
