"""One cover incidence: overlap counts, frequency assignment and lattice
counts all read ``FlatCover.incidences``.  Each caller is checked here
against the per-member rule, member by member over ``iter_members`` in
world coordinates: half-open member at tol = None, closed member at
tol = 0, and world distance at most tol (``Parallelogram.distance``)
for tol > 0, under every kind of frame.  Frequencies are drawn
uniformly, so the walk's closed outer boundaries at tol = None differ
from the half-open reference only on a null set."""

import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover import cover as cover_mod
from flatcover.cover import (
    FlatCover,
    FramedGroups,
    _sample_points,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    normal_axis_family,
)
from flatcover.geometry import (
    _CONTAIN_TOL,
    UNIT_SQUARE,
    AffineMap2,
    axis_rectangle,
    make_tile_grid,
    tile_grids,
)
from flatcover.lattice import lambda_grid, max_flat_multiplicity
from flatcover.norms import ExpSum, assign_frequencies
from flatcover.poly2 import BivariatePoly, hyperbolic_phase
from flatcover.rescale import pullback_cover, rescale_phase

SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
CUBIC = BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})

COVER_NAMES = ["caps", "axis", "hp", "normal", "general", "pullback", "loose"]


@functools.lru_cache(maxsize=None)
def cover_of(name: str):
    """(cover, map of the unit square onto the region the cover covers)."""
    if name == "caps":
        return canonical_caps(2.0 ** -4), None
    if name == "axis":
        return hp_axis_family(2.0 ** -4), None
    if name == "hp":
        return build_cover_hp(hyperbolic_phase(), 2.0 ** -4), None
    if name == "normal":  # one rotation frame
        return normal_axis_family(SADDLE, 2.0 ** -6), None
    if name == "general":  # zoom frames of scale 1/4 and loose members
        return demo_cubic_cover(), None
    # pullback: one frame that is not a similarity (it stretches x 16 times
    # more than y)
    res = pullback_map()
    if name == "pullback":
        return pullback_cover(canonical_caps(2.0 ** -4), res, hyperbolic_phase()), res.L
    # loose: the general cover mapped by the same L, so its loose members
    # sit behind frames that are not similarities
    general = demo_cubic_cover()
    parts = [FramedGroups(res.L.compose(p.frame), p.groups) for p in general.parts]
    loose = [res.L.apply_box(b) for b in general.loose]
    return FlatCover(general.delta, general.a_const, parts, loose, kind="pullback",
                     domain=res.L.image_bbox(UNIT_SQUARE)), res.L


@functools.lru_cache(maxsize=None)
def pullback_map():
    return rescale_phase(hyperbolic_phase(), axis_rectangle(0.25, 0.5, 0.75, 0.5 + 2.0 ** -5),
                         2.0 ** -6)


@functools.lru_cache(maxsize=None)
def demo_cubic_cover():
    return build_cover_general(CUBIC, 2.0 ** -8)


def test_test_covers_have_every_frame_kind():
    general, _ = cover_of("general")
    scales = {round(math.sqrt(abs(np.linalg.det(p.frame.matrix))), 12)
              for p in general.parts}
    assert 0.25 in scales and general.loose
    normal, _ = cover_of("normal")
    frame = normal.parts[0].frame.matrix
    np.testing.assert_allclose(frame.T @ frame, np.eye(2), atol=1e-12)
    assert np.abs(frame - np.diag(np.diag(frame))).max() > 0.1
    back, _ = cover_of("pullback")
    g = back.parts[0].frame.matrix.T @ back.parts[0].frame.matrix
    assert abs(g[0, 1]) > 1e-3 * g[0, 0] or abs(g[0, 0] - g[1, 1]) > 1e-3 * g[0, 0]
    # loose members behind similarities (general) and behind other maps (loose)
    for name, similar in (("general", True), ("loose", False)):
        cover, _ = cover_of(name)
        scales = [cover_mod._similarity_scale(2.0 * b.edge_matrix) for b in cover.loose]
        assert cover.loose and all((m is not None) == similar for m in scales)


def _as_tiling(box):
    """A loose member as the one tile of the unit square centered at the
    origin, behind the frame (2E, c) that maps it back onto the member
    exactly: E its edge matrix, c its center."""
    return FramedGroups(AffineMap2(tuple(map(tuple, 2.0 * box.edge_matrix)), box.center),
                        [make_tile_grid(1.0, 1.0, 0.0, (-0.5, -0.5, 0.5, 0.5))])


def _tiles_within(part, grid, pts, tol):
    """``grid.point_tiles`` at tol > 0 in world distance, tile by tile
    with ``Parallelogram.distance``: the oracle of the stacked pass."""
    found = [(np.zeros(0, dtype=np.int64),) * 3]
    for i, j in grid.kept_indices():
        near = part.world_box(grid.tile(int(i), int(j))).distance(pts)
        k = np.flatnonzero(near <= tol * (1 + 1e-12))
        found.append((k, np.full(len(k), i), np.full(len(k), j)))
    return tuple(np.concatenate(a) for a in zip(*found))


def member_takes(box, pts, tol):
    """The per-member rule in world coordinates."""
    if tol is None:
        x = box.affine_coords(pts)
        return np.all((x >= -1.0) & (x < 1.0), axis=1)
    if tol == 0:
        return box.contains(pts)
    return box.distance(pts) <= tol * (1 + 1e-12)


def draw_points(name, seed, n):
    cover, to_region = cover_of(name)
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
    return cover, pts if to_region is None else to_region.apply(pts)


# "none" leaves tol to the caller's default, the cover's delta
TOL_KINDS = ["none", "zero", "drawn"]


def resolve_tol(kind, drawn):
    return {"none": None, "zero": 0.0, "drawn": drawn}[kind]


@pytest.mark.parametrize("name", COVER_NAMES)
@settings(max_examples=2)
@given(seed=st.integers(0, 2 ** 16))
def test_membership_counts_match_per_member_rule(name, seed):
    cover, pts = draw_points(name, seed, 300)
    want = sum(member_takes(box, pts, None).astype(np.int64)
               for box in cover.iter_members())
    np.testing.assert_array_equal(cover.membership_counts(pts), want)


@pytest.mark.parametrize("kind", TOL_KINDS)
@pytest.mark.parametrize("name", COVER_NAMES)
@settings(max_examples=2)
@given(drawn=st.floats(1e-3, 0.1), seed=st.integers(0, 2 ** 16))
def test_assign_frequencies_matches_per_member_rule(name, kind, drawn, seed):
    cover, pts = draw_points(name, seed, 200)
    tol = resolve_tol(kind, drawn)
    f = ExpSum(hyperbolic_phase(), pts, np.ones(len(pts)))
    subsets, counts = assign_frequencies(f, cover, tol)
    # assign_frequencies reads None as the cover's delta and tol = 0 as sharp
    rule = cover.delta if tol is None else (tol if tol > 0 else None)
    want = [np.flatnonzero(member_takes(box, pts, rule)) for box in cover.iter_members()]
    want = [tuple(w.tolist()) for w in want if len(w)]
    assert [tuple(sorted(s.tolist())) for s in subsets] == want
    np.testing.assert_array_equal(
        counts, np.bincount(np.concatenate(subsets), minlength=len(pts)))


@pytest.mark.parametrize("kind", TOL_KINDS)
@pytest.mark.parametrize("name", COVER_NAMES)
@settings(max_examples=2)
@given(drawn=st.floats(1e-3, 0.1), e=st.sampled_from([3, 4, 5]),
       alpha=st.sampled_from([1.0, math.sqrt(2.0), 0.7071]))
def test_max_flat_multiplicity_matches_per_member_rule(name, kind, drawn, e, alpha):
    cover, _ = cover_of(name)
    tol = resolve_tol(kind, drawn)
    lat = lambda_grid(2.0 ** -e, alpha)
    pts = lat.points()
    best, hist = max_flat_multiplicity(cover, lat, SADDLE, tol)
    rule = cover.delta if tol is None else tol
    want = {}
    for box in cover.iter_members():
        dilate = np.max(np.abs(box.affine_coords(pts)), axis=1) <= 1.0 + (rule or _CONTAIN_TOL)
        c = int(np.count_nonzero(member_takes(box, pts, rule) & dilate))
        want[c] = want.get(c, 0) + 1
    assert hist == want
    assert best == max(want)


def test_assign_frequencies_under_zoom_frames_uses_world_distance():
    """The general cover of x^3+y^3+xy at 2^-8 keeps 9 tilings behind
    frames of scale 1/4; a world tol = delta is 4 delta in their frames."""
    cover = demo_cubic_cover()
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(400, 2))
    f = ExpSum(CUBIC, pts, np.ones(len(pts)))
    subsets, counts = assign_frequencies(f, cover, cover.delta)
    assert (len(cover), len(cover.loose)) == (244, 112)
    assert len(subsets) == 218
    assert int(counts.sum()) == 494


@pytest.mark.parametrize("tol", [None, 0.0, 2.0 ** -9, 0.03])
@pytest.mark.parametrize("name", ["general", "loose"])
def test_loose_members_are_located_as_one_tile_tilings(name, tol):
    """The one batched pass over the loose members yields, member by
    member, the incidence of that member as the one-tile tiling of
    ``_as_tiling`` located on its own: the same frame coordinates,
    points, cells and order, bit for bit.  Behind similarity frames
    (general) and other maps (loose), on random points, on the overlap
    profile's midpoints (odd/128, which fall exactly on the dyadic edges
    of deep patches) and on the members' own vertices and edge midpoints,
    also pushed out by 1e-10 of a half edge, where the slack of each tol
    decides."""
    cover, to_region = cover_of(name)
    pts = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.0, size=(300, 2)),
                          _sample_points(UNIT_SQUARE, 64)])
    if to_region is not None:
        pts = to_region.apply(pts)
    rims = []
    for box in cover.loose:
        v = box.vertices()
        rim = np.vstack([v, 0.5 * (v + np.roll(v, 1, axis=0))])
        rims += [rim, box.center + (rim - box.center) * (1.0 + 1e-10)]
    pts = np.concatenate([pts] + rims)
    got = list(cover.incidences(pts, tol))[-len(cover.loose):]
    assert len(got) == len(cover.loose)
    taken = 0
    for inc, box in zip(got, cover.loose):
        part = _as_tiling(box)
        grid = part.groups[0]
        local = part.frame.inverse().apply(pts)
        scale = cover_mod._similarity_scale(part.frame.matrix)
        if not tol:
            want = grid.point_tiles(local, tol)
        elif scale is not None:
            want = grid.point_tiles(local, tol / scale)
        else:
            want = _tiles_within(part, grid, pts, tol)
        assert inc.local.tobytes() == local.tobytes()
        assert [a.tolist() for a in (inc.pidx, inc.ii, inc.jj)] == [b.tolist() for b in want]
        taken += len(inc.pidx)
    assert taken > 0


@pytest.mark.parametrize("tol", [1e-3, 2.0 ** -8, 0.05])
@pytest.mark.parametrize("name", ["pullback", "loose"])
def test_tilings_behind_other_maps_match_the_tile_by_tile_oracle(name, tol):
    """Tilings behind frames that are not similarities (the caps and the
    demo cubic cover pulled back by L) take the points within world
    distance tol of each kept tile: the stacked pass gives the points,
    tiles and order of the tile-by-tile ``Parallelogram.distance`` loop,
    bit for bit."""
    cover, to_region = cover_of(name)
    pts = to_region.apply(np.concatenate(
        [np.random.default_rng(5).uniform(0.0, 1.0, size=(300, 2)),
         _sample_points(UNIT_SQUARE, 64)]))
    handles = [(part, grid) for part in cover.parts for grid in part.groups]
    got = list(cover.incidences(pts, tol))[:len(handles)]
    taken = 0
    for inc, (part, grid) in zip(got, handles):
        assert cover_mod._similarity_scale(part.frame.matrix) is None
        want = _tiles_within(part, grid, pts, tol)
        assert [a.tolist() for a in (inc.pidx, inc.ii, inc.jj)] == [b.tolist() for b in want]
        taken += len(inc.pidx)
    assert taken > len(pts)


_FRAMES = {
    "none": None,
    # a similarity of scale 1/4, as the general cover's zoom frames
    "similarity": AffineMap2(((0.25 * math.cos(0.6), -0.25 * math.sin(0.6)),
                              (0.25 * math.sin(0.6), 0.25 * math.cos(0.6))), (0.3, 0.55)),
    "shear": AffineMap2(((2.0, 0.5), (0.1, 0.8)), (0.3, -0.2)),
}


@settings(max_examples=40)
@given(
    w=st.floats(0.1, 0.5), h=st.floats(0.05, 0.3),
    thetas=st.lists(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi / 2])),
                    min_size=1, max_size=4),
    corner=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    size=st.tuples(st.floats(0.2, 1.2), st.floats(0.2, 1.2)),
    frame=st.sampled_from(sorted(_FRAMES)),
    edit=st.sampled_from(["built", "refined", "all", "copied"]),
    seed=st.integers(0, 2 ** 16),
)
def test_overlap_per_tiling_matches_per_member_rule(w, h, thetas, corner, size, frame, edit,
                                                    seed):
    """``membership_counts`` adds a partition tiling's 1 to the points
    well inside its domain without locating them; the counts still equal
    the walk of ``incidences`` on every point, and the per-member rule on
    every point that no member edge passes within 1e-9 (in member
    coordinates).  Points sit inside, on the domain's edges and corners,
    5e-10 and 5e-9 inside and outside them (around the margin), and
    outside; angles that are multiples of pi/2 put domain edges on cell
    edges.  The first tiling is left as built, refined to a proper
    subset, set to keep every cell, or given a copy of its domain mask;
    a JSON round trip counts the same."""
    xmin, ymin = corner
    xmax, ymax = xmin + size[0], ymin + size[1]
    domain = (xmin, ymin, xmax, ymax)
    grids = tile_grids(w, h, thetas, domain)
    if edit == "refined":
        cover_mod._refine_keep(grids[0], np.arange(len(grids[0])) % 3 != 0)
    elif edit == "all":
        grids[0].keep = None
    elif edit == "copied":
        grids[0].keep = grids[0].domain_mask().copy()
    margins = cover_mod._partition_margins(grids)
    assert (margins[0] is None) == (edit == "refined")
    cover = FlatCover(2.0 ** -4, 4.0, [FramedGroups(_FRAMES[frame], grids)],
                      domain=domain)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=(30, 1))
    lo, hi = np.array([xmin, ymin]), np.array([xmax, ymax])
    rim = np.concatenate([lo + t * [hi[0] - lo[0], 0.0], lo + t * [0.0, hi[1] - lo[1]],
                          hi - t * [hi[0] - lo[0], 0.0], hi - t * [0.0, hi[1] - lo[1]],
                          [lo, hi, [xmin, ymax], [xmax, ymin]]])
    mid = 0.5 * (lo + hi)
    local = np.concatenate(
        [rng.uniform(lo, hi, size=(200, 2)), rng.uniform(lo - 0.5, hi + 0.5, size=(100, 2)), rim]
        + [mid + (rim - mid) * (1.0 + f) for f in (-1e-8, -1e-9, 1e-9, 1e-8)])
    frame_map = _FRAMES[frame]
    pts = local if frame_map is None else frame_map.apply(local)
    got = cover.membership_counts(pts)
    walk = sum(np.bincount(inc.pidx, minlength=len(pts)) for inc in cover.incidences(pts))
    np.testing.assert_array_equal(got, walk)
    members = list(cover.iter_members())
    want = sum(member_takes(box, pts, None).astype(np.int64) for box in members)
    edge = np.zeros(len(pts), dtype=bool)
    for box in members:
        edge |= np.abs(np.max(np.abs(box.affine_coords(pts)), axis=1) - 1.0) <= 1e-9
    assert np.count_nonzero(~edge) > len(pts) // 2
    np.testing.assert_array_equal(got[~edge], want[~edge])
    back = FlatCover.from_json_dict(json.loads(json.dumps(cover.to_json_dict())))
    np.testing.assert_array_equal(back.membership_counts(pts), got)


def _loose_probe(name):
    """(cover, points) of the loose-member tests: random points, the
    overlap profile's midpoints, and each loose member's vertices and
    edge midpoints, also pushed out by 1e-10 of a half edge."""
    cover, to_region = cover_of(name)
    pts = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.0, size=(300, 2)),
                          _sample_points(UNIT_SQUARE, 64)])
    if to_region is not None:
        pts = to_region.apply(pts)
    rims = []
    for box in cover.loose:
        v = box.vertices()
        rim = np.vstack([v, 0.5 * (v + np.roll(v, 1, axis=0))])
        rims += [rim, box.center + (rim - box.center) * (1.0 + 1e-10)]
    return cover, np.concatenate([pts] + rims)


# sha256 over the loose members' incidences (local bytes, then pidx, ii
# and jj as int64), as the stacked loose-member kernel gave them
_LOOSE_DIGESTS = {
    ("general", None): (5009, "2f46ff010d1781f9043754b7366e1295a7dd85a961ab40f1574dc0ba7bffd6b3"),
    ("general", 0.0): (6673, "9709c771a35ae38679d54d8f0a79a5b4d15170c2f79491f61753f0575cb12f89"),
    ("general", 2.0 ** -9): (6690,
                             "56a7c0651e360041e64d058983ddeaca040bc7376c918a086be438841df6fb9a"),
    ("general", 0.03): (11375, "2b5e446c145980bde6d9f01b7d72c80505d3cf0fe05ca3a30794904f1e15ddcb"),
    ("loose", None): (5009, "66bf87abdbe912cc2f48df3cdb7ef6af007c03c81a2e1e88d1d6c18df5f829c4"),
    ("loose", 0.0): (6673, "a65bf054dcc5e138133ccee9c86ad020bc2d972bf554f152b6c59e7d34e3073c"),
    ("loose", 2.0 ** -9): (14033,
                           "5f2516142afc0cbd353cee8d5d858d7168bc34377d6176526bb7a1b0793cba82"),
    ("loose", 0.03): (119551, "3a23bf46b543bdd508098470287b05ee61b6a5d4228ec41d937a0631b1b86c13"),
}


@pytest.mark.parametrize("tol", [None, 0.0, 2.0 ** -9, 0.03])
@pytest.mark.parametrize("name", ["general", "loose"])
def test_loose_member_incidences_match_pinned_digest(name, tol):
    """The loose members' incidences, bit for bit, against a digest of
    the stacked kernel that located them before they were walked as
    one-tile tilings."""
    cover, pts = _loose_probe(name)
    digest = hashlib.sha256()
    taken = 0
    for inc in list(cover.incidences(pts, tol))[-len(cover.loose):]:
        digest.update(np.ascontiguousarray(inc.local).tobytes())
        for a in (inc.pidx, inc.ii, inc.jj):
            digest.update(np.asarray(a, dtype=np.int64).tobytes())
        taken += len(inc.pidx)
    assert (taken, digest.hexdigest()) == _LOOSE_DIGESTS[name, tol]


@pytest.mark.parametrize("name", ["general", "loose"])
def test_loose_overlap_counts_match_the_incidence_walk(name):
    """The stacked tol-None count of ``membership_counts`` equals the walk
    of ``incidences`` on covers with loose members, also on their rims."""
    cover, pts = _loose_probe(name)
    walk = sum(np.bincount(inc.pidx, minlength=len(pts)) for inc in cover.incidences(pts))
    np.testing.assert_array_equal(cover.membership_counts(pts), walk)
