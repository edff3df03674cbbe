"""One cover incidence: overlap counts, frequency assignment and lattice
counts all read ``FlatCover.incidences``.  Each caller is checked here
against the per-member rule, member by member over ``iter_members`` in
world coordinates: half-open member at tol = None, closed member at
tol = 0, and world distance at most tol (``Parallelogram.distance``)
for tol > 0, under every kind of frame.  Frequencies are drawn
uniformly, so the walk's closed outer boundaries at tol = None differ
from the half-open reference only on a null set."""

import functools
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
from flatcover.geometry import _CONTAIN_TOL, UNIT_SQUARE, axis_rectangle
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
        part = cover_mod._as_tiling(box)
        grid = part.groups[0]
        local = part.frame.inverse().apply(pts)
        scale = cover_mod._similarity_scale(part.frame.matrix)
        if not tol:
            want = grid.point_tiles(local, tol)
        elif scale is not None:
            want = grid.point_tiles(local, tol / scale)
        else:
            want = cover_mod._tiles_within(part, grid, pts, tol)
        assert inc.local.tobytes() == local.tobytes()
        assert [a.tolist() for a in (inc.pidx, inc.ii, inc.jj)] == [b.tolist() for b in want]
        taken += len(inc.pidx)
    assert taken > 0
