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

from flatcover.cover import (
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    normal_axis_family,
)
from flatcover.geometry import _CONTAIN_TOL, axis_rectangle
from flatcover.lattice import lambda_grid, max_flat_multiplicity
from flatcover.norms import ExpSum, assign_frequencies
from flatcover.poly2 import BivariatePoly, hyperbolic_phase
from flatcover.rescale import pullback_cover, rescale_phase

SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
CUBIC = BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})

COVER_NAMES = ["caps", "axis", "hp", "normal", "general", "pullback"]


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
    res = rescale_phase(hyperbolic_phase(), axis_rectangle(0.25, 0.5, 0.75, 0.5 + 2.0 ** -5),
                        2.0 ** -6)
    return pullback_cover(canonical_caps(2.0 ** -4), res, hyperbolic_phase()), res.L


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
