import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcover import cover, flatness
from flatcover.cover import (
    _NINE_OFFSETS,
    FlatCover,
    _comparability_keep,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
    normal_axis_family,
    overlap_profile,
    verify_cover,
)
from flatcover.flatness import candidate_box, flat_defect, flat_defect_interval
from flatcover.geometry import (
    UNIT_SQUARE,
    axis_rectangle,
    comparable,
    make_tile_grid,
    rotated_rectangle,
)
from flatcover.poly2 import (
    BivariatePoly,
    compose_affine,
    elliptic_phase,
    hyperbolic_phase,
    perturbed_hyperbolic,
    poly_scale,
)

SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})


def test_canonical_caps_is_a_partition():
    delta = 2.0 ** -6
    cov = canonical_caps(delta)
    assert len(cov) == 64
    assert cov.kind == "caps"
    side = math.sqrt(delta)
    for box in cov.iter_members():
        assert box.side_lengths() == pytest.approx((side, side))
    prof = overlap_profile(cov)
    assert prof.min == prof.max == 1
    rng = np.random.default_rng(0)
    counts = cov.membership_counts(rng.uniform(0, 1, size=(500, 2)))
    np.testing.assert_array_equal(counts, 1)


def test_caps_require_dyadic_delta():
    with pytest.raises(ValueError):
        canonical_caps(0.3)


def test_axis_family_overlap_equals_level_count():
    delta = 2.0 ** -8
    cov = hp_axis_family(delta)
    levels = 2 * 4 + 1
    assert len({g.beta for p in cov.parts for g in p.groups}) == levels
    prof = overlap_profile(cov)
    assert prof.min == prof.max == levels
    assert cov.overlap_bound() == pytest.approx(levels)
    # each level is itself a partition with the prescribed aspect
    for part in cov.parts:
        for g in part.groups:
            assert g.w * g.h == pytest.approx(delta)
            assert g.w == pytest.approx(2.0 ** g.beta * math.sqrt(delta))


def test_axis_family_members_are_flat_for_the_model_phase():
    delta = 2.0 ** -6
    rep = verify_cover(hp_axis_family(delta), hyperbolic_phase(), a_const=1.0)
    assert rep.all_flat
    assert rep.covers_domain
    assert rep.worst_defect <= delta * (1 + 1e-12)


def test_hp_cover_verifies_on_perturbed_phases():
    rng = np.random.default_rng(1107)
    delta = 2.0 ** -6
    for degree in (2, 3):
        phi = perturbed_hyperbolic(degree, rng)
        cov = build_cover_hp(phi, delta, a_const=4.0)
        rep = verify_cover(cov, phi)
        assert rep.ok, f"degree {degree}: {rep}"
        assert rep.max_overlap <= 4.0 * 4.0 * math.log2(1.0 / delta)


def test_hp_cover_rejects_non_normal_form():
    with pytest.raises(ValueError):
        build_cover_hp(elliptic_phase(), 2.0 ** -6)


def test_normal_axis_family_saddle_certifies():
    delta = 2.0 ** -9
    cov = normal_axis_family(SADDLE, delta)
    assert cov.kind == "axis"
    rep = verify_cover(cov, SADDLE)
    assert rep.ok
    # tiles follow the null frame, so the constant stays near the mixed
    # Hessian entry instead of growing with the aspect ratio
    assert cov.a_const == pytest.approx(2.0, rel=1e-9)
    prof = overlap_profile(cov)
    assert prof.max <= math.floor(math.log2(1.0 / delta)) + 1


def test_normal_axis_family_definite_falls_back_to_caps():
    cov = normal_axis_family(elliptic_phase(), 2.0 ** -6)
    assert cov.kind == "caps"
    assert verify_cover(cov, elliptic_phase()).ok


def test_normal_axis_family_rejects_bad_phases():
    with pytest.raises(ValueError):
        normal_axis_family(BivariatePoly(2, {(2, 0): 1.0}), 2.0 ** -6)
    with pytest.raises(ValueError):
        normal_axis_family(perturbed_hyperbolic(3, np.random.default_rng(0)), 2.0 ** -6)


_SADDLE_TERMS = [(2, 0), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]


def _scalar_comparable(phi, tile, alpha, delta, a_const):
    """The hp keep rule from its definition: some route whose candidate
    boxes at all nine anchors are comparable to the tile; an anchor with
    no null directions (candidate_box raises) is not comparable."""
    anchors = (np.asarray(tile.center) + _NINE_OFFSETS[:, :1] * tile.e1
               + _NINE_OFFSETS[:, 1:] * tile.e2)

    def anchor_ok(z, route):
        try:
            cand = candidate_box(phi, z, alpha, delta, route)
        except ValueError:
            return False
        return comparable(tile, cand, a_const)

    return any(all(anchor_ok(z, route) for z in anchors) for route in ("w", "v"))


@settings(max_examples=25)
@given(
    c=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6),
    e=st.sampled_from([4, 6]), level=st.integers(0, 3),
    near=st.sampled_from([0.0, 0.5, 1.0]), step=st.integers(-2, 2),
    a_const=st.floats(1.5, 4.0),
)
# mixed keep masks: 87/100, 46/130, 8/16 and 17/34 tiles kept
@example(c=[0.01, -0.02, 0.04, -0.04, 0.02, 0.04], e=6, level=1, near=0.5, step=1, a_const=3.0)
@example(c=[0.02, 0.03, -0.02, -0.01, -0.04, -0.01], e=6, level=0, near=0.5, step=1,
         a_const=2.5)
@example(c=[0.03, 0.05, 0.04, -0.01, -0.04, -0.02], e=4, level=1, near=0.0, step=0, a_const=1.5)
@example(c=[0.03, 0.0, 0.03, 0.04, 0.03, -0.04], e=4, level=0, near=1.0, step=0, a_const=2.5)
def test_comparability_keep_matches_scalar_rule(c, e, level, near, step, a_const):
    """The vectorized keep rule of build_cover_hp agrees tile by tile with
    comparable(tile, candidate_box(...)) on perturbed saddles, and where
    the closed-form pass decides the grid's angle whole, every tile goes
    that way.  Angles are drawn near the null directions of xy (0, pi/2,
    pi), where keep masks come out mixed."""
    phi = BivariatePoly(3, {(1, 1): 1.0, **dict(zip(_SADDLE_TERMS, c))})
    delta = 2.0 ** -e
    alpha = float(2 ** min(level, e // 2))
    beta_max = int(math.pi / (delta * alpha * alpha))
    beta = min(max(round(near * beta_max) + step, 0), beta_max)
    grid = make_tile_grid(1.0 / alpha, delta * alpha, delta * alpha * alpha * beta,
                          alpha=alpha, beta=beta)
    want = [_scalar_comparable(phi, tile, alpha, delta, a_const) for tile in grid.tiles()]
    np.testing.assert_array_equal(_comparability_keep(phi, grid, a_const), want)
    a, b, _ = flatness.null_direction_fields(phi, grid.domain[:2])
    kept, dropped = cover._whole_comparability(
        a[0], b[0], np.array([grid.theta]), grid.h / grid.w, a_const, _builder_bound(phi, grid))
    if kept[0]:
        assert all(want)
    if dropped[0]:
        assert not any(want)


def _builder_bound(phi, grid):
    """The slope bound _build_hp_core passes for grid's aspect level: over
    the domain padded by the tile diameter."""
    diam = math.hypot(grid.w, grid.h)
    xmin, ymin, xmax, ymax = grid.domain
    return flatness._slope_spread_bound(phi, (xmin - diam, ymin - diam, xmax + diam, ymax + diam))


def _recorded_levels(delta, domain):
    """(recorded, calls, grids): a stand-in for _whole_comparability that
    appends each aspect level's call to calls, and grids(call), which
    yields (k, grid) for the call's k-th angle, tiled over domain."""
    whole = cover._whole_comparability
    calls = []

    def recorded(a_z, b_z, thetas, r, a_const, spread):
        kept, dropped = whole(a_z, b_z, thetas, r, a_const, spread)
        calls.append(SimpleNamespace(a_z=a_z, b_z=b_z, thetas=thetas, r=r, spread=spread,
                                     kept=kept, dropped=dropped))
        return kept, dropped

    def grids(call):
        alpha = math.sqrt(call.r / delta)  # exact: r = delta alpha^2, both dyadic
        for k, theta in enumerate(call.thetas):
            yield k, make_tile_grid(1.0 / alpha, delta * alpha, float(theta), domain)

    return recorded, calls, grids


# xy at 2^-6 has a tiling whose one passing route has extent
# 7.995606112438069.  At this A, 2A(1 + 1e-9) lies one ulp above it, and
# extents formed from absolute tile positions fell on both sides of it.
_TIE_A_CONST = 3.9978030522212316


def _some_tiles_flat(phi, grid, delta, a_const):
    """Stands in for tiling_flatness: drops every third tile, so keep
    masks reach comparability as proper subsets (and the sampled band
    of strongly perturbed saddles costs nothing)."""
    return SimpleNamespace(flat=np.arange(len(grid)) % 3 != 0)


def _tile_slopes(phi, grid):
    """Null-direction slopes (a, b, valid) at every kept tile's nine
    anchors, each (n, 9)."""
    tiles = list(grid.tiles())
    anchors = np.array([np.asarray(t.center) + _NINE_OFFSETS[:, :1] * t.e1
                        + _NINE_OFFSETS[:, 1:] * t.e2 for t in tiles]).reshape(-1, 2)
    return tuple(v.reshape(len(tiles), 9)
                 for v in flatness.null_direction_fields(phi, anchors))


@settings(max_examples=15)
@given(
    scale=st.sampled_from([0.0, 1e-30, 0.05]),
    c=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    e=st.sampled_from([4, 5, 6]),
    a_const=st.floats(1.5, 4.0),
)
@example(scale=0.0, c=[0.0] * 6, e=6, a_const=_TIE_A_CONST)
@example(scale=0.05, c=[0.5, -0.3, 1.0, -1.0, 0.7, 0.2], e=5, a_const=4.0)
# (x + y)^2 / 2: no anchor has null directions, so every tile is rejected
@example(scale=0.5, c=[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], e=4, a_const=4.0)
def test_comparability_per_tiling_matches_per_tile(scale, c, e, a_const):
    """Every comparability decision of _build_hp_core's sure and maybe
    tilings equals the per-tile rule: some route whose extents over all
    nine anchors are at most 2A(1 + 1e-9), with every anchor valid.
    Angles decided whole by the closed-form pass keep or drop every tile
    of their grid; the rest reach _comparability_keep, whose anchors
    match the tiles'.  scale 0 is xy, 1e-30 the degree-3 class bound,
    0.05 the perturbed saddles of build_cover_general's saddle branch,
    where the slopes vary.  At the tie, the per-tile rule must run."""
    phi = BivariatePoly(3, {(1, 1): 1.0, **{t: scale * x for t, x in zip(_SADDLE_TERMS, c)}})
    delta = 2.0 ** -e
    lim = 2.0 * a_const * (1.0 + 1e-9)
    keep = cover._comparability_keep
    recorded, calls, grids = _recorded_levels(delta, UNIT_SQUARE)
    ties_per_tile = []

    def per_tile(grid):
        a_f, b_f, valid = _tile_slopes(phi, grid)
        ext = cover._route_extents(a_f, b_f, grid.theta, grid.h / grid.w)
        return np.any(ext <= lim, axis=1) & valid.all(axis=1), ext

    def checked_keep(phi, grid, a_const):
        got = keep(phi, grid, a_const)
        want, ext = per_tile(grid)
        np.testing.assert_array_equal(got, want)
        ties_per_tile.append(bool(np.any(np.abs(ext - lim) <= 1e-12 * lim)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "tiling_flatness", _some_tiles_flat)
        mp.setattr(cover, "_whole_comparability", recorded)
        mp.setattr(cover, "_comparability_keep", checked_keep)
        cover._build_hp_core(phi, delta, a_const, UNIT_SQUARE)
    for call in calls:
        for k, grid in grids(call):
            if call.kept[k] or call.dropped[k]:
                want, _ = per_tile(grid)
                assert want.all() if call.kept[k] else not want.any()
    if a_const == _TIE_A_CONST and scale == 0.0 and e == 6:
        assert any(ties_per_tile)


_TILTED_SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -0.5, (1, 1): 0.3})


@st.composite
def _saddle_ties(draw):
    """(builder, e, A) with 2A(1 + 1e-9) at, or a few ulps from, the
    route extent of one tiling of a quadratic saddle: xy through
    build_cover_hp, or the tilted saddle through build_cover_general,
    whose saddle branch tiles the normalized phase at delta / |mixed|."""
    general = draw(st.booleans())
    e = draw(st.integers(4, 6))
    phi, delta = hyperbolic_phase(), 2.0 ** -e
    if general:
        _, mixed, composed = cover._saddle_normalizer(_TILTED_SADDLE)
        phi = poly_scale(composed, 1.0 / mixed)
        delta /= abs(mixed)
    a, b, _ = flatness.null_direction_fields(phi, (0.0, 0.0))  # constant on a quadratic
    alpha = 2.0 ** draw(st.integers(0, e // 2))
    beta = draw(st.integers(0, int(math.pi / (delta * alpha * alpha))))
    ext = cover._route_extents(np.full((1, 9), a[0]), np.full((1, 9), b[0]),
                               delta * alpha * alpha * beta, delta * alpha * alpha)
    a_const = float(ext[0, draw(st.integers(0, 1))]) / (2.0 * (1.0 + 1e-9))
    toward = draw(st.sampled_from([-math.inf, math.inf]))
    for _ in range(draw(st.integers(0, 3))):
        a_const = math.nextafter(a_const, toward)
    return ("general" if general else "hp"), e, a_const


@settings(max_examples=20, deadline=None)
@given(tie=_saddle_ties())
@example(tie=("hp", 6, _TIE_A_CONST))
def test_quadratic_saddle_keep_masks_are_whole(tie):
    """On a quadratic saddle the null slopes are the same at every
    anchor, so each tiling is kept or dropped whole: every kept tiling's
    mask is its domain mask, even at an A on a tie."""
    kind, e, a_const = tie
    try:
        if kind == "hp":
            cov = build_cover_hp(hyperbolic_phase(), 2.0 ** -e, a_const)
        else:
            cov = build_cover_general(_TILTED_SADDLE, 2.0 ** -e, a_const)
    except ValueError as exc:  # an A below every extent drops every tiling
        assert "empty" in str(exc)
        return
    for g in (g for p in cov.parts for g in p.groups):
        rotated = abs(g.theta) % (math.pi / 2) > 1e-12
        if g.keep is None:
            assert not rotated
        else:
            np.testing.assert_array_equal(g.keep, g.domain_mask())


@settings(max_examples=50)
@given(
    theta=st.floats(0.0, math.pi),
    r=st.floats(2.0 ** -14, 1.0),
    a=st.lists(st.floats(-100.0, 100.0), min_size=9, max_size=9),
    b=st.lists(st.floats(-100.0, 100.0), min_size=9, max_size=9),
)
def test_route_extents_match_vertex_coordinates(theta, r, a, b):
    """The closed-form extents equal the largest |affine coordinate| of
    each box's four vertices in the other's frame, over the nine anchors,
    for the w x h tile and the congruent candidates along (-a, 1) and
    (1, -b)."""
    tile = rotated_rectangle((0.3, -0.2), 1.0, r, theta)
    got = cover._route_extents(np.array([a]), np.array([b]), theta, r)[0]
    for route, dirs in enumerate(([(-s, 1.0) for s in a], [(1.0, -s) for s in b])):
        want = 0.0
        for o, d in zip(_NINE_OFFSETS, dirs):
            z = tile.center + o @ tile.edge_matrix.T
            cand = rotated_rectangle(z, 1.0, r, math.atan2(d[1], d[0]))
            want = max(want, np.abs(tile.affine_coords(cand.vertices())).max(),
                       np.abs(cand.affine_coords(tile.vertices())).max())
        assert got[route] == pytest.approx(want, rel=1e-12)


def _patch_bbox(phi):
    """The domain build_cover_general's saddle branch tiles for phi."""
    nmap, _, _ = cover._saddle_normalizer(phi)
    return nmap.inverse().image_bbox(UNIT_SQUARE)


@settings(max_examples=30, deadline=None)
@given(
    scale_degree=st.sampled_from([(0.0, 3), (1e-30, 3), (1e-40, 4), (0.05, 3)]),
    c=st.lists(st.floats(-1.0, 1.0), min_size=11, max_size=11),
    domain=st.sampled_from(["unit", "saddle", "tilted"]),
    e=st.sampled_from([4, 5, 6]),
)
# x y^2 alone on the saddle patch, which straddles x = 0: H22 = 2 c12 x, so
# the a slopes there span more than half the bound
@example(scale_degree=(0.05, 3), c=[0.0, 0.0, 1.0] + [0.0] * 8, domain="saddle", e=6)
@example(scale_degree=(1e-40, 4), c=[0.0, 0.0, 0.0, 1.0] + [0.0] * 7, domain="saddle", e=6)
def test_slope_spread_bound_covers_every_anchor(scale_degree, c, domain, e):
    """Wherever _build_hp_core passes a closed-form slope bound, every
    anchor of every candidate tiling is valid, and the float slopes
    differ by at most the bound between any two anchors, and between
    any anchor and the domain's corner, where the closed-form pass takes
    its slopes; on the normal-form class (scale 0, 1e-30, 1e-40) the
    bound is always there.  Domains are the unit square and the saddle
    patches of build_cover_general."""
    scale, degree = scale_degree
    terms = [(j, k) for j in range(degree + 1) for k in range(degree + 1 - j)
             if j + k >= 2 and (j, k) != (1, 1)]
    phi = BivariatePoly(degree, {(1, 1): 1.0, **{t: scale * x for t, x in zip(terms, c)}})
    box = {"unit": UNIT_SQUARE, "saddle": _patch_bbox(SADDLE),
           "tilted": _patch_bbox(_TILTED_SADDLE)}[domain]
    recorded, calls, grids = _recorded_levels(2.0 ** -e, box)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "tiling_flatness", _some_tiles_flat)
        mp.setattr(cover, "_whole_comparability", recorded)
        cover._build_hp_core(phi, 2.0 ** -e, 4.0, box)
    assert calls
    if scale < 1.0e-20:
        assert all(call.spread is not None for call in calls)
    for call in (call for call in calls if call.spread is not None):
        for _, grid in grids(call):
            a_f, b_f, valid = cover._anchor_slopes(phi, grid)
            assert valid.all()
            for f, at_z in ((a_f, call.a_z), (b_f, call.b_z)):
                assert f.max() - f.min() <= call.spread
                assert np.abs(f - at_z).max() <= call.spread


def test_hp_covers_decide_every_tiling_whole():
    """xy and the perturbed normal forms at 2^-6..2^-12: the closed-form
    pass decides every tiling from the slopes at one point per cover, so
    the per-tile rule never runs."""
    rng = np.random.default_rng(0)
    phases = [hyperbolic_phase(), perturbed_hyperbolic(3, rng), perturbed_hyperbolic(4, rng)]
    core, fields = cover._build_hp_core, cover.null_direction_fields
    points = []

    def counted_core(*args):
        points.append(0)
        return core(*args)

    def counted_fields(phi, pts):
        points[-1] += len(np.atleast_2d(pts))
        return fields(phi, pts)

    def per_tile(*args):
        raise AssertionError("the per-tile comparability rule ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "_build_hp_core", counted_core)
        mp.setattr(cover, "null_direction_fields", counted_fields)
        mp.setattr(cover, "_comparability_keep", per_tile)
        for phi in phases:
            for e in range(6, 13):
                build_cover_hp(phi, 2.0 ** -e)
    assert points == [1] * 21


def test_general_cover_on_uniformly_curved_phase():
    delta = 2.0 ** -5
    phi = hyperbolic_phase()
    cov = build_cover_general(phi, delta)
    rep = verify_cover(cov, phi)
    assert rep.ok
    # one curved patch, trivial normalization: the anisotropic builder
    # at the same constant produces the same family
    direct = build_cover_hp(phi, delta, a_const=cov.a_const)
    assert len(cov) == len(direct)
    pts = np.random.default_rng(3).uniform(0, 1, size=(300, 2))
    np.testing.assert_array_equal(
        cov.membership_counts(pts), direct.membership_counts(pts)
    )


def test_general_cover_on_degenerate_phase_gives_strips():
    delta = 2.0 ** -6
    phi = BivariatePoly(2, {(2, 0): 1.0})
    cov = build_cover_general(phi, delta)
    rep = verify_cover(cov, phi)
    assert rep.ok
    widths = []
    for box in cov.iter_members():
        w, h = box.side_lengths()
        # vertical strips through the whole domain
        assert h == pytest.approx(1.0)
        widths.append(w)
    assert sum(widths) == pytest.approx(1.0)
    # strip widths obey the one-dimensional cap scale: flat means
    # w^2 <= A*delta, and greedy growth makes all but the final
    # leftover strip essentially maximal
    cap = math.sqrt(cov.a_const * delta)
    assert max(widths) <= cap * (1 + 1e-9)
    for w in widths[:-1]:
        assert w >= cap * (1 - 1e-6)


def test_general_cover_on_mixed_cubic_phase():
    phi = BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})
    cov = build_cover_general(phi, 2.0 ** -5)
    rep = verify_cover(cov, phi)
    assert rep.ok


@settings(max_examples=8)
@given(
    kind=st.sampled_from(["bowl", "cubic"]),
    c=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    e=st.sampled_from([4, 5]),
)
@example(kind="bowl", c=(1.0, 0.0, 0.625, 0.0), e=4)  # x^2+y^2+0.8x^3+0.5xy^2
def test_general_cover_members_are_flat(kind, c, e):
    """Bowl phases (x^2+y^2 plus small cubic terms) and mixed cubics near
    x^3+y^3+xy: every member passes the sampled defect estimate at
    A*delta, and verify_cover accepts the cover."""
    if kind == "bowl":
        cubic = {(3, 0): 0.8 * c[0], (2, 1): 0.8 * c[1], (1, 2): 0.8 * c[2], (0, 3): 0.8 * c[3]}
        phi = BivariatePoly(3, {(2, 0): 1.0, (0, 2): 1.0, **cubic})
    else:
        phi = BivariatePoly(3, {(3, 0): 1.0 + 0.05 * c[0], (0, 3): 1.0 + 0.05 * c[1],
                                (1, 1): 1.0, (2, 1): 0.05 * c[2], (1, 2): 0.05 * c[3]})
    delta = 2.0 ** -e
    cov = build_cover_general(phi, delta)
    limit = cov.a_const * delta
    for member in cov.iter_members():
        assert flat_defect(phi, member, m=13, polish=False, method="sample").defect <= limit
    assert verify_cover(cov, phi).ok


GENERAL_PHASES = {
    "x^3 2^-4": ({(3, 0): 1.0}, 4),
    "x^2+0.3x^3 2^-6": ({(2, 0): 1.0, (3, 0): 0.3}, 6),
    "bowl 2^-6": ({(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.8, (1, 2): 0.5}, 6),
    "demo cubic 2^-8": ({(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0}, 8),
    "saddle cubic 2^-4": ({(1, 1): 1.0, (3, 0): 0.6, (0, 3): -0.4}, 4),
    "mixed saddle 2^-5": ({(2, 0): 1.0, (0, 2): -0.5, (1, 1): 0.3, (3, 0): 0.1}, 5),
}


@pytest.mark.parametrize("name", list(GENERAL_PHASES))
def test_general_cover_members_are_certified_without_sampling(name, monkeypatch):
    """Every member the general builder emits has a certified upper
    defect end at most A*delta, and neither the builder nor verify_cover
    samples: the strip, bowl, saddle and mixed routes all decide by the
    bracket alone."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("a flatness decision sampled the defect")

    monkeypatch.setattr(flatness, "_sample_grid", no_sampling)
    monkeypatch.setattr(flatness, "_polish", no_sampling)
    coeffs, e = GENERAL_PHASES[name]
    phi = BivariatePoly(3, coeffs)
    delta = 2.0 ** -e
    cov = build_cover_general(phi, delta)
    limit = cov.a_const * delta
    for member in cov.iter_members():
        assert flat_defect_interval(phi, member)[1] <= limit
    assert verify_cover(cov, phi).ok


def _member_digest(cov):
    """sha256 of every member's (center, e1, e2), in iteration order."""
    rows = np.array([m.center + m.e1 + m.e2 for m in cov.iter_members()], dtype=float)
    return len(rows), hashlib.sha256(rows.tobytes()).hexdigest()


_DEMO_CUBIC = {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0}
_BOWL = {(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.8, (1, 2): 0.5}


@pytest.mark.parametrize("coeffs, e, members, digest", [
    (_DEMO_CUBIC, 5, 16, "9a72b51666f772565549a0d3716330e5eb79bebecfd7d6b6d032913095ed1d6d"),
    (_DEMO_CUBIC, 8, 244, "fd4805592abce9afab713f9dd7c948821d56039cae9ba150c827d8fa274888bb"),
    (_BOWL, 4, 16, "9a72b51666f772565549a0d3716330e5eb79bebecfd7d6b6d032913095ed1d6d"),
    (_BOWL, 6, 64, "6af85f26b2882a74c64797e82b1face2bb8f824f2f9e30d2db55c09b7b33cc48"),
], ids=["cubic-2^-5", "cubic-2^-8", "bowl-2^-4", "bowl-2^-6"])
def test_general_cover_members_are_pinned(coeffs, e, members, digest):
    """General covers of the demo cubic and the bowl, bit for bit: any
    change to the builder's arithmetic or route choice moves a digest.
    (Both coarse covers are the 4 x 4 square caps.)"""
    cov = build_cover_general(BivariatePoly(3, coeffs), 2.0 ** -e)
    assert _member_digest(cov) == (members, digest)


def test_general_cover_returns_where_no_strip_width_is_certified(time_limit):
    """A degenerate patch of this cubic rotates well, but even a full-height
    strip 1e-9 wide is not certified flat; the patch goes to the square
    dichotomy instead of stepping towards 100,000 uncertified strips."""
    phi = BivariatePoly(3, {(3, 0): 0.751495474652098, (0, 3): 1.206956080884166,
                            (1, 1): -0.26423852217696653, (1, 2): 0.2618652371052019})
    delta = 2.0 ** -8
    with time_limit(30):
        cov = build_cover_general(phi, delta)
    members = list(cov.iter_members())
    limit = cov.a_const * delta
    for member in members:
        assert flat_defect(phi, member, m=9, polish=False, method="sample").defect <= limit
    pts = cover._sample_points(UNIT_SQUARE, 64)
    covered = np.zeros(len(pts), dtype=bool)
    for member in members:
        covered |= member.contains(pts)
    assert covered.all()


def _scan_best_rotation(phi):
    """The rotation search scored angle by angle with
    ``_rotation_residual``: the oracle of the batched grid."""
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 181)
    vals = [cover._rotation_residual(phi, t) for t in thetas]
    i = int(np.argmin(vals))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, len(thetas) - 1)]
    gold = (math.sqrt(5) - 1) / 2
    x1 = hi - gold * (hi - lo)
    x2 = lo + gold * (hi - lo)
    f1, f2 = cover._rotation_residual(phi, x1), cover._rotation_residual(phi, x2)
    for _ in range(60):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - gold * (hi - lo)
            f1 = cover._rotation_residual(phi, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + gold * (hi - lo)
            f2 = cover._rotation_residual(phi, x2)
    theta = x1 if f1 <= f2 else x2
    return float(theta), float(min(f1, f2, vals[i]))


_TIE_PRONE = {
    "x^4+y^4": (4, {(4, 0): 1.0, (0, 4): 1.0}),
    "x^3+y^3": (3, {(3, 0): 1.0, (0, 3): 1.0}),
    "x^2+y^2": (2, {(2, 0): 1.0, (0, 2): 1.0}),
    "xy": (2, {(1, 1): 1.0}),
    "x^2": (2, {(2, 0): 1.0}),
    "zero": (3, {}),
    "demo cubic": (3, _DEMO_CUBIC),
    "x^4+y^4+x^2y^2": (4, {(4, 0): 1.0, (0, 4): 1.0, (2, 2): 2.0}),
    # mirror-symmetric phases whose grid minima come in rounded pairs:
    # the batched minimum alone picks the wrong one of the pair
    "x^3+y^3+c(x^2y+xy^2)": (3, {(3, 0): 1.0, (0, 3): 1.0, (2, 1): 0.15377713897352452,
                                 (1, 2): 0.15377713897352452}),
    "x^4+a x^2y^2+b y^4": (4, {(4, 0): 1.0, (2, 2): 2.7898064638784144,
                               (0, 4): -0.5901826566688948}),
}


@pytest.mark.parametrize("name", list(_TIE_PRONE))
def test_best_rotation_matches_scalar_scan_on_tie_prone_phases(name):
    degree, coeffs = _TIE_PRONE[name]
    phi = BivariatePoly(degree, coeffs)
    assert cover._best_rotation(phi, math.inf) == _scan_best_rotation(phi)


@settings(max_examples=60)
@given(degree=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]),
       mirror=st.sampled_from([None, "y -> -y", "x <-> y"]))
def test_best_rotation_matches_scalar_scan(degree, seed, scale, mirror):
    """Batched grid plus exact re-scoring picks the scan's angle and
    value, bit for bit, on random phases of any size, and on phases
    symmetric under a mirror, whose residuals tie in exact arithmetic."""
    rng = np.random.default_rng(seed)
    coeffs = {(j, k): scale * float(rng.normal())
              for j in range(degree + 1) for k in range(degree + 1 - j)
              if rng.uniform() < 0.6}
    if mirror == "y -> -y":
        coeffs = {(j, k): a for (j, k), a in coeffs.items() if k % 2 == 0}
    elif mirror == "x <-> y":
        coeffs = {(j, k): coeffs.get((min(j, k), max(j, k)), 0.0) for (j, k) in
                  [(j, k) for j in range(degree + 1) for k in range(degree + 1 - j)]}
    phi = BivariatePoly(degree, coeffs)
    assert cover._best_rotation(phi, math.inf) == _scan_best_rotation(phi)


@settings(max_examples=60)
@given(degree=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_floor_never_exceeds_the_scan(degree, seed):
    """The floor of the batched grid is at most the residual the scalar
    scan returns, on random phases with coefficients of size 1e-3..10;
    and ``_best_rotation`` gives no route exactly when that residual is
    above the limit, the scan's angle and value otherwise."""
    rng = np.random.default_rng(seed)
    coeffs = {(j, k): float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.0))
              for j in range(degree + 1) for k in range(degree + 1 - j)
              if rng.uniform() < 0.6}
    phi = BivariatePoly(degree, coeffs)
    approx, tol = cover._rotation_residuals(phi, np.linspace(-math.pi / 2, math.pi / 2, 181))
    floor = cover._rotation_floor(phi, approx, tol)
    theta, residual = _scan_best_rotation(phi)
    assert floor <= residual
    for limit in (floor, residual, math.nextafter(residual, -math.inf), 0.5 * residual,
                  2.0 * residual, 0.25):
        if not limit >= 0.0:
            continue
        want = (theta, residual) if residual <= limit else None
        assert cover._best_rotation(phi, limit) == want


def test_batched_rotation_residuals_lie_within_their_bound():
    phi = BivariatePoly(4, {(4, 0): 1.0, (0, 4): -0.7, (3, 1): 0.3, (1, 1): 2.0, (2, 1): 0.5})
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 181)
    approx, tol = cover._rotation_residuals(phi, thetas)
    exact = np.array([cover._rotation_residual(phi, t) for t in thetas])
    assert 0.0 < tol < 1e-11
    assert np.all(np.abs(approx - exact) <= tol / 4)


@pytest.mark.parametrize("coeffs, e", [
    ({(2, 0): 1.0, (0, 2): 1.0, (3, 0): 0.8, (1, 2): 0.5}, 4),
    ({(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0}, 5),
])
def test_verify_cover_passes_exactly_from_min_a_flat(coeffs, e):
    phi = BivariatePoly(3, coeffs)
    cov = build_cover_general(phi, 2.0 ** -e)
    a_min = verify_cover(cov, phi).min_a_flat
    assert verify_cover(cov, phi, a_const=a_min).all_flat
    assert not verify_cover(cov, phi, a_const=a_min * (1 - 1e-9)).all_flat


def test_cover_json_round_trip_members_and_counts():
    rng = np.random.default_rng(5)
    for cov in (
        canonical_caps(2.0 ** -4),
        hp_axis_family(2.0 ** -4),
        normal_axis_family(SADDLE, 2.0 ** -6),
    ):
        blob = json.dumps(cov.to_json_dict(), sort_keys=True)
        cov2 = FlatCover.from_json_dict(json.loads(blob))
        assert len(cov2) == len(cov)
        assert cov2.kind == cov.kind
        assert cov2.a_const == cov.a_const
        pts = rng.uniform(0, 1, size=(200, 2))
        np.testing.assert_array_equal(
            cov2.membership_counts(pts), cov.membership_counts(pts)
        )
        blob2 = json.dumps(cov2.to_json_dict(), sort_keys=True)
        assert blob2 == blob


def test_cover_json_rejects_malformed():
    with pytest.raises(ValueError):
        FlatCover.from_json_dict({"delta": 0.25})


def test_sample_members_reproducible_and_valid():
    cov = hp_axis_family(2.0 ** -6)
    picks = cov.sample_members(np.random.default_rng(42), 25)
    again = cov.sample_members(np.random.default_rng(42), 25)
    assert len(picks) == 25
    for a, b in zip(picks, again):
        assert a.center == b.center and a.e1 == b.e1
    # sampled boxes really are members
    member_keys = {(m.center, m.e1, m.e2) for m in cov.iter_members()}
    for box in picks:
        assert (box.center, box.e1, box.e2) in member_keys


def test_sample_members_draws_uniformly_in_member_order():
    cov = build_cover_hp(hyperbolic_phase(), 2.0 ** -6, 4.0)
    cov.loose.append(axis_rectangle(0.0, 0.0, 0.5, 0.5))
    members = list(cov.iter_members())
    picks = cov.sample_members(np.random.default_rng(7), 40)
    draws = np.random.default_rng(7).integers(0, len(members), size=40)
    for box, r in zip(picks, draws):
        want = members[r]
        assert (box.center, box.e1, box.e2) == (want.center, want.e1, want.e2)


def test_verify_cover_flags_undersized_constant():
    cov = canonical_caps(2.0 ** -4)
    rep = verify_cover(cov, hyperbolic_phase(), a_const=0.5)
    assert not rep.all_flat
    assert not rep.ok
    assert rep.min_a_flat == pytest.approx(1.0)


def test_verify_cover_sees_loose_members():
    cov = canonical_caps(2.0 ** -4)
    cov.loose.append(axis_rectangle(0.0, 0.0, 1.0, 1.0))
    rep = verify_cover(cov, hyperbolic_phase(), a_const=1.0)
    assert not rep.all_flat
    assert rep.worst_defect == pytest.approx(1.0)


def test_overlap_profile_guards_resolution():
    with pytest.raises(ValueError):
        overlap_profile(canonical_caps(2.0 ** -4), n=8)
