import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover.cover import FlatCover, FramedGroups, canonical_caps, hp_axis_family, normal_axis_family
from flatcover.geometry import make_tile_grid, rotated_rectangle
from flatcover.lattice import (
    FrequencyLattice,
    discrete_restriction_ratio,
    lambda_grid,
    max_flat_multiplicity,
    pell_convergents,
    pell_gap,
)
from flatcover.poly2 import BivariatePoly, hyperbolic_phase

SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})


def test_lambda_grid_extent_and_spacing():
    lat = lambda_grid(0.125, 1.0)
    assert len(lat) == 9 * 9
    pts = lat.points()
    assert pts.min() >= 0.0 and pts.max() <= 1.0 + 1e-12
    assert sorted(set(np.round(np.diff(sorted(set(pts[:, 0]))), 12))) == [0.125]

    irr = lambda_grid(0.125, math.sqrt(2.0))
    assert len(irr) == 9 * 6  # floor(8 / sqrt(2)) = 5 rows above zero
    assert irr.points()[:, 1].max() <= 1.0 + 1e-12

    with pytest.raises(ValueError):
        lambda_grid(0.3, 1.0)
    with pytest.raises(ValueError):
        lambda_grid(0.125, -1.0)


def test_lambda_grid_refuses_huge_lattices_before_building(time_limit):
    """9 x 8,000,000,001 points would take tens of GB of index arrays; the
    count is refused first, and so are counts past float range."""
    with time_limit(5):
        with pytest.raises(ValueError, match=r"the lattice has 7.2e\+10 points"):
            lambda_grid(2.0 ** -3, 1e-9)
        with pytest.raises(ValueError, match="the lattice has inf points"):
            lambda_grid(5e-324, 1.0)


def test_lattice_to_exp_sum_consistency():
    lat = lambda_grid(0.25, 1.0)
    f = lat.to_exp_sum(hyperbolic_phase())
    assert len(f) == len(lat)
    np.testing.assert_allclose(f.weights, 1.0)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    g = lat.to_exp_sum(hyperbolic_phase(), w)
    np.testing.assert_allclose(g.weights, w)


def brute_count(lat, box, tol):
    """Direct per-point reimplementation of the neighborhood test."""
    hits = 0
    verts = box.vertices()
    for pt in lat.points():
        coords = box.affine_coords(pt[None, :])[0]
        if np.max(np.abs(coords)) > 1.0 + tol:
            continue
        if np.max(np.abs(coords)) <= 1.0:
            hits += 1
            continue
        best = math.inf
        for k in range(4):
            p0, p1 = verts[k], verts[(k + 1) % 4]
            seg = p1 - p0
            t = min(max(float((pt - p0) @ seg / (seg @ seg)), 0.0), 1.0)
            best = min(best, float(np.linalg.norm(pt - (p0 + t * seg))))
        if best <= tol * (1 + 1e-12):
            hits += 1
    return hits


def one_member_count(lat, box, phi, tol):
    """``max_flat_multiplicity`` of the cover whose one member is box."""
    return max_flat_multiplicity(FlatCover(tol, 1.0, loose=[box]), lat, phi, tol)[0]


def test_one_member_count_matches_brute_force():
    lat = lambda_grid(2.0 ** -4, 1.0)
    rng = np.random.default_rng(6)
    for _ in range(12):
        box = rotated_rectangle(
            tuple(rng.uniform(0.2, 0.8, size=2)),
            rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
            rng.uniform(0, math.pi),
        )
        for tol in (0.0, 2.0 ** -6, 2.0 ** -4):
            got = one_member_count(lat, box, hyperbolic_phase(), tol)
            assert got == brute_count(lat, box, tol)


def test_max_flat_multiplicity_grid_path_equals_member_loop():
    """The wholesale grid counting must agree with counting each member
    on its own, for plain, multi-level and framed covers."""
    phi = hyperbolic_phase()
    cases = [
        (canonical_caps(2.0 ** -4), phi, lambda_grid(2.0 ** -4, 1.0)),
        (hp_axis_family(2.0 ** -4), phi, lambda_grid(2.0 ** -4, math.sqrt(2.0))),
        (normal_axis_family(SADDLE, 2.0 ** -6), SADDLE, lambda_grid(2.0 ** -2, 1.0)),
    ]
    for cov, ph, lat in cases:
        best, hist = max_flat_multiplicity(cov, lat, ph)
        counts = [one_member_count(lat, m, ph, cov.delta)
                  for m in cov.iter_members()]
        assert best == max(counts)
        want = {}
        for c in counts:
            want[c] = want.get(c, 0) + 1
        assert hist == want


def test_max_flat_multiplicity_respects_tol_argument():
    cov = canonical_caps(2.0 ** -4)
    lat = lambda_grid(2.0 ** -6, 1.0)
    tight, _ = max_flat_multiplicity(cov, lat, hyperbolic_phase(), tol=0.0)
    loose, _ = max_flat_multiplicity(cov, lat, hyperbolic_phase(), tol=0.125)
    assert tight == 17 * 17  # closed caps hold a 17x17 block of the 2^-6 net
    assert loose > tight


@settings(max_examples=20)
@given(
    e=st.integers(3, 4), alpha=st.floats(0.2, 1.0),
    k1=st.integers(1, 4), k2=st.integers(1, 4),
)
def test_zero_tol_counts_take_lattice_points_on_tile_edges(e, alpha, k1, k2):
    """Tiles of k1 x k2 lattice cells have lattice points on their edges
    and vertices, up to rounding; at tol = 0 both counting paths take
    each of them in every closed tile that contains it."""
    delta = 2.0 ** -e
    lat = lambda_grid(delta, alpha)
    grid = make_tile_grid(k1 * delta, k2 * alpha * delta, 0.0)
    cov = FlatCover(delta, 1.0, [FramedGroups(None, [grid])])
    pts = lat.points()
    want = [int(np.count_nonzero(t.contains(pts))) for t in grid.tiles()]
    got = [one_member_count(lat, t, hyperbolic_phase(), 0.0) for t in grid.tiles()]
    assert got == want
    best, hist = max_flat_multiplicity(cov, lat, hyperbolic_phase(), tol=0.0)
    assert best == max(want)
    assert hist == {c: want.count(c) for c in set(want)}


def test_pell_gap_matches_integer_brute_force():
    b_max, eps = 500, 0.1
    got = pell_gap(b_max, eps)
    best = None
    for b in range(1, b_max + 1):
        a = -round(math.sqrt(2.0) * b)
        num = abs(a * a - 2 * b * b)  # exact integers
        gap = num / (math.sqrt(2.0) * b - a)
        prod = gap * b ** (1.0 + eps)
        if best is None or prod < best[0]:
            best = (prod, a, b, gap)
    assert got.product == pytest.approx(best[0], rel=1e-12)
    assert (got.a, got.b) == (best[1], best[2])
    # the numerator never vanishes: 2 is not a square
    assert got.gap > 0


def test_pell_gap_has_a_positive_floor():
    # |a^2-2b^2| >= 1 forces gap >= 1/(a+sqrt2 b) ~ 1/(2 sqrt2 b), so
    # the product with b^(1+eps) cannot sink toward zero
    rep = pell_gap(10 ** 5, 0.1)
    assert rep.product >= 0.2
    with pytest.raises(ValueError):
        pell_gap(0, 0.1)
    with pytest.raises(ValueError):
        pell_gap(10 ** 7, 0.1)


def test_pell_convergents_are_the_sqrt2_ones():
    got = pell_convergents(200)
    assert got == [(-1, 1), (-3, 2), (-7, 5), (-17, 12), (-41, 29),
                   (-99, 70), (-239, 169)]
    for a, b in got:
        assert abs(a * a - 2 * b * b) == 1


def test_discrete_restriction_p2_is_parseval():
    lat = lambda_grid(0.25, 1.0)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    assert discrete_restriction_ratio(lat, w, SADDLE, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert discrete_restriction_ratio(lat, None, SADDLE, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_discrete_restriction_p4_counts_quadruples():
    """p=4 fourth power times l2^4 equals the number of additive
    quadruples of lifted lattice points, counted directly."""
    lat = lambda_grid(0.25, 1.0)
    d = 3
    ratio = discrete_restriction_ratio(lat, None, SADDLE, 4.0, d=d)
    pts = lat.points()
    lift = np.column_stack([pts, SADDLE.eval(pts[:, 0], pts[:, 1])])
    r = lat.delta ** (-d)
    ints = np.round(lift * r).astype(np.int64)
    n = len(ints)
    sums = ints[:, None, :] + ints[None, :, :]
    flat = sums.reshape(n * n, 3)
    _, counts = np.unique(flat, axis=0, return_counts=True)
    energy = int(np.sum(counts.astype(object) ** 2))
    assert ratio ** 4 * n ** 2 == pytest.approx(energy, rel=1e-10)


def test_discrete_restriction_validates_p():
    lat = lambda_grid(0.25, 1.0)
    for bad in (1.5, 3.0, 4.5, 6.0):
        with pytest.raises(ValueError):
            discrete_restriction_ratio(lat, None, SADDLE, bad)
