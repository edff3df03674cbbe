import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import rfftn

from flatcover import norms
from flatcover.cover import (
    FlatCover,
    build_cover_general,
    build_cover_hp,
    canonical_caps,
    hp_axis_family,
)
from flatcover.geometry import axis_rectangle
from flatcover.norms import (
    METHODS,
    Box3,
    ExpSum,
    assign_frequencies,
    bump_example,
    decoupling_report,
    expsum_lp,
    line_example,
    lp_norm,
    product_exp_sum,
    random_product_example,
    sample_exp_sum,
    slope_fit,
    snap_lift,
    stein_tomas_ratio,
    strip_example,
)
from flatcover.poly2 import BivariatePoly, elliptic_phase, hyperbolic_phase


def _dense_fft_norm(lifted, weights, p, r, max_cells=1 << 22):
    """Independent even-p reference: snap to the (1/r)-grid, merge equal
    rows in row order, and take the mean of |f|^p over a dense period grid
    of q*extent+1 points per axis (no gcd, no shear); None when too big."""
    acc = {}
    for row, w in zip(map(tuple, np.round(r * lifted).astype(np.int64).tolist()), weights):
        acc[row] = acc.get(row, 0) + w
    ints = np.array(list(acc), dtype=np.int64)
    ints -= ints.min(axis=0)
    shape = tuple(int(p // 2 * e + 1) for e in ints.max(axis=0))
    if math.prod(shape) > max_cells:
        return None
    z = np.zeros(shape, dtype=complex)
    z[tuple(ints.T)] = list(acc.values())
    g = np.fft.ifftn(z) * math.prod(shape)
    return float(np.mean(np.abs(g) ** p)) ** (1.0 / p)


def _on_path(path: str, f: ExpSum, p: float, r: float):
    """expsum_lp of f with its product members sent down one path:
    "separable" (no energy bound fits), "energy" (no field fits),
    "fallback" (neither fits, so the product sum itself is counted by
    whole-sum pairs) or "pairs" (the whole sum, its lift snapped per
    factor, with no field and no factors)."""
    def huge(x, starts):
        return np.full(len(starts), 1 << 60)

    with pytest.MonkeyPatch.context() as m:
        if path in ("separable", "fallback"):
            m.setattr(norms, "_energy_bound", huge)
        if path != "separable":
            m.setattr(norms, "_FFT_BUDGET", 0)
        if path == "pairs":
            f = ExpSum(f.phase, f.freqs, f.weights, lift=snap_lift(f, r).lift)
        rep = expsum_lp(f, p, r)
    assert rep.method == ("pairs" if path == "fallback" else path)
    return rep


def test_exp_sum_validation():
    phi = hyperbolic_phase()
    with pytest.raises(ValueError):
        ExpSum(phi, [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])  # duplicate freqs
    with pytest.raises(ValueError):
        ExpSum(phi, [[0.0, 0.0]], [1.0, 2.0])  # count mismatch
    with pytest.raises(ValueError):
        ExpSum(phi, [[0.0, 0.0]], [np.nan])


def test_exp_sum_rejects_repeated_frequencies():
    phi = hyperbolic_phase()
    rows = [[0.5, 0.25], [0.0, 1.0], [0.25, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        ExpSum(phi, rows, np.ones(4))
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        ExpSum(phi, [[0.0, 1.0], [0.0, 0.5], [0.0, 1.0]], np.ones(3))
    # +0.0 and -0.0 are one frequency
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        ExpSum(phi, [[0.0, 0.5], [0.25, 0.5], [-0.0, 0.5]], np.ones(3))
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        ExpSum(phi, [[0.5, -0.0], [0.5, 0.0]], np.ones(2))
    f = ExpSum(phi, rows[:3], np.ones(3))
    assert len(f.subset(np.array([2, 0]))) == 2
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        f.subset(np.array([0, 2, 0]))


def test_product_exp_sum_matches_dense_weights():
    # additively separable phase, so the product structure is recorded
    phi = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
    xs = np.array([0.0, 0.25, 0.5])
    ys = np.array([0.0, 0.125])
    xw = np.array([1.0, 2.0, -1.0], dtype=complex)
    yw = np.array([1.0, 1j], dtype=complex)
    f = product_exp_sum(phi, xs, ys, xw, yw)
    assert len(f) == 6
    assert f.factors is not None
    for (x, y), w in zip(f.freqs, f.weights):
        i = np.where(xs == x)[0][0]
        j = np.where(ys == y)[0][0]
        assert w == pytest.approx(xw[i] * yw[j])
    assert f.l2_weight() == pytest.approx(
        np.linalg.norm(xw) * np.linalg.norm(yw)
    )


def test_lifted_heights_follow_the_phase():
    phi = hyperbolic_phase()
    f = bump_example(phi, (0.0, 0.0, 1.0, 1.0), 0.25)
    lifted = f.lifted()
    np.testing.assert_allclose(
        lifted[:, 2], lifted[:, 0] * lifted[:, 1], atol=1e-12
    )


def test_snap_lift_moves_heights_to_grid():
    phi = hyperbolic_phase()
    delta = 2.0 ** -4
    r = 1.0 / delta
    f = bump_example(phi, (0.0, 0.0, 1.0, 1.0), delta)
    g = snap_lift(f, r)
    heights = g.lifted()[:, 2]
    np.testing.assert_allclose(heights * r, np.round(heights * r), atol=1e-12)
    assert np.max(np.abs(heights - f.lifted()[:, 2])) <= 0.5 / r + 1e-15
    with pytest.raises(ValueError):
        snap_lift(f, 0.0)
    # product structure survives snapping when the phase is separable
    sep = bump_example(BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0}),
                       (0.0, 0.0, 1.0, 1.0), delta)
    snapped = snap_lift(sep, r)
    assert snapped.factors is not None
    np.testing.assert_allclose(snapped.lifted()[:, 2] * r,
                               np.round(snapped.lifted()[:, 2] * r), atol=1e-12)


def test_sample_exp_sum_is_the_plain_sum():
    phi = hyperbolic_phase()
    f = product_exp_sum(phi, np.array([0.0, 0.5]), np.array([0.0, 0.25]),
                        np.array([1.0, 1j]), np.array([2.0, -1.0]))
    box = Box3((0.3, -0.2, 0.1), 2.0)
    field = sample_exp_sum(f, box, 12)
    # brute force at one grid point
    i = (3, 7, 5)
    axes = [box.center[k] - 1.0 + 2.0 * (np.arange(12) + 0.5) / 12 for k in range(3)]
    x = np.array([axes[0][i[0]], axes[1][i[1]], axes[2][i[2]]])
    direct = np.sum(f.weights * np.exp(2j * np.pi * (f.lifted() @ x)))
    assert field[i] == pytest.approx(direct, rel=1e-12)


def test_sample_exp_sum_guards():
    phi = hyperbolic_phase()
    f = product_exp_sum(phi, np.array([0.0, 8.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        sample_exp_sum(f, Box3((0, 0, 0), 4.0), 16)  # aliasing
    with pytest.raises(ValueError):
        sample_exp_sum(f, Box3((0, 0, 0), 0.5), 400)  # grid too large
    with pytest.raises(ValueError):
        lp_norm(sample_exp_sum(f, Box3((0, 0, 0), 0.5), 16), 0.5)


def test_expsum_lp_matches_direct_riemann_mean():
    """Even-p norms from the reduced-lattice engine must equal the
    honest midpoint-grid mean of |f|^p over one period box."""
    phi = hyperbolic_phase()
    delta = 0.25
    r = 1.0 / delta
    f = snap_lift(bump_example(phi, (0.0, 0.0, 1.0, 1.0), delta), r)
    lifted = f.lifted()
    kmax = int(round(np.max(np.abs(lifted)) * r))
    for p in (2.0, 4.0, 6.0):
        rep = expsum_lp(f, p, r)
        assert rep.exact
        assert rep.snap_max == 0.0  # pre-snapped
        n = int(p) * kmax + 1
        field = sample_exp_sum(f, Box3((r / 2, r / 2, r / 2), r), n)
        brute = lp_norm(field, p)
        assert rep.value == pytest.approx(brute, rel=1e-10)


def test_expsum_lp_parseval_at_p2():
    rng = np.random.default_rng(12)
    f = random_product_example(hyperbolic_phase(), 2.0 ** -3, rng)
    g = snap_lift(f, 2.0 ** 3)
    rep = expsum_lp(g, 2.0, 2.0 ** 3)
    assert rep.exact
    assert rep.method == "parseval"
    assert rep.value == pytest.approx(g.l2_weight(), rel=1e-12)


def test_expsum_lp_sup_is_attained_by_unit_weights():
    # all weights positive at frequency zero phase alignment: sup = sum
    f = line_example(2.0 ** -4)
    rep = expsum_lp(f, math.inf, 2.0 ** 4)
    assert rep.value == pytest.approx(float(len(f)), rel=1e-9)
    assert not rep.exact  # lattice max is declared a lower bound


def test_expsum_lp_validates():
    f = line_example(2.0 ** -2)
    with pytest.raises(ValueError):
        expsum_lp(f, 0.5, 4.0)
    with pytest.raises(ValueError):
        expsum_lp(f, 4.0, 0.0)


def test_each_engine_pass_returns_freed_heap(monkeypatch):
    # what a norm leaves resident must not depend on where glibc placed its
    # freed fields: every pass of the engine ends with one malloc_trim(0)
    calls = []
    monkeypatch.setattr(norms, "_malloc_trim", lambda: calls.append)
    f = line_example(2.0 ** -4)
    expsum_lp(f, 4.0, 16.0)
    assert calls == [0]
    cover = build_cover_hp(hyperbolic_phase(), 2.0 ** -4)
    decoupling_report(f, cover, 4.0, box_side=16.0)
    assert calls == [0, 0, 0]


def test_assign_frequencies_sharp_partition():
    delta = 2.0 ** -4
    cov = canonical_caps(delta)
    f = bump_example(hyperbolic_phase(), (0.0, 0.0, 1.0, 1.0), delta)
    subsets, counts = assign_frequencies(f, cov, tol=0.0)
    np.testing.assert_array_equal(counts, 1)
    assert sum(len(s) for s in subsets) == len(f)
    # stadium assignment keeps everyone covered but duplicates edges
    _, stadium = assign_frequencies(f, cov, tol=None)
    assert stadium.min() >= 1
    assert stadium.max() >= 2


def test_assign_frequencies_hp_cover_at_tol_delta_matches_per_member_check():
    """hp tiles have height delta * alpha, so at alpha = 1 the default
    tol = delta equals a tile side: tiles two cells away from a
    frequency's own cell are at distance exactly tol and must be found."""
    delta = 2.0 ** -4
    cov = build_cover_hp(hyperbolic_phase(), delta, 4.0)
    f = random_product_example(hyperbolic_phase(), delta, np.random.default_rng(0))
    subsets, counts = assign_frequencies(f, cov, tol=delta)
    want = []
    for box in cov.iter_members():
        x = box.affine_coords(f.freqs)
        a, b = (0.5 * s for s in box.side_lengths())
        dist = np.hypot(a * np.maximum(np.abs(x[:, 0]) - 1.0, 0.0),
                        b * np.maximum(np.abs(x[:, 1]) - 1.0, 0.0))
        block = np.flatnonzero(dist <= delta * (1 + 1e-12))
        if len(block):
            want.append(tuple(block.tolist()))
    assert sorted(tuple(sorted(s.tolist())) for s in subsets) == sorted(want)
    assert len(subsets) == 898
    np.testing.assert_array_equal(
        counts, np.bincount(np.concatenate(subsets), minlength=len(f)))


def test_assign_frequencies_rejects_uncovered():
    cov = canonical_caps(2.0 ** -4)
    stray = ExpSum(hyperbolic_phase(), [[1.7, 0.2]], [1.0])
    with pytest.raises(ValueError):
        assign_frequencies(stray, cov, tol=0.0)


def test_decoupling_single_member_is_trivial():
    delta = 2.0 ** -4
    f = snap_lift(bump_example(hyperbolic_phase(), (0, 0, 1, 1), delta), 1 / delta)
    cov = FlatCover(delta, 4.0, [], [axis_rectangle(-0.1, -0.1, 1.1, 1.1)])
    rep = decoupling_report(f, cov, 4.0)
    assert rep.members_used == 1
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_decoupling_p2_partition_is_identity():
    # Parseval: against any partition of the frequencies the p=2 ratio
    # is exactly one
    delta = 2.0 ** -4
    f = snap_lift(bump_example(hyperbolic_phase(), (0, 0, 1, 1), delta), 1 / delta)
    for cov in (canonical_caps(delta), hp_axis_family(delta)):
        rep = decoupling_report(f, cov, 2.0, tol=0.0)
        per_level = assign_frequencies(f, cov, 0.0)[1].max()
        assert rep.ratio * math.sqrt(per_level) == pytest.approx(1.0, rel=1e-9)


def test_decoupling_line_example_additive_energy():
    """The line input against the square partition has a closed form:
    ||f||_4^4 is the additive energy (2n^3+n)/3 of {0..n-1} and each of
    the n caps holds one unit frequency."""
    delta = 2.0 ** -6
    n = 8
    f = line_example(delta)
    assert len(f) == n
    rep = decoupling_report(f, canonical_caps(delta), 4.0, tol=0.0)
    energy = (2 * n ** 3 + n) / 3.0
    assert rep.exact
    assert rep.lhs ** 4 == pytest.approx(energy, rel=1e-10)
    assert rep.members_used == n
    assert rep.rhs == pytest.approx(math.sqrt(n), rel=1e-12)
    assert rep.ratio == pytest.approx((energy / n ** 2) ** 0.25, rel=1e-10)


@settings(max_examples=30)
@given(
    xs=st.sets(st.integers(0, 2), min_size=1, max_size=3),
    ys=st.sets(st.integers(0, 2), min_size=2, max_size=3),
    coeffs=st.tuples(st.integers(1, 3), st.integers(-2, 2),
                     st.integers(-2, 2), st.integers(-1, 1)),
    p=st.sampled_from([4, 6]),
    seed=st.integers(0, 2 ** 16),
)
def test_exact_paths_agree_on_separable_products(xs, ys, coeffs, p, seed):
    """Separable, energy, fft, pairs and brute-force sampling give one
    value for product sums with asymmetric separable integer phases, where
    the two factors' height gcds differ (e.g. 2x^2 + y^2 on {0,1,2}^2)."""
    a, b, c, e = coeffs
    phi = BivariatePoly(3, {(2, 0): float(a), (0, 2): 1.0, (1, 0): float(b),
                            (0, 1): float(c), (3, 0): float(e)})
    rng = np.random.default_rng(seed)
    xs, ys = np.array(sorted(xs), float), np.array(sorted(ys), float)
    f = product_exp_sum(phi, xs, ys,
                        rng.standard_normal(len(xs)) + 1j * rng.standard_normal(len(xs)),
                        rng.standard_normal(len(ys)) + 1j * rng.standard_normal(len(ys)))
    assert f.factors is not None
    sep = _on_path("separable", f, p, 1.0)
    plain = ExpSum(f.phase, f.freqs, f.weights)
    values = {
        "auto": expsum_lp(f, p, 1.0).value,
        "plain": expsum_lp(plain, p, 1.0).value,
        "fft": _dense_fft_norm(plain.lifted(), plain.weights, p, 1.0),
    }
    if p == 4:
        values["energy"] = _on_path("energy", f, p, 1.0).value
        values["pairs"] = _on_path("pairs", f, p, 1.0).value
    kmax = int(np.max(np.abs(f.lifted())))
    field = sample_exp_sum(f, Box3((0.5, 0.5, 0.5), 1.0), p * kmax + 1)
    values["sampled"] = lp_norm(field, p)
    for name, v in values.items():
        assert v == pytest.approx(sep.value, rel=1e-10), name


def test_slope_fit_recovers_power_law():
    deltas = [2.0 ** -e for e in range(4, 9)]
    pts = [(d, 3.0 * d ** -0.25) for d in deltas]
    rep = slope_fit(pts)
    assert rep.slope == pytest.approx(0.25, abs=1e-12)
    assert rep.intercept == pytest.approx(math.log2(3.0), abs=1e-12)
    assert rep.residual < 1e-12
    with pytest.raises(ValueError):
        slope_fit(pts[:3])
    with pytest.raises(ValueError, match="distinct"):
        slope_fit(pts[:3] + pts[:1])
    with pytest.raises(ValueError):
        slope_fit([(0.5, 1.0), (0.25, -2.0), (0.125, 1.0), (0.0625, 1.0)])


def test_line_example_sits_on_the_axis():
    delta = 2.0 ** -6
    f = line_example(delta)
    assert len(f) == 8
    np.testing.assert_allclose(f.freqs[:, 1], 0.0, atol=0)
    np.testing.assert_allclose(np.diff(f.freqs[:, 0]), math.sqrt(delta), atol=1e-12)
    with pytest.raises(ValueError):
        line_example(0.3)


def test_strip_example_is_one_row():
    delta = 2.0 ** -4
    f = strip_example(delta, 3)
    assert len(f) == 16
    np.testing.assert_allclose(f.freqs[:, 1], 3 * delta, atol=0)
    with pytest.raises(ValueError):
        strip_example(delta, 16)


def test_bump_example_counts_and_bounds():
    delta = 2.0 ** -3
    f = bump_example(hyperbolic_phase(), (0.0, 0.5, 0.5, 1.0), delta)
    assert len(f) == 5 * 5
    assert f.freqs[:, 0].max() <= 0.5 + 1e-12
    assert f.freqs[:, 1].min() >= 0.5 - 1e-12
    with pytest.raises(ValueError):
        bump_example(hyperbolic_phase(), (0.0, 0.0, 1.5, 1.0), delta)


def test_random_product_example_is_reproducible():
    phi = hyperbolic_phase()
    a = random_product_example(phi, 2.0 ** -3, np.random.default_rng(5))
    b = random_product_example(phi, 2.0 ** -3, np.random.default_rng(5))
    np.testing.assert_array_equal(a.weights, b.weights)
    sep = random_product_example(BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0}),
                                 2.0 ** -3, np.random.default_rng(5))
    assert sep.factors is not None


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.25, 2.0, 0.3])
def test_example_builders_check_delta_before_casting(delta):
    """Each builder of a delta-net rejects a delta that is not 2^-k with a
    ValueError naming delta, before 1/delta is rounded to an integer."""
    phi = hyperbolic_phase()
    for build in (lambda: bump_example(phi, (0.0, 0.0, 1.0, 1.0), delta),
                  lambda: random_product_example(phi, delta, np.random.default_rng(0)),
                  lambda: line_example(delta), lambda: strip_example(delta, 0)):
        with pytest.raises(ValueError, match="delta"):
            build()


def test_stein_tomas_single_frequency():
    # one frequency has |f| identically 1, so the ratio is exactly the
    # prefactor delta^(1-3/p)
    delta = 2.0 ** -4
    f = ExpSum(hyperbolic_phase(), [[0.5, 0.5]], [1.0])
    for p in (4.0, 6.0):
        got = stein_tomas_ratio(f, delta, p)
        assert got == pytest.approx(delta ** (1.0 - 3.0 / p), rel=1e-12)
    assert stein_tomas_ratio(f, delta, math.inf) == pytest.approx(delta, rel=1e-12)


def test_stein_tomas_scale_invariance_and_guards():
    delta = 2.0 ** -3
    rng = np.random.default_rng(8)
    f = random_product_example(hyperbolic_phase(), delta, rng)
    base = stein_tomas_ratio(f, delta, 4.0)
    scaled = ExpSum(f.phase, f.freqs, 7.5 * f.weights)
    assert stein_tomas_ratio(scaled, delta, 4.0) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        stein_tomas_ratio(f, delta, 3.0)
    cubic = ExpSum(BivariatePoly(3, {(3, 0): 1.0}), [[0.1, 0.1]], [1.0])
    with pytest.raises(ValueError):
        stein_tomas_ratio(cubic, delta, 4.0)


@settings(max_examples=20)
@given(
    a=st.floats(0.1, 3.0), b=st.floats(-3.0, -0.1), c=st.floats(-1.0, 1.0),
    nx=st.integers(2, 6), ny=st.integers(2, 6), r=st.sampled_from([4.0, 16.0, 12.0]),
    seed=st.integers(0, 2 ** 16),
)
def test_product_sums_snap_per_factor_on_every_path(a, b, c, nx, ny, r, seed):
    """Off-grid separable products: the separable path, the energy path it
    falls back to under a tiny FFT budget, the whole-sum pairs the product
    sum itself falls back to when energy does not fit either, the pair
    path of the sum with its lift snapped by ``snap_lift``, and that sum's
    plain FFT all see one sum."""
    phi = BivariatePoly(3, {(2, 0): a, (0, 2): b, (3, 0): c})
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0, 1, nx), rng.uniform(0, 1, ny)
    f = product_exp_sum(phi, xs, ys, rng.standard_normal(nx) + 1j * rng.standard_normal(nx),
                        rng.standard_normal(ny) + 1j * rng.standard_normal(ny))
    sep, energy, fallback, pairs = (_on_path(path, f, 4, r)
                                    for path in ("separable", "energy", "fallback", "pairs"))
    plain = expsum_lp(ExpSum(phi, f.freqs, f.weights, lift=snap_lift(f, r).lift), 4, r)
    assert sep.note == energy.note == pairs.note == ""
    assert fallback.note == norms._SEPARABLE_SKIPPED
    assert energy.lattice_dims == fallback.lattice_dims == ()
    for rep in (energy, fallback, pairs, plain):
        assert rep.value == pytest.approx(sep.value, rel=1e-12)
    # a lifted height moves by up to one grid step, half a step per factor
    moved = np.abs(snap_lift(f, r).lift - f.lifted()[:, 2]).max()
    assert sep.snap_max == energy.snap_max == fallback.snap_max >= moved
    assert moved <= 1.0 / r + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 6), ny=st.integers(1, 6),
    coeffs=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    flat=st.booleans(), ongrid=st.booleans(),
    r=st.sampled_from([2.0, 4.0, 8.0, 12.0]),
    seed=st.integers(0, 2 ** 16),
)
def test_energy_path_matches_brute_force_and_the_other_paths(nx, ny, coeffs, flat, ongrid,
                                                             r, seed):
    """The energy path equals brute force on the sum the engine sees
    (heights snapped per factor by ``snap_lift``), the separable path and
    whole-sum pairs, to 1e-12 relative: complex weights, values on the
    (1/r)-grid (sampled directly) or off it (a dense FFT of the snapped
    rows), singleton factors, and a linear phase, whose heights shear to
    zero extent."""
    a, b, c = coeffs
    phi = (BivariatePoly(1, {(1, 0): 1.0, (0, 1): 2.0}) if flat
           else BivariatePoly(3, {(2, 0): a, (0, 2): b, (3, 0): c}))
    rng = np.random.default_rng(seed)
    if ongrid:
        xs, ys = (rng.choice(int(r) + 1, min(n, int(r) + 1), replace=False) / r
                  for n in (nx, ny))
    else:
        xs, ys = rng.uniform(0, 1, nx), rng.uniform(0, 1, ny)
    nx, ny = len(xs), len(ys)
    f = product_exp_sum(phi, xs, ys, rng.standard_normal(nx) + 1j * rng.standard_normal(nx),
                        rng.standard_normal(ny) + 1j * rng.standard_normal(ny))
    energy = _on_path("energy", f, 4, r)
    auto = expsum_lp(f, 4, r)
    assert auto.method in ("energy", "separable")
    g = ExpSum(phi, f.freqs, f.weights, lift=snap_lift(f, r).lift)
    values = {"auto": auto.value, "separable": _on_path("separable", f, 4, r).value,
              "pairs": _on_path("pairs", f, 4, r).value}
    lifted = g.lifted()
    n = 2 * int(np.ceil(r * 2 * np.abs(lifted).max())) + 1
    if ongrid and n <= 120:
        values["sampled"] = lp_norm(sample_exp_sum(g, Box3((0.0, 0.0, 0.0), r), n), 4)
    else:
        values["dense"] = _dense_fft_norm(lifted, g.weights, 4, r)
    for name, v in values.items():
        if v is not None:
            assert v == pytest.approx(energy.value, rel=1e-12, abs=0), name


def test_energy_member_values_do_not_depend_on_the_batch():
    """With no field fitting, every product member takes energy; its value
    is bit-equal alone, batched with all members, and batched in reverse
    order, and stays within 1e-12 when the terms run in chunks of a few."""
    e = 4
    f = _example("product", e, True, 5)
    r = 2.0 ** e
    subsets = [s for s in assign_frequencies(f, _cover("caps", e), 0.0)[0] if len(s) > 1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_FFT_BUDGET", 1)
        batched = norms._member_norms(f, subsets, 4, r)
        backward = norms._member_norms(f, subsets[::-1], 4, r)[::-1]
        alone = [norms._member_norms(f, [s], 4, r)[0] for s in subsets]
        for chunk in (1, 7, 60):
            m.setattr(norms, "_PAIR_CHUNK", chunk)
            small = norms._member_norms(f, subsets, 4, r)
            for q, want in zip(small, batched):
                assert q.value == pytest.approx(want.value, rel=1e-12, abs=0)
    assert {q.method for q in batched} == {"energy"}
    assert [q.value for q in batched] == [q.value for q in alone] == [q.value for q in backward]


def _repeating_factor_case(case: str):
    """(f, members, box side) of a decoupling sum whose product members
    repeat factor segments: canonical caps over the elliptic bump, the
    axis line and the axis strip under the hp axis family."""
    kind, e = case.split()
    d = 2.0 ** -int(e)
    if kind == "caps":
        f, cov, r = snap_lift(bump_example(elliptic_phase(), (0.0, 0.0, 1.0, 1.0), d), 1.0 / d), \
            canonical_caps(d), 1.0 / d
    elif kind == "line":
        f, cov, r = line_example(d), hp_axis_family(d), d ** -1.5
    else:
        f, cov, r = strip_example(d, int(round(1.0 / d / 4))), hp_axis_family(d), d ** -2
    return f, [s for s in assign_frequencies(f, cov, 0.0)[0] if len(s) > 1], r


@pytest.mark.parametrize("p", [4, 6])
@pytest.mark.parametrize("case", ["caps 6", "caps 7", "line 8", "strip 8"])
def test_shared_factor_fields_do_not_depend_on_the_batch(case, p):
    """Factor segments with one shape, reduced rows and merged weights
    share one field: fewer fields than segments are transformed, and each
    member's report is bit-equal batched, batched in reverse order, and
    alone (where no field is shared)."""
    f, subsets, r = _repeating_factor_case(case)
    fields = []
    stacked = norms._stacked_fields

    def counted(shape, slot, ints, weights, k):
        fields.append(k)
        return stacked(shape, slot, ints, weights, k)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "_stacked_fields", counted)
        batched = norms._member_norms(f, subsets, p, r)
    backward = norms._member_norms(f, subsets[::-1], p, r)[::-1]
    alone = [norms._member_norms(f, [s], p, r)[0] for s in subsets]
    separable = sum(q.method == "separable" for q in batched)
    assert separable > 0
    assert sum(fields) < 2 * separable
    assert batched == backward == alone


def _three_by_three_product_sum():
    """Generic unit-weight factors of three values: int |F_i|^4 =
    2 * 3^2 - 3 = 15 each, so int |f|^4 = 225."""
    rng = np.random.default_rng(0)
    return product_exp_sum(BivariatePoly(2, {(2, 0): 1.0, (0, 2): 1.0}),
                           rng.uniform(0, 1, 3), rng.uniform(0, 1, 3))


def test_huge_box_product_takes_energy_where_no_field_fits():
    """A small product sum at box side 2^20: its separable fields exceed
    the FFT budget, and the energy path, not whole-sum pairs, counts it."""
    rep = expsum_lp(_three_by_three_product_sum(), 4, 2.0 ** 20)
    assert (rep.method, rep.note, rep.lattice_dims) == ("energy", "", ())
    assert rep.value ** 4 == pytest.approx(225.0, rel=1e-12)


@pytest.mark.parametrize("e", [30, 50])
def test_huge_boxes_fall_back_to_pairs_without_a_padding_search(e, time_limit):
    """The same sum at box sides 2^30 and 2^50: no field fits, so the
    field lengths are not padded to a fast length (a linear search that
    did not return at 2^50), and whole-sum pairs count it."""
    with time_limit(20):
        rep = expsum_lp(_three_by_three_product_sum(), 4, 2.0 ** e)
    assert (rep.method, rep.note) == ("pairs", norms._SEPARABLE_SKIPPED)
    assert rep.value ** 4 == pytest.approx(225.0, rel=1e-12)


@pytest.mark.parametrize("p, message", [
    (1e308, "a lattice length .* is past the float range"),
    (1e200, "exceeds the in-memory FFT budget"),
])
def test_huge_p_is_refused_before_a_lattice_is_sized(p, message):
    """Weights of l1 norm ~3e-4 keep |f|^p finite, so the lattice decides:
    at p = 1e308 a length is past the float range, at 1e200 the lengths
    are floats whose cell count is not, and neither warns."""
    f = random_product_example(hyperbolic_phase(), 2.0 ** -4, np.random.default_rng(1))
    f = replace(f, weights=f.weights * 1e-6)
    with pytest.raises(ValueError, match=message):
        expsum_lp(f, p, 16.0)


def test_p_whose_power_of_the_l1_norm_overflows_is_refused():
    """|f|^p <= (sum |w|)^p: the engine refuses a p that makes this bound
    overflow, and takes one just below it."""
    f = line_example(2.0 ** -4)
    l1 = float(np.abs(f.weights).sum())
    edge = math.log(1e308) / math.log(l1)
    with pytest.raises(ValueError, match="past the float range"):
        expsum_lp(f, 2 * math.ceil(edge / 2) + 2, 16.0)
    assert math.isfinite(expsum_lp(f, 2 * math.floor(edge / 2) - 2, 16.0).value)


# -- batched member norms ------------------------------------------------------

SEPARABLE_SADDLE = BivariatePoly(2, {(2, 0): 1.0, (0, 2): -1.0})
CUBIC = BivariatePoly(3, {(3, 0): 1.0, (0, 3): 1.0, (1, 1): 1.0})


@functools.lru_cache(maxsize=None)
def _cover(kind: str, e: int) -> FlatCover:
    d = 2.0 ** -e
    if kind == "caps":
        return canonical_caps(d)
    if kind == "axis":
        return hp_axis_family(d)
    if kind == "hp":
        return build_cover_hp(hyperbolic_phase(), d, 4.0)
    return build_cover_general(CUBIC, d)


def _example(kind: str, e: int, snapped: bool, seed: int) -> ExpSum:
    """product: random product weights on a separable saddle (factors
    kept); plain: the same on xy (no factors); line: the axis line."""
    d = 2.0 ** -e
    rng = np.random.default_rng(seed)
    if kind == "line":
        f = line_example(d)
    else:
        f = random_product_example(SEPARABLE_SADDLE if kind == "product"
                                   else hyperbolic_phase(), d, rng)
    return snap_lift(f, 1.0 / d) if snapped else f


def _check_batch(f, cov, p, r, tol, checked=48):
    """Batched member norms against one expsum_lp per member subset (for
    up to ``checked`` members spread over the cover), and decoupling_report
    against the ratio from the batched norms.  Returns the batched norms,
    the subsets and the report."""
    subsets, _ = assign_frequencies(f, cov, tol)
    got = norms._member_norms(f, subsets, p, r)
    for i in range(0, len(subsets), -(-len(subsets) // checked)):
        want = expsum_lp(f.subset(subsets[i]), p, r)
        assert got[i].value == pytest.approx(want.value, rel=1e-12, abs=0)
        assert got[i] == replace(want, value=got[i].value)

    rep = decoupling_report(f, cov, p, box_side=r, tol=tol)
    lhs = expsum_lp(f, p, r)
    multi = [i for i, s in enumerate(subsets) if len(s) > 1]
    values = [abs(f.weights[s[0]]) if len(s) == 1 else q.value for s, q in zip(subsets, got)]
    assert rep.lhs == lhs.value
    assert rep.rhs == pytest.approx(math.sqrt(sum(v * v for v in values)), rel=1e-12)
    assert rep.ratio == pytest.approx(lhs.value / rep.rhs, rel=1e-12)
    assert rep.members_used == len(subsets)
    assert rep.exact == (lhs.exact and all(got[i].exact for i in multi))
    assert rep.snap_max == max([lhs.snap_max] + [got[i].snap_max for i in multi])
    want = dict.fromkeys(METHODS, 0)
    want["single"] = len(subsets) - len(multi)
    for i in multi:
        want[got[i].method] += 1
    assert list(rep.methods) == list(METHODS)
    assert rep.methods == want
    assert sum(rep.methods.values()) == rep.members_used
    return got, subsets, rep


@settings(max_examples=25, deadline=None)
@given(
    cover=st.sampled_from(["caps", "axis", "hp", "general"]),
    kind=st.sampled_from(["product", "plain", "line"]),
    snapped=st.booleans(),
    e=st.sampled_from([4, 5]),
    p=st.sampled_from([2, 3, 4, 6, math.inf]),
    coarse=st.sampled_from([1, 4]),
    sharp=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_member_norms_match_per_member_expsum_lp(cover, kind, snapped, e, p,
                                                         coarse, sharp, seed):
    """Batched member norms equal expsum_lp on each member's subset (value
    to 1e-12, method, snap, dims, note; up to 48 members spread over each
    cover), and the report's ratio is theirs, over caps, axis, hp and general
    covers, product and plain sums, snapped or not.  A coarse box (r =
    1/(4 delta)) snaps neighbouring frequencies onto one row."""
    e = 4 if cover == "hp" else e  # 1,882 overlapping hp members at 2^-5
    _check_batch(_example(kind, e, snapped, seed), _cover(cover, e), p, 2.0 ** e / coarse,
                 0.0 if sharp else None)


def test_batched_member_norms_take_every_path():
    """Fixed cases that between them send members down every path, with
    each batched value checked against expsum_lp per member and, for even
    p, against a dense FFT of the member's snapped sum."""
    seen = set()
    for cover, kind, snapped, e, p, coarse in [
        ("caps", "product", True, 5, 2, 1),      # parseval
        ("caps", "product", False, 5, 4, 1),     # separable
        ("hp", "product", True, 4, 4, 4),        # energy, rows merged by the snap
        ("hp", "product", True, 4, 4, 1),        # pairs: few rows, sparse lattice
        ("axis", "plain", True, 4, 6, 4),        # fft, rows merged by the snap
        ("general", "plain", False, 5, 3, 1),    # riemann
        ("axis", "product", True, 4, math.inf, 1),  # lattice-max
        ("axis", "line", False, 6, 4, 1),        # single
    ]:
        f = _example(kind, e, snapped, 7)
        r = 2.0 ** e / coarse
        tol = 0.0 if cover in ("caps", "axis") else None
        got, subsets, rep = _check_batch(f, _cover(cover, e), p, r, tol)
        seen.update(m for m, c in rep.methods.items() if c)
        if p in (4, 6):
            for i, idx in enumerate(subsets[:12]):
                g = snap_lift(f.subset(idx), r)
                want = _dense_fft_norm(g.lifted(), g.weights, p, r)
                if want is not None:
                    assert got[i].value == pytest.approx(want, rel=1e-10)
        if coarse > 1:
            merged = [idx for idx in subsets if len(np.unique(
                np.round(r * snap_lift(f.subset(idx), r).lifted()), axis=0)) < len(idx)]
            assert merged
    assert seen == set(METHODS)


def test_decoupling_report_methods():
    """Elliptic caps members take the separable path; every member of the
    xy axis family takes fft (pairs cost more than their fields)."""
    d = 2.0 ** -6
    f = snap_lift(bump_example(BivariatePoly(2, {(2, 0): 1.0, (0, 2): 1.0}),
                               (0.0, 0.0, 1.0, 1.0), d), 1.0 / d)
    rep = decoupling_report(f, canonical_caps(d), 4.0, tol=0.0)
    assert rep.methods["separable"] == rep.members_used == 64
    assert sum(rep.methods.values()) == rep.members_used
    d = 2.0 ** -5
    f = snap_lift(bump_example(hyperbolic_phase(), (0.0, 0.0, 1.0, 1.0), d), 1.0 / d)
    rep = decoupling_report(f, hp_axis_family(d), 4.0, tol=0.0)
    assert rep.methods["fft"] == rep.members_used == 200
    assert sum(rep.methods.values()) == rep.members_used


def _first_error(f, subsets, p, r):
    for idx in subsets:
        try:
            expsum_lp(f.subset(idx), p, r)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("p", [4, 6, math.inf, 3])
def test_member_over_budget_raises_the_per_member_error(p, monkeypatch):
    """With a budget some members exceed, the batch raises the ValueError
    that the first such member raises on its own."""
    d = 2.0 ** -4
    f = _example("plain", 4, True, 3)
    subsets, _ = assign_frequencies(f, _cover("axis", 4), 0.0)
    subsets = [s for s in subsets if len(s) > 1]
    reports = [expsum_lp(f.subset(s), p, 1.0 / d) for s in subsets]
    if p == 4:
        # pairs everywhere once no field fits; the pair table is the limit
        budget = 1
        sizes = sorted(len(np.unique(np.round(snap_lift(f.subset(s), 1 / d).lifted() / d),
                                     axis=0)) ** 2 for s in subsets)
        monkeypatch.setattr(norms, "_PAIR_BUDGET", sizes[len(sizes) // 2])
    else:
        cells = sorted(math.prod(q.lattice_dims) for q in reports)
        budget = cells[len(cells) // 2]
    monkeypatch.setattr(norms, "_FFT_BUDGET", budget)
    failing = [_first_error(f, [s], p, 1.0 / d) is not None for s in subsets]
    assert 0 < sum(failing) < len(subsets)
    want = _first_error(f, subsets, p, 1.0 / d)
    with pytest.raises(ValueError) as exc:
        norms._member_norms(f, subsets, p, 1.0 / d)
    assert str(exc.value) == want


# -- half-spectrum fields for real weights -------------------------------------

LINEAR = BivariatePoly(1, {(1, 0): 1.0, (0, 1): 2.0})
HALF_PHASES = {"elliptic": BivariatePoly(2, {(2, 0): 1.0, (0, 2): 1.0}),
               "saddle": SEPARABLE_SADDLE, "xy": hyperbolic_phase(), "linear": LINEAR}


def _turned(f: ExpSum, theta: float) -> ExpSum:
    """f with every weight times one unit phase (each factor's weights
    too): |f| is unchanged and no weight is real, so every field takes the
    complex-to-complex FFT."""
    u = complex(math.cos(theta), math.sin(theta))
    if f.factors is None:
        return replace(f, weights=f.weights * u)
    return replace(f, weights=f.weights * u * u,
                   factors=tuple(replace(g, weights=g.weights * u) for g in f.factors))


def _half_spectrum_check(f: ExpSum, p: float, r: float, theta: float) -> set:
    """expsum_lp and decoupling_report (caps at 2^-2, sharp tiles) of a
    real-weight sum equal those of the sum turned by a unit phase, to
    1e-12 relative.  Returns the half fields made, as (field dims, halved
    axis, length parity); the turned sum makes none."""
    cov = canonical_caps(0.25)
    made = []

    def spy(z, axes, **kw):
        made.append((z.ndim - 1, axes[-1] - 1, z.shape[axes[-1]] % 2))
        return rfftn(z, axes=axes, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(norms, "rfftn", spy)
        a, ra = expsum_lp(f, p, r), decoupling_report(f, cov, p, box_side=r, tol=0.0)
        half = list(made)
        g = _turned(f, theta)
        b, rb = expsum_lp(g, p, r), decoupling_report(g, cov, p, box_side=r, tol=0.0)
    assert made == half
    assert a == replace(b, value=a.value)
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=0)
    assert ra.methods == rb.methods
    for key in ("ratio", "lhs", "rhs"):
        assert getattr(ra, key) == pytest.approx(getattr(rb, key), rel=1e-12, abs=0), key
    return set(half)


def _real_sum(kind: str, phase: str, xs, ys, unit: bool, seed: int) -> ExpSum:
    """Real weights on xs x ys (eighths of the unit square): a product sum
    (factors kept where the lift splits) or the same frequencies and
    weights as a plain sum, whose members snap the whole lift."""
    rng = np.random.default_rng(seed)
    xs, ys = np.array(sorted(xs)) / 8.0, np.array(sorted(ys)) / 8.0
    xw = np.ones(len(xs)) if unit else rng.standard_normal(len(xs))
    yw = np.ones(len(ys)) if unit else rng.standard_normal(len(ys))
    f = product_exp_sum(HALF_PHASES[phase], xs, ys, xw, yw)
    return f if kind == "product" else ExpSum(f.phase, f.freqs, f.weights)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["product", "plain"]),
    phase=st.sampled_from(sorted(HALF_PHASES)),
    xs=st.sets(st.integers(0, 8), min_size=1, max_size=6),
    ys=st.sets(st.integers(0, 8), min_size=1, max_size=6),
    unit=st.booleans(),
    p=st.sampled_from([4, 6, 3.5, math.inf]),
    r=st.sampled_from([2.0, 3.0, 8.0, 12.0]),
    theta=st.floats(0.1, 3.0),
    seed=st.integers(0, 2 ** 16),
)
def test_half_spectrum_fields_match_the_turned_sum(kind, phase, xs, ys, unit, p, r, theta,
                                                   seed):
    """Real-weight sums, whose fields are half spectra, give the norms and
    decoupling reports of the same sums turned by a unit phase, whose
    fields are full: separable product members and whole-lift members,
    at p = 4, 6, 3.5 and inf."""
    _half_spectrum_check(_real_sum(kind, phase, xs, ys, unit, seed), p, r, theta)


def test_half_spectrum_cases_halve_every_axis_kind():
    """Fixed cases whose half fields between them halve an odd and an even
    axis of each kind: x3 of separable fields, x1 of separable fields with
    x3 dead, and, in the canonical axis order of whole-lift fields (live
    axes by ascending extent, dead axes last), the third axis of fields
    with three live axes and the first of fields with one."""
    grid, spread = ({0, 1, 2}, {0, 1, 2, 3}), ({0, 3, 8}, {1, 2})
    made = set()
    for kind, (xs, ys), p, r in [
        ("product", grid, 4, 2.0), ("product", grid, 6, 2.0),  # x3 dead: x1
        ("product", grid, 4, 8.0), ("product", grid, 6, 8.0),  # x3
        ("plain", grid, 6, 3.0), ("plain", grid, 4, 8.0),      # three live: the third
        ("plain", spread, 4, 2.0), ("plain", spread, 6, 2.0),  # one live: the first
    ]:
        made |= _half_spectrum_check(_real_sum(kind, "elliptic", xs, ys, True, 0), p, r, 0.5)
    assert made >= {(2, 1, 0), (2, 1, 1), (2, 0, 0), (2, 0, 1),
                    (3, 2, 0), (3, 2, 1), (3, 0, 0), (3, 0, 1)}
