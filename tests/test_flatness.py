import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcover import flatness
from flatcover.flatness import (
    _bracket,
    _hessian_bounds,
    boxes_flatness,
    candidate_box,
    default_a_const,
    flat_defect,
    flat_defect_interval,
    is_flat,
    null_direction_fields,
    null_directions,
    quad_defect,
    tail_bound,
    tiling_flatness,
)
from flatcover.geometry import (
    AffineMap2,
    Parallelogram,
    axis_rectangle,
    dilate,
    make_tile_grid,
    rotated_rectangle,
)
from flatcover.poly2 import (
    BivariatePoly,
    elliptic_phase,
    hyperbolic_phase,
    perturbed_hyperbolic,
    poly_scale,
)

RNG = np.random.default_rng(1204)


def random_quadratic(rng):
    return BivariatePoly(2, {
        (2, 0): float(rng.normal()),
        (1, 1): float(rng.normal()),
        (0, 2): float(rng.normal()),
        (1, 0): float(rng.normal()),
        (0, 1): float(rng.normal()),
        (0, 0): float(rng.normal()),
    })


def random_box(rng):
    cx, cy = rng.uniform(-1, 1, size=2)
    w, h = rng.uniform(0.05, 0.9, size=2)
    return rotated_rectangle((cx, cy), w, h, rng.uniform(0, math.pi))


def test_closed_form_matches_dense_sampling():
    """The quadratic closed form and the grid estimator are independent
    code paths; they must agree on random rotated boxes."""
    for _ in range(25):
        phi = random_quadratic(RNG)
        box = random_box(RNG)
        closed = flat_defect(phi, box).defect
        sampled = flat_defect(phi, box, m=65, method="sample").defect
        assert sampled <= closed * (1 + 1e-9) + 1e-12
        assert closed == pytest.approx(sampled, rel=1e-6, abs=1e-10)


def test_known_defects_of_model_phases():
    # bilinear phase over an axis w x h box oscillates by exactly w*h
    for w, h in [(0.25, 0.25), (0.5, 0.125), (1.0, 1.0)]:
        box = axis_rectangle(0.2, 0.3, 0.2 + w, 0.3 + h)
        assert flat_defect(hyperbolic_phase(), box).defect == pytest.approx(w * h)
    # one-variable square phase only sees the box width
    x2 = BivariatePoly(2, {(2, 0): 1.0})
    box = axis_rectangle(0.0, 0.0, 0.5, 0.9)
    assert flat_defect(x2, box).defect == pytest.approx(0.25)


def test_quadratic_defect_invariances():
    phi = random_quadratic(RNG)
    box = random_box(RNG)
    base = flat_defect(phi, box).defect

    # moving a quadratic's box changes nothing (the Hessian is constant)
    moved = rotated_rectangle(
        (box.center[0] + 5.0, box.center[1] - 3.0),
        box.side_lengths()[0], box.side_lengths()[1],
        math.atan2(box.e1[1], box.e1[0]),
    )
    assert flat_defect(phi, moved).defect == pytest.approx(base, rel=1e-9)

    # dilation by s scales the defect by s^2, scaling the phase is linear
    assert flat_defect(phi, dilate(box, 2.0)).defect == pytest.approx(4 * base, rel=1e-9)
    assert flat_defect(poly_scale(phi, -3.0), box).defect == pytest.approx(3 * base, rel=1e-9)


def _quad_defect_reference(phi, edges):
    """``quad_defect`` as first written, dividing by every nonzero g11
    and g22 (warnings silenced): the oracle of the guarded quotients."""
    h11, h12, h22 = 2.0 * phi.coeff(2, 0), phi.coeff(1, 1), 2.0 * phi.coeff(0, 2)
    e = 2.0 * np.asarray(edges, dtype=float)
    a1, a2, b1, b2 = e[..., 0, 0], e[..., 1, 0], e[..., 0, 1], e[..., 1, 1]
    g11 = h11 * a1 * a1 + 2.0 * h12 * a1 * a2 + h22 * a2 * a2
    g12 = h11 * a1 * b1 + h12 * (a1 * b2 + a2 * b1) + h22 * a2 * b2
    g22 = h11 * b1 * b1 + 2.0 * h12 * b1 * b2 + h22 * b2 * b2
    with np.errstate(all="ignore"):
        s11 = np.where(g11 == 0, 1.0, g11)
        s22 = np.where(g22 == 0, 1.0, g22)
        t2, t1 = -g12 / s22, -g12 / s11
        vals = np.stack([
            np.abs(g11 + g22 + 2 * g12),
            np.abs(g11 + g22 - 2 * g12),
            np.where((g22 != 0) & (np.abs(t2) <= 1), np.abs(g11 - g12 * g12 / s22), 0.0),
            np.where((g11 != 0) & (np.abs(t1) <= 1), np.abs(g22 - g12 * g12 / s11), 0.0),
        ])
    k = np.argmax(vals, axis=0)
    best = np.max(vals, axis=0)
    t = np.stack([np.where(k == 3, t1, 1.0), np.choose(k, [1.0, -1.0, t2, 1.0])], axis=-1)
    return 0.5 * best, np.where((best > 0)[..., None], t, 0.0)


_edge_entry = st.one_of(
    st.floats(-8.0, 8.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e-160, 1e-9]))


@settings(max_examples=200)
@given(h=st.lists(st.one_of(st.floats(-4.0, 4.0), st.just(0.0)), min_size=3, max_size=3),
       edges=st.lists(_edge_entry, min_size=12, max_size=12))
def test_quad_defect_matches_the_unguarded_quotients_bitwise(h, edges):
    """Edge critical points taken only where the quotient can be at most
    1: the same defects and witnesses, bit for bit, as dividing by every
    nonzero g11 and g22, with no warning, also where an edge is nearly
    null for the Hessian (g11 or g22 near zero, or zero)."""
    phi = BivariatePoly(2, {(2, 0): h[0], (1, 1): h[1], (0, 2): h[2]})
    e = np.array(edges).reshape(3, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quad_defect(phi.coeffs, e)
    want = _quad_defect_reference(phi, e)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_cubic_defect_bracket_contains_sample():
    rng = np.random.default_rng(77)
    phi = BivariatePoly(3, {(1, 1): 1.0, (3, 0): 0.02, (2, 1): -0.015})
    for _ in range(8):
        box = random_box(rng)
        rep = flat_defect(phi, box, m=65)
        assert rep.lower <= rep.defect <= rep.upper * (1 + 1e-12)
        raw = flat_defect(phi, box, m=65, method="sample", polish=False).defect
        assert raw <= rep.upper * (1 + 1e-9)
        lo, hi = flat_defect_interval(phi, box)
        assert lo <= rep.upper * (1 + 1e-12)
        assert hi >= rep.lower * (1 - 1e-12)


def random_higher_degree(rng, degree):
    coeffs = {(j, k): float(rng.normal()) for j in range(3) for k in range(3 - j)}
    coeffs.update({(j, k): float(rng.uniform(-0.3, 0.3))
                   for j in range(degree + 1) for k in range(degree + 1 - j) if j + k >= 3})
    return BivariatePoly(degree, coeffs)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["rotated", "sheared", "strip"]),
    degree=st.sampled_from([3, 4]),
    x0=st.floats(-0.8, 0.8), y0=st.floats(-0.8, 0.8),
    w=st.floats(0.01, 0.6), h=st.floats(0.01, 0.6),
    theta=st.floats(0.0, math.pi), shear=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2 ** 16),
)
def test_tail_bound_is_never_looser_and_brackets_the_sample(shape, degree, x0, y0, w, h,
                                                           theta, shear, seed):
    """The axis-extent tail bound never exceeds the diameter form, and the
    certified upper end holds the sampled defect on rotated, sheared and
    full-height strip boxes."""
    phi = random_higher_degree(np.random.default_rng(seed), degree)
    if shape == "strip":
        box = axis_rectangle(x0, 0.0, x0 + w, 1.0)
    elif shape == "rotated":
        box = rotated_rectangle((x0, y0), w, h, theta)
    else:
        c, s = math.cos(theta), math.sin(theta)
        box = Parallelogram((x0, y0), (0.5 * w * c, 0.5 * w * s),
                            (0.5 * h * (shear * c - s), 0.5 * h * (shear * s + c)))
    bbox = box.bounding_box()
    b11, b12, b22 = _hessian_bounds(phi.coeffs, bbox, min_total_degree=3)
    diam_form = 0.5 * (max(b11, b22) + b12) * box.diameter() ** 2
    assert tail_bound(phi.coeffs, bbox, box.edge_matrix) <= diam_form * (1 + 1e-12)
    _, hi = flat_defect_interval(phi, box)
    sampled = flat_defect(phi, box, m=17, polish=False, method="sample").defect
    assert sampled <= hi * (1 + 1e-9)


@settings(max_examples=30)
@given(x0=st.floats(0.0, 0.95), frac=st.floats(0.01, 1.0))
def test_cubic_strip_bracket_holds_the_exact_defect(x0, frac):
    """x^3 over [x0, x0 + L] x [0, 1] has defect L^2 (3 x0 + L), which the
    axis-extent tail bound 3 (x0 + L) L^2 brackets; the diameter form,
    about 3 (x0 + L)(1 + L^2), could not certify a thin strip."""
    length = frac * (1.0 - x0)
    lo, hi = flat_defect_interval(BivariatePoly(3, {(3, 0): 1.0}),
                                  axis_rectangle(x0, 0.0, x0 + length, 1.0))
    exact = length * length * (3.0 * x0 + length)
    assert lo <= exact * (1 + 1e-12)
    assert exact <= hi * (1 + 1e-12)
    assert hi <= 3.0 * (x0 + length) * length * length * (1 + 1e-12)


@settings(max_examples=15)
@given(
    w=st.floats(0.2, 0.6), h=st.one_of(st.floats(0.15, 0.5), st.just(1.0)),
    theta=st.floats(0.0, math.pi),
    degree=st.sampled_from([3, 4]), framed=st.booleans(), masked=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_tiling_flatness_matches_per_tile_bracket_and_decision(w, h, theta, degree, framed,
                                                               masked, seed):
    """The tiling helper's [lo, hi] equals flat_defect_interval on every
    kept tile (full-height strips among them) and holds the sampled
    defect, and its flat mask equals is_flat and hi <= threshold at
    thresholds that certify every tile, leave one tile's bracket
    straddling, or rule every tile out."""
    rng = np.random.default_rng(seed)
    phi = random_higher_degree(rng, degree)
    grid = make_tile_grid(w, h, theta)
    if masked:
        grid.keep = rng.random((grid.ni, grid.nj)) < 0.7
    frame = None
    if framed:
        frame = AffineMap2(tuple(map(tuple, rng.uniform(-1.0, 1.0, (2, 2)) + 2.0 * np.eye(2))),
                           tuple(rng.uniform(-1.0, 1.0, 2)))
    members = [t if frame is None else frame.apply_box(t) for t in grid.tiles()]
    if not members:
        assert len(tiling_flatness(phi, grid, 1.0, 1.0, frame).flat) == 0
        return
    want = np.array([flat_defect_interval(phi, m) for m in members])
    rep = tiling_flatness(phi, grid, 1e9, 1.0, frame)
    atol = 1e-12 * float(want[:, 1].max())
    np.testing.assert_allclose(rep.lo, want[:, 0], rtol=1e-12, atol=atol)
    np.testing.assert_allclose(rep.hi, want[:, 1], rtol=1e-12, atol=atol)
    sampled = [flat_defect(phi, m, m=9, polish=False, method="sample").defect for m in members]
    assert np.all(sampled <= rep.hi * (1 + 1e-9))
    ends = np.sort(want[:, 1])
    thresholds = [2.0 * ends[-1], 0.5 * want[:, 0].min()]
    if len(ends) >= 2:
        thresholds.append(0.5 * (ends[-1] + ends[-2]))
    for threshold in thresholds:
        if np.any(np.abs(want - threshold) <= 1e-9 * threshold) or threshold <= 0:
            continue  # a threshold on a bracket end is decided by rounding
        rep = tiling_flatness(phi, grid, threshold, 1.0, frame)
        expected = [is_flat(phi, m, threshold, 1.0) for m in members]
        np.testing.assert_array_equal(rep.flat, expected)
        np.testing.assert_array_equal(rep.flat, want[:, 1] <= threshold)


@settings(max_examples=30)
@given(degree=st.sampled_from([2, 3, 4]), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       dyadic=st.booleans(), stacked=st.booleans())
def test_stacked_bracket_matches_one_box_calls_bitwise(degree, n, seed, dyadic, stacked):
    """``_bracket`` over per-box edge matrices (n, 2, 2) gives each box
    the [lo, hi] of its one-box call bit for bit, and ``boxes_flatness``
    decides each box as ``is_flat`` does: on random parallelograms, and
    on axis rectangles with dyadic corners like a cover's loose members.
    With one phase per box (the same monomials in the same order), the
    phases stacked into per-box coefficient arrays give each box the
    bracket of its own phase."""
    rng = np.random.default_rng(seed)
    draw = random_quadratic if degree == 2 else (lambda r: random_higher_degree(r, degree))
    phi = draw(rng)
    if stacked:
        phases = [draw(rng) for _ in range(n)]
        coeffs = {e: np.array([p.coeffs[e] for p in phases]) for e in phases[0].coeffs}
        edges = np.array([random_box(rng).edge_matrix for _ in range(n)])
        centers = rng.uniform(-1.0, 1.0, (n, 2))
        for shared in (edges, edges[0]):
            lo, hi, _ = _bracket(coeffs, shared, centers)
            for k, p in enumerate(phases):
                lo1, hi1, _ = _bracket(p.coeffs, shared if shared.ndim == 2 else shared[k],
                                       centers[k])
                assert (lo[k].hex(), hi[k].hex()) == (lo1[0].hex(), hi1[0].hex())
    boxes = []
    for _ in range(n):
        if dyadic:
            x0, y0 = rng.integers(0, 16, size=2) / 16.0
            w, h = rng.integers(1, 9, size=2) / 64.0
            boxes.append(axis_rectangle(x0, y0, x0 + w, y0 + h))
        else:
            boxes.append(Parallelogram(tuple(rng.uniform(-1.0, 1.0, 2)),
                                       tuple(rng.normal(0.0, 0.2, 2)),
                                       tuple(rng.normal(0.0, 0.2, 2))))
    edges = np.array([b.edge_matrix for b in boxes])
    lo, hi, _ = _bracket(phi.coeffs, edges, [b.center for b in boxes])
    for k, box in enumerate(boxes):
        lo1, hi1, _ = _bracket(phi.coeffs, box.edge_matrix, [box.center])
        assert (lo[k].hex(), hi[k].hex()) == (lo1[0].hex(), hi1[0].hex())
    threshold = float(np.median(hi))
    rep = boxes_flatness(phi, np.array([b.center for b in boxes]), edges, threshold, 1.0)
    assert (rep.lo.tobytes(), rep.hi.tobytes()) == (lo.tobytes(), hi.tobytes())
    assert rep.flat.tolist() == [is_flat(phi, b, threshold, 1.0) for b in boxes]


def _report_bits(rep):
    return tuple(float(v).hex() if isinstance(v, float) else v for v in (
        rep.defect, rep.lower, rep.upper, rep.certified, *rep.argmax_u, *rep.argmax_v))


@settings(max_examples=100, deadline=None)
@given(degree=st.sampled_from([3, 4, 5]), n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       congruent=st.booleans())
@example(degree=5, n=2, seed=22, congruent=False)
def test_one_box_calls_keep_the_bits_of_their_row(degree, n, seed, congruent):
    """``is_flat``, ``flat_defect_interval`` and ``flat_defect`` give a box
    exactly the bits of its row in an n-box ``_bracket`` /
    ``boxes_flatness`` call, though one box runs its shared edges on
    numpy scalars: the powers of its bounding-box radii are still taken
    on an array, and numpy's scalar ``**`` rounds x**2 and x**3 apart
    from the array one.  Phases of degree 3-5 with O(1) higher terms, on
    boxes 0.5 to 2 away from the origin in each coordinate, where those
    powers reach the last bits of hi."""
    rng = np.random.default_rng(seed)
    phi = BivariatePoly(degree, {(j, k): float(rng.normal())
                                 for j in range(degree + 1) for k in range(degree + 1 - j)})
    centers = rng.uniform(0.5, 2.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
    sides = 10.0 ** rng.uniform(-3.0, -0.5, (n, 2))
    thetas = rng.uniform(0.0, math.pi, n)
    if congruent:
        sides[:], thetas[:] = sides[0], thetas[0]
    boxes = [rotated_rectangle(c, w, h, t) for c, (w, h), t in zip(centers, sides, thetas)]
    edges = np.array([b.edge_matrix for b in boxes])
    if congruent:
        edges = edges[0]
    centers = np.array([b.center for b in boxes])
    lo, hi, t = _bracket(phi.coeffs, edges, centers)
    rows = boxes_flatness(phi, centers, edges, 1.0, 1.0)
    assert (rows.lo.tobytes(), rows.hi.tobytes()) == (lo.tobytes(), hi.tobytes())
    for k, box in enumerate(boxes):
        assert [v.hex() for v in flat_defect_interval(phi, box)] == [lo[k].hex(), hi[k].hex()]
        # flat at the row's upper end, not one ulp below it
        assert is_flat(phi, box, hi[k], 1.0)
        assert not is_flat(phi, box, math.nextafter(hi[k], 0.0), 1.0)
        tk = t if t.ndim == 1 else t[k]

        def row_split(phi_, box_, k=k, tk=tk, box=box):
            c, d_half = np.asarray(box.center), box.edge_matrix @ tk
            return float(lo[k]), float(hi[k]), tuple(c + d_half), tuple(c - d_half)

        got = flat_defect(phi, box, m=3, polish=False)
        with mock.patch.object(flatness, "_split_interval", row_split):
            want = flat_defect(phi, box, m=3, polish=False)
        assert _report_bits(got) == _report_bits(want)


def test_method_validation():
    phi = BivariatePoly(3, {(3, 0): 1.0})
    box = axis_rectangle(0, 0, 1, 1)
    with pytest.raises(ValueError):
        flat_defect(phi, box, method="closed")
    with pytest.raises(ValueError):
        flat_defect(phi, box, method="eyeball")


def test_is_flat_boundary_is_inclusive():
    phi = hyperbolic_phase()
    box = axis_rectangle(0.0, 0.0, 0.25, 0.25)  # defect exactly 2^-4
    assert is_flat(phi, box, 0.0625, a_const=1.0)
    assert not is_flat(phi, box, 0.0624, a_const=1.0)
    with pytest.raises(ValueError):
        is_flat(phi, box, 0.0, a_const=1.0)


def test_default_a_const_certifies_candidate_boxes():
    rng = np.random.default_rng(19)
    for degree in (2, 3, 4):
        phi = perturbed_hyperbolic(degree, rng)
        a = default_a_const(phi)
        assert a >= 1.0
        delta = 2.0 ** -8
        for alpha in (1.0, 4.0, delta ** -0.5):
            for which in ("w", "v"):
                box = candidate_box(phi, (0.5, 0.5), alpha, delta, which)
                assert is_flat(phi, box, delta, a)


def test_null_directions_annihilate_hessian():
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = random_quadratic(rng)
        x, y = rng.uniform(-1, 1, size=2)
        if phi.hessian_det_poly().eval(x, y) >= -1e-6:
            continue
        nd = null_directions(phi, (x, y))
        h = phi.hessian(x, y)
        for d in (nd.w, nd.v):
            d = np.asarray(d)
            assert abs(d @ h @ d) < 1e-9 * (np.linalg.norm(h) * d @ d)


def test_null_directions_require_a_saddle():
    with pytest.raises(ValueError):
        null_directions(elliptic_phase(), (0.0, 0.0))


def test_null_direction_fields_match_pointwise():
    rng = np.random.default_rng(29)
    phi = perturbed_hyperbolic(3, rng)
    pts = rng.uniform(0.1, 0.9, size=(15, 2))
    av, bv, valid = null_direction_fields(phi, pts)
    assert valid.all()
    for k, p in enumerate(pts):
        nd = null_directions(phi, p)
        got_w = np.array([-av[k], 1.0])
        got_v = np.array([1.0, -bv[k]])
        for got, want in ((got_w, nd.w), (got_v, nd.v)):
            got = got / np.linalg.norm(got)
            want = np.asarray(want) / np.linalg.norm(want)
            assert min(np.linalg.norm(got - want), np.linalg.norm(got + want)) < 1e-9


def test_candidate_box_shape_and_orientation():
    phi = hyperbolic_phase()
    delta, alpha = 2.0 ** -6, 2.0
    box = candidate_box(phi, (0.4, 0.7), alpha, delta, "w")
    long_side, short_side = box.side_lengths()
    assert long_side == pytest.approx(1.0 / alpha)
    assert short_side == pytest.approx(delta * alpha)
    # the xy phase has the coordinate axes as null lines
    e1 = np.asarray(box.e1) / np.linalg.norm(box.e1)
    assert min(abs(e1[0]), abs(e1[1])) < 1e-12
    vbox = candidate_box(phi, (0.4, 0.7), alpha, delta, "v")
    e1v = np.asarray(vbox.e1) / np.linalg.norm(vbox.e1)
    assert abs(abs(e1 @ e1v)) < 1e-12


def test_candidate_box_validates_alpha_range():
    phi = hyperbolic_phase()
    with pytest.raises(ValueError):
        candidate_box(phi, (0.5, 0.5), 0.5, 2.0 ** -6)
    with pytest.raises(ValueError):
        candidate_box(phi, (0.5, 0.5), 20.0, 2.0 ** -6)
    with pytest.raises(ValueError):
        candidate_box(phi, (0.5, 0.5), 1.0, 2.0 ** -6, which="q")
