import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcover.poly2 import (
    _compose_coeffs,
    BivariatePoly,
    compose_affine,
    elliptic_phase,
    hyperbolic_phase,
    load_phase,
    minus_tangent_plane,
    perturbed_hyperbolic,
    poly_mul,
    poly_scale,
    poly_sub,
)

RNG = np.random.default_rng(41)


def random_poly(rng, degree):
    coeffs = {}
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            coeffs[(j, k)] = float(rng.normal())
    return BivariatePoly(degree, coeffs)


def brute_eval(p, x, y):
    # direct monomial sum, no Horner tricks
    return sum(a * x ** j * y ** k for (j, k), a in p.coeffs.items())


def test_eval_matches_monomial_sum():
    p = random_poly(RNG, 4)
    pts = RNG.uniform(-2, 2, size=(40, 2))
    got = p.eval(pts[:, 0], pts[:, 1])
    want = np.array([brute_eval(p, x, y) for x, y in pts])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_eval_scalar_and_array_agree():
    p = random_poly(RNG, 3)
    assert p.eval(0.3, -0.7) == pytest.approx(float(p.eval([0.3], [-0.7])[0]))


_finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 5), x=_finite, y=_finite)
def test_scalar_eval_equals_array_eval_bitwise(seed, degree, x, y):
    """Two Python floats take the scalar Horner path; its value is the
    array path's, bit for bit, at 0-d and 1-d inputs alike."""
    p = random_poly(np.random.default_rng(seed), degree)
    got = p.eval(x, y)
    assert type(got) is float
    assert got.hex() == float(p.eval(np.array([x]), np.array([y]))[0]).hex()
    assert got.hex() == p.eval(np.float64(x), np.asarray(y)).hex()


def test_hessian_polys_are_derived_once():
    p = random_poly(RNG, 4)
    assert p.hessian_polys() is p.hessian_polys()
    px, py = p.diff(0), p.diff(1)
    assert p.hessian_polys() == (px.diff(0), px.diff(1), py.diff(1))


def test_diff_matches_finite_differences():
    p = random_poly(RNG, 5)
    px = p.diff(0)
    py = p.diff(1)
    h = 1e-6
    for x, y in RNG.uniform(-1, 1, size=(10, 2)):
        fd_x = (p.eval(x + h, y) - p.eval(x - h, y)) / (2 * h)
        fd_y = (p.eval(x, y + h) - p.eval(x, y - h)) / (2 * h)
        assert px.eval(x, y) == pytest.approx(fd_x, abs=1e-5)
        assert py.eval(x, y) == pytest.approx(fd_y, abs=1e-5)


def test_gradient_and_hessian_consistent_with_diff():
    p = random_poly(RNG, 4)
    x, y = 0.37, -0.81
    gx, gy = p.gradient(x, y)
    assert gx == pytest.approx(p.diff(0).eval(x, y))
    assert gy == pytest.approx(p.diff(1).eval(x, y))
    h = p.hessian(x, y)
    assert h[0, 1] == pytest.approx(h[1, 0])
    assert h[0, 0] == pytest.approx(p.diff(0).diff(0).eval(x, y))
    assert h[0, 1] == pytest.approx(p.diff(0).diff(1).eval(x, y))


def test_hessian_det_poly_evaluates_to_det():
    p = random_poly(RNG, 4)
    dp = p.hessian_det_poly()
    for x, y in RNG.uniform(-1, 1, size=(8, 2)):
        h = p.hessian(x, y)
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        assert dp.eval(x, y) == pytest.approx(det, rel=1e-10, abs=1e-10)


def test_arithmetic_pointwise():
    p = random_poly(RNG, 3)
    q = random_poly(RNG, 2)
    pts = RNG.uniform(-1.5, 1.5, size=(20, 2))
    xs, ys = pts[:, 0], pts[:, 1]
    np.testing.assert_allclose(
        poly_sub(p, q).eval(xs, ys), p.eval(xs, ys) - q.eval(xs, ys), rtol=1e-12
    )
    np.testing.assert_allclose(
        poly_scale(p, -2.5).eval(xs, ys), -2.5 * p.eval(xs, ys), rtol=1e-12
    )
    prod = poly_mul(p, q)
    assert prod.degree == p.degree + q.degree
    np.testing.assert_allclose(
        prod.eval(xs, ys), p.eval(xs, ys) * q.eval(xs, ys), rtol=1e-11, atol=1e-11
    )


def test_compose_affine_is_right_composition():
    """compose_affine(p, M, b) must equal x -> p(M x + b)."""
    p = random_poly(RNG, 3)
    mat = np.array([[0.6, -1.2], [0.4, 0.9]])
    off = np.array([0.05, -0.3])
    q = compose_affine(p, mat, off)
    assert q.degree == p.degree
    for u, v in RNG.uniform(-1, 1, size=(12, 2)):
        x, y = mat @ (u, v) + off
        assert q.eval(u, v) == pytest.approx(p.eval(x, y), rel=1e-10, abs=1e-10)


def _compose_with_objects(p, mat, offset):
    """compose_affine as it was written with a validated ``BivariatePoly``
    per intermediate product: the oracle of the raw-map version."""
    mat = np.asarray(mat, dtype=float)
    offset = np.asarray(offset, dtype=float)
    lin1 = BivariatePoly(1, {(1, 0): mat[0, 0], (0, 1): mat[0, 1], (0, 0): offset[0]})
    lin2 = BivariatePoly(1, {(1, 0): mat[1, 0], (0, 1): mat[1, 1], (0, 0): offset[1]})

    def mul(p, q):
        out = {}
        for (j1, k1), a in p.coeffs.items():
            for (j2, k2), b in q.coeffs.items():
                e = (j1 + j2, k1 + k2)
                out[e] = out.get(e, 0.0) + a * b
        return BivariatePoly(p.degree + q.degree, out)

    jmax = max((j for (j, _) in p.coeffs), default=0)
    kmax = max((k for (_, k) in p.coeffs), default=0)
    pow1 = [BivariatePoly(0, {(0, 0): 1.0})]
    for _ in range(jmax):
        pow1.append(mul(pow1[-1], lin1))
    pow2 = [BivariatePoly(0, {(0, 0): 1.0})]
    for _ in range(kmax):
        pow2.append(mul(pow2[-1], lin2))
    acc = {}
    for (j, k), a in p.coeffs.items():
        for e, b in mul(pow1[j], pow2[k]).coeffs.items():
            acc[e] = acc.get(e, 0.0) + a * b
    return BivariatePoly(p.degree, acc)


def _bits(p):
    return p.degree, [(e, a.hex()) for e, a in p.coeffs.items()]


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 5),
       zeros=st.sets(st.integers(0, 5), max_size=4), small_ints=st.booleans())
@example(seed=9, degree=4, zeros=set(), small_ints=True)  # a kept zero reorders
def test_compose_affine_matches_object_loop_bitwise(seed, degree, zeros, small_ints):
    """Same products, accumulation order and dropped zeros as the loop
    over ``BivariatePoly`` objects: equal coefficients, bit for bit and in
    the same order, for float maps with some entries exactly zero, and for
    sparse small-integer phases and maps, whose products cancel to exact
    zeros (kept zeros would move later coefficients in the order)."""
    rng = np.random.default_rng(seed)
    if small_ints:
        monos = [(j, k) for j in range(degree + 1) for k in range(degree + 1 - j)]
        p = BivariatePoly(degree, {e: float(rng.integers(-2, 3)) for e in monos
                                   if rng.uniform() < 0.4})
        entries = rng.integers(-2, 3, size=6).astype(float)
    else:
        p = random_poly(rng, degree)
        entries = rng.normal(size=6)
    entries[list(zeros)] = 0.0
    mat, off = entries[:4].reshape(2, 2), entries[4:]
    assert _bits(compose_affine(p, mat, off)) == _bits(_compose_with_objects(p, mat, off))


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1), degree=st.integers(0, 6),
       tiny=st.booleans())
def test_compose_affine_on_a_diagonal_map_scales_each_coefficient(seed, degree, tiny):
    """``compose_affine`` on the diagonal map (sx, sy) gives
    a_jk (sx^j sy^k), the powers built by repeated products from 1.0:
    the same coefficients bit for bit and in the same order, also where
    powers of tiny sides underflow and drop coefficients."""
    rng = np.random.default_rng(seed)
    p = random_poly(rng, degree)
    sx, sy = rng.uniform(1e-3, 2.0, size=2) * (1e-60 if tiny else 1.0)
    px, py = [1.0], [1.0]
    for _ in range(degree):
        px.append(px[-1] * sx)
        py.append(py[-1] * sy)
    want = BivariatePoly(p.degree, {(j, k): a * (px[j] * py[k])
                                    for (j, k), a in p.coeffs.items()})
    assert _bits(compose_affine(p, np.diag([sx, sy]), np.zeros(2))) == _bits(want)


def _fraction_compose(coeffs, mat, off):
    """p(M (u, v) + b) expanded in exact rational arithmetic."""
    def mul(p, q):
        out = {}
        for (j1, k1), a in p.items():
            for (j2, k2), b in q.items():
                out[(j1 + j2, k1 + k2)] = out.get((j1 + j2, k1 + k2), 0) + a * b
        return out

    lins = [{(1, 0): mat[i][0], (0, 1): mat[i][1], (0, 0): off[i]} for i in (0, 1)]
    acc = {}
    for (j, k), a in coeffs.items():
        term = {(0, 0): a}
        for lin, n in zip(lins, (j, k)):
            for _ in range(n):
                term = mul(term, lin)
        for e, b in term.items():
            acc[e] = acc.get(e, 0) + b
    return {e: float(b) for e, b in acc.items() if b != 0}


_dyadic = st.builds(lambda n, m: Fraction(n, 2 ** m), st.integers(-16, 16), st.integers(0, 4))


@settings(max_examples=200)
@given(degree=st.integers(0, 4), data=st.data())
def test_compose_affine_is_exact_on_dyadic_inputs(degree, data):
    monos = [(j, k) for j in range(degree + 1) for k in range(degree + 1 - j)]
    coeffs = dict(zip(monos, data.draw(st.lists(_dyadic, min_size=len(monos),
                                                max_size=len(monos)))))
    mat = data.draw(st.lists(_dyadic, min_size=4, max_size=4))
    off = data.draw(st.lists(_dyadic, min_size=2, max_size=2))
    p = BivariatePoly(degree, {e: float(a) for e, a in coeffs.items()})
    got = compose_affine(p, np.array(mat, dtype=float).reshape(2, 2), np.array(off, dtype=float))
    assert got.coeffs == _fraction_compose(coeffs, [mat[:2], mat[2:]], off)


@settings(max_examples=200)
@given(degree=st.integers(0, 4), frames=st.integers(1, 6), data=st.data())
def test_batched_frames_compose_as_frame_by_frame(degree, frames, data):
    """One expansion over a batch of dyadic frames, each map entry an
    array of the frames' values or one float they share, gives every
    frame the coefficients ``compose_affine`` gives it alone: the nonzero
    ones exactly, and zeros where the one-frame call drops them."""
    monos = [(j, k) for j in range(degree + 1) for k in range(degree + 1 - j)]
    p = BivariatePoly(degree, {e: float(data.draw(_dyadic)) for e in monos})
    shared = data.draw(st.lists(st.booleans(), min_size=6, max_size=6))
    entries = [float(data.draw(_dyadic)) if one else
               np.array([float(a) for a in data.draw(st.lists(
                   _dyadic, min_size=frames, max_size=frames))]) for one in shared]
    got = _compose_coeffs(p.coeffs, [entries[:2], entries[2:4]], entries[4:])
    for i in range(frames):
        at = [np.broadcast_to(a, (frames,))[i] for a in entries]
        want = compose_affine(p, np.reshape(at[:4], (2, 2)), at[4:]).coeffs
        mine = {e: float(np.broadcast_to(a, (frames,))[i]) for e, a in got.items()}
        assert {e: a for e, a in mine.items() if a != 0.0} == want


def test_minus_tangent_plane_keeps_only_curvature():
    p = random_poly(RNG, 4)
    for x, y in ((0.0, 0.0), (0.3, -0.6)):
        q = minus_tangent_plane(p, x, y)
        assert q.eval(x, y) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(q.gradient(x, y), 0.0, atol=1e-12)
        np.testing.assert_allclose(q.hessian(0.2, 0.1), p.hessian(0.2, 0.1), rtol=1e-12)
    # at the origin only the constant and linear coefficients go, bit for bit
    q = minus_tangent_plane(p)
    assert q.coeffs == {e: a for e, a in p.coeffs.items() if sum(e) >= 2}


def test_compose_affine_identity_is_noop():
    p = random_poly(RNG, 2)
    q = compose_affine(p, np.eye(2), np.zeros(2))
    for key, val in p.coeffs.items():
        assert q.coeff(*key) == pytest.approx(val, abs=1e-12)


def test_model_phases():
    xy = hyperbolic_phase()
    assert xy.coeff(1, 1) == 1.0
    assert xy.support_degree() == 2
    el = elliptic_phase()
    assert el.eval(0.6, 0.8) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    pert = perturbed_hyperbolic(4, rng)
    assert pert.coeff(1, 1) == pytest.approx(1.0)
    assert pert.degree == 4


def test_perturbed_hyperbolic_coefficients_stay_in_class():
    rng = np.random.default_rng(11)
    for degree in (2, 3, 4):
        p = perturbed_hyperbolic(degree, rng)
        bound = 10.0 ** (-10 * degree)
        for (j, k), a in p.coeffs.items():
            if (j, k) == (1, 1) or j + k < 2:
                continue
            assert abs(a) <= bound * (1 + 1e-9)


def test_json_round_trip(tmp_path):
    p = random_poly(RNG, 3)
    q = BivariatePoly.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.degree == p.degree
    assert q.coeffs == p.coeffs

    path = tmp_path / "phase.json"
    path.write_text(json.dumps(p.to_json_dict()))
    r = load_phase(str(path))
    assert r.coeffs == p.coeffs


def test_from_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        BivariatePoly.from_json_dict({"degree": 2})


def test_zero_and_support_degree():
    z = BivariatePoly(3, {(2, 0): 0.0})
    assert z.coeffs == {}
    assert z.support_degree() == 0
    p = BivariatePoly(5, {(1, 1): 2.0})
    assert p.support_degree() == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_from_json_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match=r"malformed phase record: coefficient \(1,1\)"):
        BivariatePoly.from_json_dict({"degree": 3, "coeffs": [[3, 0, 1.0], [1, 1, bad]]})
