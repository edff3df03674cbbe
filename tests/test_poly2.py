import json

import numpy as np
import pytest

from flatcover.poly2 import (
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
