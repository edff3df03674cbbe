import hashlib
import math

import numpy as np
import pytest

from flatcover.cover import build_cover_hp, canonical_caps, verify_cover
from flatcover.flatness import flat_defect
from flatcover.geometry import axis_rectangle, rotated_rectangle
from flatcover.poly2 import BivariatePoly, elliptic_phase, hyperbolic_phase, perturbed_hyperbolic
from flatcover.rescale import pullback_cover, rescale_phase, verify_coeff_bounds


def unit_square():
    return axis_rectangle(0.0, 0.0, 1.0, 1.0)


def test_model_saddle_axis_box_normalizes_exactly():
    phi = hyperbolic_phase()
    sigma = 2.0 ** -6
    alpha = 4.0
    box = axis_rectangle(0.25, 0.5, 0.25 + 1 / alpha, 0.5 + sigma * alpha)
    res = rescale_phase(phi, box, sigma)
    assert res.alpha == pytest.approx(alpha)
    assert res.sigma_eff == pytest.approx(sigma, rel=1e-12)
    # normalized phase is again the unit saddle
    assert res.phi_tilde.coeff(1, 1) == pytest.approx(1.0, abs=1e-12)
    for (j, k), a in res.phi_tilde.coeffs.items():
        if (j, k) != (1, 1) and j + k >= 2:
            assert abs(a) < 1e-12


def test_defect_identity_on_random_cover_members():
    """defect(phi, L(B)) = sigma_eff * defect(phi_tilde, B) for boxes
    pulled from the anisotropic cover of a perturbed phase."""
    rng = np.random.default_rng(2605)
    delta = 2.0 ** -8
    phi = perturbed_hyperbolic(3, rng)
    cov = build_cover_hp(phi, delta, a_const=4.0)
    for box in cov.sample_members(rng, 12):
        res = rescale_phase(phi, box, sigma=delta)
        t = rng.uniform(0.15, 0.45)
        cx, cy = rng.uniform(0.3, 0.7, size=2)
        small = rotated_rectangle((cx, cy), t, 0.7 * t, rng.uniform(0, math.pi))
        lhs = flat_defect(phi, res.L.apply_box(small)).defect
        rhs = res.sigma_eff * flat_defect(res.phi_tilde, small).defect
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-15)


def test_rescale_validates_inputs():
    phi = hyperbolic_phase()
    sigma = 2.0 ** -4
    good = axis_rectangle(0.0, 0.0, 0.5, sigma / 0.5)
    rescale_phase(phi, good, sigma)
    with pytest.raises(ValueError):
        rescale_phase(phi, good, sigma * 2)  # side product mismatch
    with pytest.raises(ValueError):
        rescale_phase(phi, good, -0.1)
    tall = axis_rectangle(0.0, 0.0, sigma / 2.0, 2.0)  # alpha outside range
    with pytest.raises(ValueError):
        rescale_phase(phi, tall, sigma)
    # a box that is not flat at scale 4*sigma
    fat = axis_rectangle(0.0, 0.0, 1.0, sigma)
    assert flat_defect(phi, fat).defect > 4 * sigma ** 2
    with pytest.raises(ValueError):
        rescale_phase(phi, fat, sigma, a_const=sigma)


def test_coeff_audit_passes_for_admissible_phases():
    rng = np.random.default_rng(99)
    delta = 2.0 ** -8
    for degree in (2, 3, 4):
        phi = perturbed_hyperbolic(degree, rng)
        cov = build_cover_hp(phi, delta, a_const=4.0)
        for box in cov.sample_members(rng, 6):
            audit = verify_coeff_bounds(rescale_phase(phi, box, sigma=delta))
            assert audit.ok
            assert audit.worst_ratio <= 1.0


def test_coeff_audit_flags_inflated_coefficients():
    res = rescale_phase(hyperbolic_phase(),
                        axis_rectangle(0.0, 0.0, 0.5, 2.0 ** -5), 2.0 ** -6)
    res.b_coeffs[(0, 2)] = 1e6  # corrupt the audit trail on purpose
    audit = verify_coeff_bounds(res, factor=100.0)
    assert not audit.ok
    assert audit.worst_monomial == (0, 2)


def test_pullback_cover_transports_members_and_scale():
    phi = hyperbolic_phase()
    sigma = 2.0 ** -4
    box = axis_rectangle(0.5, 0.25, 0.75, 0.25 + sigma / 0.25)
    res = rescale_phase(phi, box, sigma)
    inner = canonical_caps(2.0 ** -4)
    back = pullback_cover(inner, res, phi)
    assert len(back) == len(inner)
    assert back.delta == pytest.approx(res.sigma_eff * inner.delta)
    # members live inside the original box and stay flat for phi
    rng = np.random.default_rng(1)
    for member in back.sample_members(rng, 10):
        assert box.contains(member.vertices(), tol=1e-9).all()
    rep = verify_cover(back, phi, a_const=back.a_const)
    assert rep.all_flat
    # unit-square membership transports through L exactly
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    np.testing.assert_array_equal(
        back.membership_counts(res.L.apply(pts)), inner.membership_counts(pts)
    )


def test_pullback_rejects_wrong_phase():
    phi = hyperbolic_phase()
    sigma = 2.0 ** -4
    box = axis_rectangle(0.0, 0.0, 0.25, sigma / 0.25)
    res = rescale_phase(phi, box, sigma)
    inner = canonical_caps(2.0 ** -6)
    steep = BivariatePoly(2, {(1, 1): 1.0 / sigma})
    with pytest.raises(ValueError):
        pullback_cover(inner, res, steep)


def _rescale_digest(results) -> str:
    """sha256 of the float.hex of every output of ``rescale_phase``, the
    coefficient maps in their key order."""
    h = hashlib.sha256()
    for res in results:
        fields = (*res.L.mat[0], *res.L.mat[1], *res.L.off, res.sigma, res.sigma_eff, res.alpha)
        h.update(" ".join(float(v).hex() for v in fields).encode())
        for coeffs in (res.phi_tilde.coeffs, res.b_coeffs):
            h.update(repr([(jk, float(a).hex()) for jk, a in coeffs.items()]).encode())
        h.update(str(res.phi_tilde.degree).encode())
    return h.hexdigest()[:16]


def test_rescale_phase_outputs_are_pinned():
    """``rescale_phase`` on 48 cover members each of a degree-3 phase at
    2^-8 and a degree-4 phase at 2^-10, and on axis boxes of -xy, whose
    null slope has no finite value (the normalizer rotates first): every
    output bit and key order as pinned.  A phase with det H >= 0 at the
    box is refused."""
    rng = np.random.default_rng(20261017)
    results = []
    for degree, e in ((3, 8), (4, 10)):
        phi = perturbed_hyperbolic(degree, rng)
        cov = build_cover_hp(phi, 2.0 ** -e, 4.0)
        for box in cov.sample_members(np.random.default_rng(e), 48):
            results.append(rescale_phase(phi, box, sigma=2.0 ** -e))
    minus_xy = BivariatePoly(2, {(1, 1): -1.0})
    sigma, alpha = 2.0 ** -6, 4.0
    for x0, y0 in rng.uniform(0.0, 0.7, (6, 2)):
        box = axis_rectangle(x0, y0, x0 + 1 / alpha, y0 + sigma * alpha)
        results.append(rescale_phase(minus_xy, box, sigma))
    assert _rescale_digest(results) == "e417cb054e51e25a"
    square = axis_rectangle(0.0, 0.0, 2.0 ** -4, 2.0 ** -4)
    with pytest.raises(ValueError, match="saddle normalization needs det H < 0"):
        rescale_phase(elliptic_phase(), square, 2.0 ** -8)
