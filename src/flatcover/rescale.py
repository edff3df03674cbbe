"""Parabolic rescaling of flat boxes.

A flat box of dimensions sigma*alpha x 1/alpha maps to the unit square
by a rigid motion, the diagonal scaling (xi/alpha, sigma*alpha*eta),
and a shear that kills the square coefficients of the transformed
phase.  Dividing by the resulting mixed coefficient returns the phase
to normal form, and the defect transforms exactly linearly, which is
what makes induction on scales work.  This module builds that affine
map, audits the intermediate coefficient bounds, and pulls covers of
the rescaled square back to certified covers for the original phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .cover import FlatCover, FramedGroups, _members_flatness, _saddle_normalizer
from .flatness import is_flat
from .geometry import UNIT_SQUARE, AffineMap2, Parallelogram
from .poly2 import BivariatePoly, compose_affine, minus_tangent_plane, poly_scale


@dataclass(frozen=True)
class CoeffAudit:
    """Worst observed / allowed ratio for the axis-frame coefficients."""

    worst_ratio: float
    worst_monomial: Tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.worst_ratio <= 1.0


@dataclass
class RescaleResult:
    """Affine normalization of a flat box together with its audit trail.

    ``L`` applies the shear that normalizes the phase, then the scaling
    by the box's side lengths, then the rigid motion onto the box.  So
    ``L(unit square)`` is the box only when that shear is the identity
    (no square terms in the box frame, as for axis boxes of xy);
    otherwise it is another parallelogram.  ``phi_tilde`` is the phase
    seen through ``L``, in normal form.  ``sigma_eff`` is the exact
    factor in defect(phi, L(B)) = sigma_eff * defect(phi_tilde, B); it
    equals ``sigma`` exactly for the model saddle on an axis box and
    stays within O(angle mismatch) of it in general.
    """

    L: AffineMap2
    phi_tilde: BivariatePoly
    sigma: float
    sigma_eff: float
    alpha: float
    b_coeffs: Dict[Tuple[int, int], float]


def _edge_angle(vec: np.ndarray) -> float:
    """Direction of an edge vector folded into [0, pi)."""
    theta = math.atan2(float(vec[1]), float(vec[0]))
    while theta < 0:
        theta += math.pi
    while theta >= math.pi:
        theta -= math.pi
    return theta


def _box_orientation(box: Parallelogram) -> Tuple[float, float, float]:
    """(angle of the long edge, long side, short side); squares take the
    lexicographically smaller of the two edge angles."""
    l1 = 2.0 * float(np.linalg.norm(box.e1))
    l2 = 2.0 * float(np.linalg.norm(box.e2))
    if abs(l1 - l2) <= 1e-12 * max(l1, l2):
        t1, t2 = _edge_angle(box.e1), _edge_angle(box.e2)
        return (min(t1, t2), l1, l2)
    if l1 >= l2:
        return (_edge_angle(box.e1), l1, l2)
    return (_edge_angle(box.e2), l2, l1)


def rescale_phase(
    phi: BivariatePoly,
    box: Parallelogram,
    sigma: float,
    a_const: float = 4.0,
) -> RescaleResult:
    """Normalize a flat box to the unit square and the phase with it.

    Requires the box to be (phi, a_const*sigma)-flat with side product
    sigma (the cover's boxes have dimensions sigma*alpha x 1/alpha).
    Raises ValueError when the box is not flat at the claimed scale,
    its dimensions do not match sigma, or alpha falls outside
    [1, 1/sigma].
    """
    if not (0 < sigma <= 1):
        raise ValueError("sigma must lie in (0, 1]")
    theta, long_side, short_side = _box_orientation(box)
    area = long_side * short_side
    if abs(area - sigma) > 1e-9 * sigma:
        raise ValueError(
            f"box sides {long_side:.3g} x {short_side:.3g} have product "
            f"{area:.6g}, which does not match sigma={sigma:.6g}"
        )
    alpha = 1.0 / long_side
    if not (1.0 - 1e-9 <= alpha <= 1.0 / sigma + 1e-9):
        raise ValueError(f"alpha={alpha:.6g} outside [1, 1/sigma]")
    if not is_flat(phi, box, sigma, a_const):
        raise ValueError("box is not flat at scale a_const*sigma")

    ct, st = math.cos(theta), math.sin(theta)
    rot = np.array([[ct, -st], [st, ct]])
    corner = np.asarray(box.center) - rot @ np.array([long_side / 2, short_side / 2])
    to_axis = AffineMap2(((ct, -st), (st, ct)), (float(corner[0]), float(corner[1])))
    # phase seen from the axis-aligned frame [0,long] x [0,short]
    psi0 = compose_affine(phi, to_axis.matrix, to_axis.offset)
    b_coeffs = {jk: a for jk, a in psi0.coeffs.items() if jk[0] + jk[1] >= 2}

    scale_map = AffineMap2(((long_side, 0.0), (0.0, short_side)), (0.0, 0.0))
    psi_unit = compose_affine(psi0, scale_map.matrix, scale_map.offset)
    shear, mixed, psi_sh = _saddle_normalizer(psi_unit)
    tilde = poly_scale(minus_tangent_plane(psi_sh), 1.0 / mixed)
    # the shear zeroes the square coefficients exactly up to rounding
    cleaned = dict(tilde.coeffs)
    for jk in ((2, 0), (0, 2)):
        leftover = cleaned.pop(jk, 0.0)
        if abs(leftover) > 1e-9:
            raise ValueError(f"square coefficient {jk} survived the shear: {leftover!r}")
    return RescaleResult(
        L=to_axis.compose(scale_map).compose(shear),
        phi_tilde=BivariatePoly(tilde.degree, cleaned),
        sigma=sigma,
        sigma_eff=abs(mixed),
        alpha=alpha,
        b_coeffs=b_coeffs,
    )


def verify_coeff_bounds(result: RescaleResult, factor: float = 100.0) -> CoeffAudit:
    """Audit the axis-frame coefficients against their scale bounds.

    Each coefficient b_{j,k} (j+k >= 2, excluding the mixed one) is
    compared with factor * sigma^(1-k) * alpha^(j-k), the bound that
    flatness of the box forces up to an unspecified constant; the audit
    reports the worst observed/allowed ratio rather than asserting a
    particular constant.
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"factor must be finite and positive, got {factor!r}")
    sigma, alpha = result.sigma, result.alpha
    worst = 0.0
    worst_jk = (1, 1)
    for (j, k), b in result.b_coeffs.items():
        if (j, k) == (1, 1):
            continue
        allowed = factor * sigma ** (1 - k) * alpha ** (j - k)
        r = abs(b) / allowed
        if r > worst:
            worst, worst_jk = r, (j, k)
    return CoeffAudit(worst, worst_jk)


def pullback_cover(
    cover_prime: FlatCover,
    result: RescaleResult,
    phi: BivariatePoly,
) -> FlatCover:
    """Map a cover of the rescaled unit square back through L.

    A cover at scale delta' for phi_tilde becomes a cover at scale
    sigma_eff * delta' for phi, with the same constant A.  Every member
    is re-certified flat for phi at A * delta by ``_members_flatness``,
    with a relative slack of 1e-9 for the rounding of L; a failure raises
    (it would mean the defect identity was violated).
    """
    delta = result.sigma_eff * cover_prime.delta
    a_const = cover_prime.a_const
    parts = []
    for part in cover_prime.parts:
        frame = result.L if part.frame is None else result.L.compose(part.frame)
        parts.append(FramedGroups(frame, list(part.groups)))
    loose = [result.L.apply_box(m) for m in cover_prime.loose]
    cover = FlatCover(delta, a_const, parts, loose, kind="pullback")
    cover.domain = result.L.image_bbox(UNIT_SQUARE)
    slack_delta = delta * (1 + 1e-9)
    if not all(rep.flat.all() for rep in _members_flatness(cover, phi, slack_delta, a_const)):
        raise ValueError("pullback member failed flatness re-certification")
    return cover
