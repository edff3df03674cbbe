"""Discrete restriction experiments on anisotropic frequency lattices.

The lattice (delta Z) x (alpha delta Z) inside the unit square, lifted
to a saddle, meets each member of a fine flat cover in O(1) points when
alpha is a quadratic irrational: two lattice points in one thin box
force |a + sqrt(2) b| to be small with integer a, b, which the Pell
bound forbids.  Rational alpha restores a line of lattice points inside
a single member and the count blows up.  This module enumerates such
lattices, counts points per member (without materializing members), and
evaluates the Diophantine gap and the resulting restriction ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cover import FlatCover
from .geometry import _CONTAIN_TOL
from .norms import ExpSum, expsum_lp, product_exp_sum
from .poly2 import BivariatePoly

SQRT2 = math.sqrt(2.0)
_MAX_LATTICE_POINTS = 1 << 22  # 64 x the largest recipe lattice (2^-8, alpha = 1)


@dataclass
class FrequencyLattice:
    """Points (m*delta, n*alpha*delta) in the unit square, stored as the
    integer pairs (m, n)."""

    delta: float
    alpha: float
    mn: np.ndarray

    def __post_init__(self) -> None:
        self.mn = np.asarray(self.mn, dtype=np.int64).reshape(-1, 2)

    def __len__(self) -> int:
        return len(self.mn)

    def points(self) -> np.ndarray:
        return np.column_stack(
            [self.mn[:, 0] * self.delta, self.mn[:, 1] * (self.alpha * self.delta)]
        )

    def m_values(self) -> np.ndarray:
        return np.unique(self.mn[:, 0])

    def n_values(self) -> np.ndarray:
        return np.unique(self.mn[:, 1])

    def to_exp_sum(self, phi: BivariatePoly, weights: Optional[np.ndarray] = None) -> ExpSum:
        """Exponential sum on the lattice; unit weights keep the separable
        fast path available."""
        if weights is None:
            xs = self.m_values() * self.delta
            ys = self.n_values() * (self.alpha * self.delta)
            return product_exp_sum(phi, xs, ys)
        return ExpSum(phi, self.points(), np.asarray(weights, dtype=complex))


def lambda_grid(delta: float, alpha: float) -> FrequencyLattice:
    """The lattice (delta Z x alpha delta Z) clipped to the unit square,
    refused above ``_MAX_LATTICE_POINTS`` points before anything is built."""
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    inv = 1.0 / delta
    m_max, n_max = np.floor(inv + 0.5), np.floor(inv / alpha + 1e-9)  # inf past float range
    points = (m_max + 1.0) * (n_max + 1.0)
    if points > _MAX_LATTICE_POINTS:
        raise ValueError(f"the lattice has {points:.6g} points; at most "
                         f"{_MAX_LATTICE_POINTS} are built")
    if abs(inv - m_max) > 1e-9:
        raise ValueError("1/delta must be an integer")
    mm, nn = np.meshgrid(np.arange(int(m_max) + 1), np.arange(int(n_max) + 1), indexing="ij")
    return FrequencyLattice(delta, alpha, np.column_stack([mm.ravel(), nn.ravel()]))


def max_flat_multiplicity(
    cover: FlatCover,
    lat: FrequencyLattice,
    phi: BivariatePoly,
    tol: Optional[float] = None,
) -> Tuple[int, Dict[int, int]]:
    """Largest count of lattice points per cover member, with a
    histogram count -> number of members.

    A member takes the points within world distance tol (the cover's
    delta by default) of the vertical slab over it, under any frame, that
    also sit in its (1+tol)-dilate; at tol = 0, the points of the closed
    member with the relative slack of ``Parallelogram.contains``.  The
    slab is vertical, so the lift drops out of the distance and ``phi``
    is not read.  Tilings are counted wholesale through
    ``FlatCover.incidences``.
    """
    del phi
    tol = cover.delta if tol is None else float(tol)
    hist: Dict[int, int] = {}
    for inc in cover.incidences(lat.points(), tol):
        c = np.abs(inc.coords())
        inside = np.maximum(c[:, 0], c[:, 1]) <= 1.0 + (tol or _CONTAIN_TOL)
        # incidences name kept tiles only; the kept tiles they miss take none
        taken, counts = np.unique(inc.cells()[inside], return_counts=True)
        if len(taken) < len(inc.grid):
            hist[0] = hist.get(0, 0) + len(inc.grid) - len(taken)
        vals, freq = np.unique(counts, return_counts=True)
        for v, c in zip(vals, freq):
            hist[int(v)] = hist.get(int(v), 0) + int(c)
    return max(hist, default=0), hist


# -- the Diophantine gap ---------------------------------------------------


@dataclass(frozen=True)
class PellGap:
    """min |a + sqrt(2) b| * b^(1+eps) over 1 <= b <= b_max with a the
    nearest integer to -sqrt(2) b."""

    product: float
    a: int
    b: int
    gap: float


def pell_gap(b_max: int, eps_prime: float) -> PellGap:
    """The numerator |a^2 - 2 b^2| is computed in exact integers; it is
    a nonzero integer (2 is not a square), which is the whole point."""
    if not (1 <= b_max <= 10 ** 6):
        raise ValueError("b_max must lie in [1, 10^6]")
    if not math.isfinite(eps_prime):
        raise ValueError(f"eps must be finite, got {eps_prime!r}")
    b = np.arange(1, b_max + 1, dtype=np.int64)
    a = -np.rint(SQRT2 * b).astype(np.int64)
    num = np.abs(a * a - 2 * b * b)
    gap = num / (SQRT2 * b - a)
    prod = gap * np.power(b.astype(float), 1.0 + eps_prime)
    k = int(np.argmin(prod))
    return PellGap(float(prod[k]), int(a[k]), int(b[k]), float(gap[k]))


def pell_convergents(b_max: int):
    """Continued-fraction convergents a/b of -sqrt(2) with b <= b_max:
    the denominators realizing the successive minima of |a + sqrt(2) b|."""
    out = []
    p_prev, p_cur = 1, 1  # convergents of sqrt(2) = [1; 2, 2, ...]
    q_prev, q_cur = 0, 1
    while q_cur <= b_max:
        out.append((-p_cur, q_cur))
        p_prev, p_cur = p_cur, 2 * p_cur + p_prev
        q_prev, q_cur = q_cur, 2 * q_cur + q_prev
    return out


def discrete_restriction_ratio(
    lat: FrequencyLattice,
    weights: Optional[np.ndarray],
    phi: BivariatePoly,
    p: float,
    d: int = 3,
) -> float:
    """||sum a e(x.(xi, phi(xi)))||_{L^p_#} over the box of side
    delta^(-d), divided by the l2 norm of the weights.

    Exact for p in {2, 4} via the reduced-lattice engine (the lifted
    heights land on exact integers for quadratic phases at d >= 2).
    """
    if not (2 <= p <= 4):
        raise ValueError("p must lie in [2, 4]")
    if not float(p).is_integer() or int(p) % 2 != 0:
        raise ValueError("only the even exponents p=2 and p=4 have exact paths")
    f = lat.to_exp_sum(phi, weights)
    r_side = lat.delta ** (-d)
    rep = expsum_lp(f, p, r_side)
    return rep.value / f.l2_weight()
