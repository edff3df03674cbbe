"""Exponential sums, L^p norms on boxes, and decoupling ratios.

The central object is a finite sum f(x) = sum_xi a_xi e(x . (xi, phi(xi)))
with planar frequencies xi lifted onto the graph of the phase.  Norms
over a box of side R use the L^p_# convention (normalize by the box
volume, then take the p-th root).

For even p the computation is exact: lifted frequencies are snapped to
the (1/R)-grid, reduced per axis (translation and gcd), and |f|^p is a
trigonometric polynomial whose mean equals its lattice average once the
lattice resolves the frequency extent; one small FFT per sum replaces
any dense spatial grid.  Product-structured frequency sets with
additively split lift (separable phases, or single-row sets) factor as
f = g1(x1,x3) g2(x2,x3), and the norm reduces to two planar FFTs glued
along the shared third axis.  The FFTs are numpy.fft's, on lengths
padded to the next 11-smooth integer, written into preallocated or input
arrays so a field is held once.

At p = 4 two counting paths compete with the fields, each by a cost rule
written down where it is applied.  Product sums may take each factor's
additive energy instead: int |f|^4 = sum_s D1(s) D2(-s), with D_i(s) the
weighted count of quadruples m1 + m2 = m3 + m4 of factor i whose heights
differ by s (``_energy_mean_pow4``), chosen where a bound on its terms is
at most _ENERGY_TERMS times the two fields' cells (``_product_mean_pow``)
or where the fields do not fit.  Other sums may take Parseval on the pair
sum f^2 (``_pairs_mean_pow4``), chosen where a sorted pair table of k^2
rows costs less than the field, _PAIR_CELLS cells a pair
(``_reduced_norms``), or where the field does not fit.

Integer rows (snapped frequencies, pair sums) are merged through packed
keys: one int64 per row, in lexicographic row order, so merging needs
only a 1-D sort.

Members are batched.  A decoupling ratio needs one norm per cover
member, and ``_member_norms`` computes them all in one pass: the members'
frequency rows are laid end to end as segments, snapped and merged by one
packed-key sort with the member number as the leading digit, and
translated and gcd-reduced per segment (``reduceat``).  For even p each
segment's rows are then mapped by one unimodular matrix, from a pairwise
Gauss reduction of their covariance run on all segments at once, and
their axes put in one canonical order (``_lattice_reduce``); the
per-factor and inexact paths shear only the height axis
(``_shear_reduce``).  Each segment is evaluated by the single-sum method
rule.  Members whose FFT fields share a shape, also those that differed
only by axis order, are stacked under one FFT, a half-spectrum one when
their weights are real.  ``expsum_lp`` is the one-member call of the same
engine, and a member's value does not depend on the members batched with
it.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.fft import ifftn, rfftn

from .cover import FlatCover, _require_dyadic
from .poly2 import BivariatePoly, hyperbolic_phase

_FFT_BUDGET = 1 << 26  # complex entries per field, ~1 GB at complex128
_PAIR_BUDGET = 12_000_000  # pairs, or energy terms, when p=4 fields exceed _FFT_BUDGET
_PAIR_CELLS = 3  # FFT cells a sorted frequency pair may cost (measured in _reduced_norms)
_ENERGY_TERMS = 1  # energy-bound terms one FFT cell may cost (measured in _product_mean_pow)


@dataclass(frozen=True)
class Box3:
    """Axis cube in physical space: center and side length."""

    center: Tuple[float, float, float]
    side: float


@dataclass(frozen=True)
class Factor:
    """One axis of a product frequency set: planar coordinates along a
    single axis, their weights, and their additive share of the lift."""

    axis: int
    values: np.ndarray
    weights: np.ndarray
    heights: np.ndarray


@dataclass
class ExpSum:
    """Weighted exponential sum over lifted planar frequencies.

    ``lift`` optionally pins the heights instead of evaluating the
    phase, for sums whose lift was snapped once up front so that whole
    and per-member norms see the same function.
    """

    phase: BivariatePoly
    freqs: np.ndarray
    weights: np.ndarray
    factors: Optional[Tuple[Factor, Factor]] = None
    lift: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.freqs = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        self.weights = np.asarray(self.weights, dtype=complex).ravel()
        if self.freqs.shape[0] != self.weights.shape[0]:
            raise ValueError("frequency and weight counts differ")
        if self.freqs.shape[1] != 2:
            raise ValueError("frequencies must be planar points")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        rows = self.freqs[np.lexsort(self.freqs.T[::-1])]
        if np.any((rows[1:, 0] == rows[:-1, 0]) & (rows[1:, 1] == rows[:-1, 1])):
            raise ValueError("frequencies must be distinct")
        if self.lift is not None:
            self.lift = np.asarray(self.lift, dtype=float).ravel()
            if len(self.lift) != len(self.weights):
                raise ValueError("lift and weight counts differ")

    def __len__(self) -> int:
        return len(self.weights)

    def lifted(self) -> np.ndarray:
        """(N, 3) array of (xi1, xi2, height)."""
        if self.lift is not None:
            return np.column_stack([self.freqs, self.lift])
        h = np.asarray(self.phase.eval(self.freqs[:, 0], self.freqs[:, 1]), dtype=float)
        return np.column_stack([self.freqs, h])

    def subset(self, idx: np.ndarray) -> "ExpSum":
        """The sum on the given frequencies; a subset of a product sum that
        is itself a product of factor positions keeps its factors."""
        sub = ExpSum(self.phase, self.freqs[idx], self.weights[idx],
                     lift=None if self.lift is None else self.lift[idx])
        if self.factors is not None and len(sub):
            pos = [np.unique(k[idx]) for k in _factor_index(self)]
            if len(pos[0]) * len(pos[1]) == len(sub):
                sub.factors = tuple(Factor(g.axis, g.values[u], g.weights[u], g.heights[u])
                                    for g, u in zip(self.factors, pos))
        return sub

    def l2_weight(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.weights) ** 2)))


def _separable_split(phi: BivariatePoly):
    """(psi1, psi2) callables with phi = psi1(x)+psi2(y), or None."""
    if any(j >= 1 and k >= 1 for (j, k) in phi.coeffs):
        return None
    c1 = {(j, 0): a for (j, k), a in phi.coeffs.items() if k == 0}
    c2 = {(0, k): a for (j, k), a in phi.coeffs.items() if k >= 1}
    p1 = BivariatePoly(phi.degree, c1) if c1 else BivariatePoly(0, {})
    p2 = BivariatePoly(phi.degree, c2) if c2 else BivariatePoly(0, {})
    return (
        lambda x: np.asarray(p1.eval(np.asarray(x), 0.0), dtype=float),
        lambda y: np.asarray(p2.eval(0.0, np.asarray(y)), dtype=float),
    )


def product_exp_sum(
    phase: BivariatePoly,
    xs: np.ndarray,
    ys: np.ndarray,
    x_weights: Optional[np.ndarray] = None,
    y_weights: Optional[np.ndarray] = None,
) -> ExpSum:
    """Exponential sum on the product set xs x ys with product weights.

    When the lift splits additively across the two axes (separable
    phase, or a singleton factor) the product structure is recorded and
    later norm computations factor accordingly.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    xw = np.ones(len(xs), dtype=complex) if x_weights is None else np.asarray(
        x_weights, dtype=complex
    )
    yw = np.ones(len(ys), dtype=complex) if y_weights is None else np.asarray(
        y_weights, dtype=complex
    )
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    freqs = np.column_stack([gx.ravel(), gy.ravel()])
    weights = np.outer(xw, yw).ravel()
    factors = None
    if len(ys) == 1:
        h1 = np.asarray(phase.eval(xs, ys[0]), dtype=float)
        factors = (Factor(0, xs, xw, h1), Factor(1, ys, yw, np.zeros(1)))
    elif len(xs) == 1:
        h2 = np.asarray(phase.eval(xs[0], ys), dtype=float)
        factors = (Factor(0, xs, xw, np.zeros(1)), Factor(1, ys, yw, h2))
    else:
        split = _separable_split(phase)
        if split is not None:
            factors = (
                Factor(0, xs, xw, split[0](xs)),
                Factor(1, ys, yw, split[1](ys)),
            )
    out = ExpSum(phase, freqs, weights)
    out.factors = factors
    return out


def _box_side(box_side: float) -> float:
    r = float(box_side)
    if not (0.0 < r < math.inf):
        raise ValueError(f"box side must be finite and positive, got {box_side!r}")
    return r


def snap_lift(f: ExpSum, box_side: float) -> ExpSum:
    """Copy of the sum with heights snapped to the (1/box_side)-grid.

    Snapping happens once, at the source, so that the whole sum and
    every member piece share identical (box-periodic) heights.  Product
    sums are snapped factor by factor, preserving the separable fast
    path; each factor moves by at most half a grid step, so a lifted
    height moves by up to one full step (half a step for other sums).
    The copy shares the frequencies and weights of ``f``, which were
    checked when ``f`` was made, so it is not validated again.
    """
    r = _box_side(box_side)
    out = copy.copy(f)
    if f.factors is None:
        out.lift = np.round(f.lifted()[:, 2] * r) / r
    else:
        out.lift = _factor_heights(f.factors, _factor_index(f), r)
        out.factors = tuple(replace(g, heights=np.round(g.heights * r) / r) for g in f.factors)
    return out


# -- grid fields (honest direct evaluation at small scale) ---------------


def sample_exp_sum(f: ExpSum, box: Box3, n: int) -> np.ndarray:
    """Evaluate the sum directly on the n^3 midpoint lattice of the box;
    returns the (n, n, n) complex samples.

    Raises on aliasing (n below twice the box side times the largest
    lifted frequency component) and on grids too large to hold.
    """
    lifted = f.lifted()
    max_freq = float(np.max(np.abs(lifted))) if len(lifted) else 0.0
    if n < 2 * box.side * max_freq:
        raise ValueError(
            f"aliasing: n={n} below the Nyquist margin "
            f"2*side*maxfreq={2 * box.side * max_freq:.1f}"
        )
    if n ** 3 > 1 << 24:
        raise ValueError("grid too large for direct evaluation; lower n")
    axes = [
        box.center[i] - box.side / 2 + box.side * (np.arange(n) + 0.5) / n
        for i in range(3)
    ]
    vals = np.empty((n, n, n), dtype=complex)
    # phase splits as x1.nu1 + (x2,x3).(nu2,nu3); evaluate per x1-slab
    tail = np.exp(
        2j
        * np.pi
        * (
            axes[1][:, None, None] * lifted[None, None, :, 1]
            + axes[2][None, :, None] * lifted[None, None, :, 2]
        )
    )  # (n, n, N)
    for i1, x1 in enumerate(axes[0]):
        head = np.exp(2j * np.pi * x1 * lifted[:, 0]) * f.weights
        vals[i1] = tail @ head
    return vals


def lp_norm(field: np.ndarray, p: float) -> float:
    """Riemann L^p_# norm of the samples ``sample_exp_sum`` returns."""
    if not p >= 1:
        raise ValueError("p must be at least 1")
    a = np.abs(field)
    if math.isinf(p):
        return float(a.max())
    return float(np.mean(a ** p)) ** (1.0 / p)


# -- the exact reduced-lattice engine -------------------------------------


@dataclass(frozen=True)
class NormReport:
    value: float
    exact: bool
    method: str
    snap_max: float
    lattice_dims: Tuple[int, ...]
    note: str = ""


# every path a member norm can take; "single" (one frequency, |weight|) is
# decided by ``decoupling_report`` before the engine runs
METHODS = ("single", "parseval", "separable", "energy", "pairs", "fft", "riemann",
           "lattice-max")
_INEXACT = {
    "riemann": "periodic trapezoid quadrature; exact only for even p",
    "lattice-max": "max over the period lattice (lower bound of sup)",
}
_SEPARABLE_SKIPPED = "separable path skipped: separable fields exceed the FFT budget"

_KEY_LIMIT = 1 << 62
_STACK_CELLS = 1 << 20  # complex cells per stacked FFT batch, 16 MB at complex128
_PAIR_CHUNK = 1 << 18  # frequency pairs per packed-key pass


@functools.lru_cache(maxsize=None)
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    try:
        return getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None


def _frees_heap(fn):
    """Hand the heap pages freed by each call of ``fn`` back to the system.

    Fields and merge arrays of a few MB come and go by the hundred in one
    pass.  glibc places them on its heap once an earlier array of their
    size has been freed, and returns the heap only from its top, so the
    freed pages a pass leaves resident depend on where a small survivor
    happens to sit: 0 to 40 MB, varying with the process's hash seed.
    Trimming after each pass (well under 1 ms) keeps what stays resident
    the same from run to run.
    """
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            trim = _malloc_trim()
            if trim is not None:
                trim(0)

    return call


# Segments: the rows of several sums laid end to end.  ``starts`` holds
# the first row of each (nonempty) segment; ``seg`` numbers each row's
# segment, non-decreasing.


def _seg_starts(lens: np.ndarray) -> np.ndarray:
    """First row of each segment of the given positive lengths."""
    out = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=out[1:])
    return out


def _seg_lens(starts: np.ndarray, n: int) -> np.ndarray:
    return np.diff(starts, append=n)


def _starts_of(seg: np.ndarray) -> np.ndarray:
    """First row of each run of equal segment numbers."""
    return np.flatnonzero(np.diff(seg, prepend=-1))


def _seg_take(starts: np.ndarray, lens: np.ndarray, segs: np.ndarray):
    """Rows of the chosen segments laid end to end, and their starts there."""
    sub = lens[segs]
    st = _seg_starts(sub)
    return np.arange(sub.sum()) - np.repeat(st - starts[segs], sub), st


def _seg_sums(values: np.ndarray, starts: np.ndarray) -> list:
    """Sum per segment.  ``np.sum`` on each slice keeps numpy's pairwise
    summation (``np.add.reduceat`` adds in sequence), so a member's value
    does not depend on the members batched with it."""
    return [float(np.sum(s)) for s in np.split(values, starts[1:])]


def _row_keys(columns) -> np.ndarray:
    """One int64 key per row, ordered as the rows are lexicographically.

    ``columns`` yields the integer columns, first (most significant)
    first.  Each column is shifted to start at 0 and appended as one
    mixed-radix digit.  Before a digit could push the key past 2^62, the
    key so far is replaced by its rank among its distinct values (and the
    column by its rank, if it alone is that wide): ranks keep the order,
    so the keys stay ordered and exact at any extent.
    """
    key = None
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        if len(col) == 0:
            return np.zeros(0, dtype=np.int64)
        low = col.min()
        if low:
            col = col - low
        radix = int(col.max()) + 1
        if key is None:
            key, top = col, radix
            continue
        if top * radix > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            top = len(uniq)
        if top * radix > _KEY_LIMIT:
            uniq, col = np.unique(col, return_inverse=True)
            radix = len(uniq)
        key = key * radix + col
        top *= radix
    return key


def _accumulate(inv: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Complex weights summed into n slots, each slot's terms added in
    row order (the order ``np.add.at`` uses), by two real bincounts."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(inv, weights.real, n)
    out.imag = np.bincount(inv, weights.imag, n)
    return out


def _snap_merge(values: np.ndarray, weights: np.ndarray, r_side: float, seg: np.ndarray):
    """Rows snapped to the (1/r_side)-grid, then merged where equal within
    a segment: one packed-key sort with the segment number as the leading
    digit.  Returns the merged integer rows in (segment, lexicographic)
    order, their weights and their segment numbers."""
    ints = np.round(r_side * values).astype(np.int64)
    keys, inv = np.unique(_row_keys([seg, *ints.T]), return_inverse=True)
    uniq = np.empty((len(keys), ints.shape[1]), dtype=np.int64)
    uniq[inv] = ints  # rows sharing a key are equal: any one fills the slot
    useg = np.empty(len(keys), dtype=seg.dtype)
    useg[inv] = seg
    return uniq, _accumulate(inv, weights, len(keys)), useg


def _reduce_axes(ints: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each column of each segment translated to start at 0 and divided
    by the gcd of its entries."""
    out = ints.copy()
    lens = _seg_lens(starts, len(out))
    for ax in range(out.shape[1]):
        col = out[:, ax]
        col -= np.repeat(np.minimum.reduceat(col, starts), lens)
        g = np.repeat(np.gcd.reduceat(col, starts), lens)
        np.floor_divide(col, g, out=col, where=g > 1)
    return out


def _best_shear(x: np.ndarray, h: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment, the leftmost integer lam minimizing the extent of
    h - lam*x, or 0 when lam = 0 is a minimizer or x is constant.

    The extent E is convex in lam (max minus min of affine functions), and
    E(lam) >= |lam - rs| * ptp(x) - E(rs), so every minimizer lies in the
    window [rs - w, rs + w] with w = 2 E(rs) // ptp(x) + 2 around the
    rounded least-squares slope rs.  By convexity E(lam + 1) < E(lam)
    exactly left of the leftmost minimizer, so that minimizer is the first
    lam of the window with E(lam + 1) >= E(lam).  A bisection over the
    window finds it on every segment in lockstep, each step evaluating E
    at mid and mid + 1 (max and min by ``reduceat``).
    """
    lens = _seg_lens(starts, len(x))
    lam = np.zeros(len(starts), dtype=np.int64)
    ptp = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    act = np.flatnonzero(ptp > 0)
    if not len(act):
        return lam
    rows, st = _seg_take(starts, lens, act)
    xa, ha, na = x[rows], h[rows], lens[act]
    owner = np.repeat(np.arange(len(act)), na)
    xc = xa - (np.add.reduceat(xa, st) / na)[owner]
    hc = ha - (np.add.reduceat(ha, st) / na)[owner]
    rs = np.round(np.add.reduceat(xc * hc, st) / np.add.reduceat(xc * xc, st))
    rs = rs.astype(np.int64)

    def ext(live: np.ndarray, lams: np.ndarray) -> np.ndarray:
        r, s = _seg_take(st, na, live)
        v = ha[r, None] - np.repeat(lams, na[live], axis=0) * xa[r, None]
        return np.maximum.reduceat(v, s, axis=0) - np.minimum.reduceat(v, s, axis=0)

    live = np.arange(len(act))
    w = 2 * ext(live, rs[:, None])[:, 0] // ptp[act] + 2
    lo, hi = rs - w, rs + w
    while len(live):
        mid = (lo[live] + hi[live]) // 2
        e = ext(live, mid[:, None] + np.arange(2))
        rising = e[:, 1] >= e[:, 0]
        hi[live] = np.where(rising, mid, hi[live])
        lo[live] = np.where(rising, lo[live], mid + 1)
        live = live[lo[live] < hi[live]]
    best_e = ext(np.arange(len(act)), lo[:, None])[:, 0]
    h_ext = np.maximum.reduceat(ha, st) - np.minimum.reduceat(ha, st)
    lam[act] = np.where(best_e < h_ext, lo, 0)
    return lam


def _shear_reduce(ints: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Shear the last (height) column by integer multiples of the others.

    Frequency shears are unimodular changes of variables on the torus:
    one-period means of |f|^p are invariant, while the height extent
    (hence the exact-quadrature grid) typically collapses by orders of
    magnitude for lifts of smooth phases.  Two rounds over the source
    columns; a segment that no shear changed in the first round is done.

    Even-p sums that take no per-factor path use ``_lattice_reduce``
    instead.  This shear serves the per-factor paths, whose two factors
    must keep the height axis they share, and the inexact paths (periodic
    quadrature, the lattice max), whose values depend on the lattice.
    """
    out = ints.copy()
    last = out.shape[1] - 1
    lens = _seg_lens(starts, len(out))
    segs = np.arange(len(starts))
    for _ in range(2):
        rows, st = _seg_take(starts, lens, segs)
        changed = np.zeros(len(segs), dtype=bool)
        for src in range(last):
            lam = _best_shear(out[rows, src], out[rows, last], st)
            out[rows, last] -= np.repeat(lam, lens[segs]) * out[rows, src]
            changed |= lam != 0
        segs = segs[changed]
        if not len(segs):
            break
    return out


def _lattice_reduce(ints: np.ndarray, starts: np.ndarray, q: int) -> np.ndarray:
    """Each segment's rows, translated and gcd-reduced per axis, then mapped
    by one integer unimodular matrix U and put in canonical axis order.

    U comes from pairwise Gauss reduction of the segment's covariance C
    (3 x 3, from ``reduceat``): for each ordered column pair, column d
    takes -round(C_ds / C_ss) times column s while |C_ds / C_ss| > 1/2 and
    C_dd falls, U and C following by congruence, until no pair moves in
    any segment.  Unlike a height shear, this flattens points along a
    fractional slope: H ~ X/2 keeps H's extent, 2H - X does not.  A
    segment keeps U only where it lowers the cells ``_fft_shape`` gives at
    this q, and only while every mapped column's bound sum_s |U_sd| ext_s
    stays below 2^62 (tested in floats before each integer step, so
    nothing wraps).  Requiring C_dd to fall ends the loop in floats too.
    U lowers the covariance, not the extents, so the height shear
    (``_shear_reduce``) can give fewer cells; where the cells exceed
    _FFT_BUDGET it is tried as well, so a sum that fits on sheared rows
    fits here.

    The canonical order puts live axes by ascending extent, dead axes
    last, so fields that differ only by axis order share one stacked FFT.

    Unimodular maps, axis permutations and per-axis gcds keep every
    one-period mean of |f|^{2q}, and each segment's map depends on its own
    rows alone.
    """
    base = _reduce_axes(ints, starts)
    n, c = base.shape
    m = len(starts)
    lens = _seg_lens(starts, n)
    seg = np.repeat(np.arange(m), lens)
    x = base.astype(float)
    x -= (np.add.reduceat(x, starts, axis=0) / lens[:, None])[seg]
    cov = np.empty((m, c, c))
    for i in range(c):
        for j in range(i, c):
            cov[:, i, j] = cov[:, j, i] = np.add.reduceat(x[:, i] * x[:, j], starts)
    ext0 = np.maximum.reduceat(base, starts, axis=0)
    u = np.tile(np.eye(c, dtype=np.int64), (m, 1, 1))
    # per column d of U, in floats: sum_s |U_sd| ext_s, which bounds the
    # mapped column and, on live axes, every |U_sd|
    extf = ext0.astype(float)
    bound = extf.copy()
    ok = np.ones(m, dtype=bool)
    moved = True
    while moved:
        moved = False
        for s in range(c):
            for d in range(c):
                if s == d:
                    continue
                css, cds, cdd = cov[:, s, s], cov[:, d, s], cov[:, d, d]
                # a non-constant integer column has C_ss >= 1/2; a smaller
                # C_ss is rounding error on a constant column
                mu = np.divide(cds, css, out=np.zeros(m), where=css >= 0.5)
                lam = np.round(mu)
                go = ok & (np.abs(mu) > 0.5) & (cdd - lam * (2 * cds - lam * css) < cdd)
                big = bound[:, d] + np.abs(lam) * np.maximum(bound[:, s], 1) >= 2.0 ** 62
                ok &= ~(go & big)
                i = np.flatnonzero(go & ~big)
                if not len(i):
                    continue
                moved = True
                lam = lam[i]
                u[i, :, d] -= lam.astype(np.int64)[:, None] * u[i, :, s]
                bound[i, d] = (np.abs(u[i, :, d]) * extf[i]).sum(axis=1)
                cov[i, :, d] -= lam[:, None] * cov[i, :, s]
                cov[i, d, :] -= lam[:, None] * cov[i, s, :]

    def cells(ext: np.ndarray) -> np.ndarray:
        # float products of the _fft_shape lengths (exact wherever a field
        # can fit, inf past the float range); extents repeat, so each
        # distinct one is looked up once
        uniq, inv = np.unique(ext, return_inverse=True)
        lens_q = np.array([_fft_shape((e,), q)[0] for e in uniq.tolist()], dtype=float)
        with np.errstate(over="ignore"):
            return lens_q[inv.reshape(ext.shape)].prod(axis=1)

    out, ext = base.copy(), ext0.copy()
    size = cells(ext0)

    def offer(segs: np.ndarray, make) -> None:
        """Take make's rows for the segments whose cells they lower."""
        rows, st = _seg_take(starts, lens, segs)
        new = _reduce_axes(make(base[rows], st), st)
        e = np.maximum.reduceat(new, st, axis=0)
        new_size = cells(e)
        better = new_size < size[segs]
        take = np.repeat(better, lens[segs])
        out[rows[take]] = new[take]
        ext[segs[better]], size[segs[better]] = e[better], new_size[better]

    def by_u(rows: np.ndarray, st: np.ndarray) -> np.ndarray:
        # rows @ U of their segment, one nonzero entry of U at a time, so no
        # per-row copy of U is held
        mapped = np.zeros_like(rows)
        for src in range(c):
            for dst in range(c):
                coef = u[segs, src, dst]
                if coef.any():
                    mapped[:, dst] += rows[:, src] * np.repeat(coef, lens[segs])
        return mapped

    segs = np.flatnonzero(ok & np.any(u != np.eye(c, dtype=np.int64), axis=(1, 2)))
    if len(segs):
        offer(segs, by_u)
    segs = np.flatnonzero(size > _FFT_BUDGET)
    if len(segs):
        offer(segs, _shear_reduce)
    # live axes by ascending extent, dead axes last
    perm = np.argsort(np.where(ext > 0, ext, np.iinfo(np.int64).max), axis=1, kind="stable")
    return np.take_along_axis(out, perm[seg], axis=1)


@functools.lru_cache(maxsize=None)
def _fast_len(n: int) -> int:
    """Smallest integer >= n whose prime factors are all at most 11: the
    lengths numpy.fft's pocketfft transforms fastest (scipy.fft's
    ``next_fast_len``)."""
    m = max(n, 1)
    while True:
        r = m
        while (g := math.gcd(r, 2310)) > 1:  # 2310 = 2*3*5*7*11
            r //= g
        if r == 1:
            return m
        m += 1


def _fft_shape(ext, mult: int, pad: int = 1) -> Tuple[int, ...]:
    """Zero-padded FFT length per axis: _fast_len(mult*extent + pad)
    on live axes (positive extent), 1 on dead ones.  A length past twice
    _FFT_BUDGET, the most any rule allows two fields together, stays
    unpadded: such a field never fits, and the search for a fast length
    would only cost time.  A length past the float range raises
    ValueError, before any cell count is formed from it."""
    lens = tuple(int(mult * e + pad) if e > 0 else 1 for e in ext)
    if max(lens) > sys.float_info.max:
        raise ValueError(f"a lattice length of {mult:.6g} x extent + {pad} is past the "
                         "float range; p is too large for an exact norm")
    return tuple(n if n > 2 * _FFT_BUDGET else _fast_len(n) for n in lens)


def _stacked_fields(shape: Tuple[int, ...], slot: np.ndarray, ints: np.ndarray,
                    weights: np.ndarray, k: int):
    """k sums sampled on one period of a shared reduced lattice: row i's
    merged integer frequency is written into the zero-padded array of
    sum slot[i], then one FFT runs over the live axes of the (k, *shape)
    stack.  Merged rows are distinct, so no cell is written twice.

    Returns (g, mult).  For complex weights g is the full field, from an
    unscaled inverse FFT (``numpy.fft.ifftn`` with norm="forward") run in
    place on the padded stack, and mult is None.  When every weight of
    the stack is real, the field satisfies g(-x) = conj g(x), so |g| is
    even and half the cells carry it all: a real-input FFT
    (``numpy.fft.rfftn`` into one preallocated complex array; it halves
    the last live axis, of n cells, to n // 2 + 1) gives conj g on that
    half, and mult holds the multiplicity of each index of the halved
    axis in the full lattice: 1 at index 0 and, for even n, at n // 2
    (each its own mirror); 2 elsewhere (the index and its mirror
    n - index).  mult sums to n.
    """
    total = math.prod(shape)
    real = not weights.imag.any()
    z = np.zeros(k * total, dtype=float if real else complex)
    z[slot * total + np.ravel_multi_index(tuple(ints.T), shape)] = (
        weights.real if real else weights)
    z = z.reshape((k,) + shape)
    live = [1 + ax for ax, n in enumerate(shape) if n > 1]
    if not live:
        return z, None
    if real:
        n = shape[live[-1] - 1]
        mult = np.full(n // 2 + 1, 2.0)
        mult[0] = 1.0
        if n % 2 == 0:
            mult[-1] = 1.0
        half = list(z.shape)
        half[live[-1]] = n // 2 + 1
        return rfftn(z, axes=live, out=np.empty(half, dtype=complex)), mult
    return ifftn(z, axes=live, norm="forward", out=z), None


def _field_reduce(shapes, ints, weights, starts, reduce) -> list:
    """``reduce`` of each segment's field on the lattice of its shape.
    Segments sharing a shape, and whether all their weights are real, are
    stacked, in chunks of at most _STACK_CELLS cells (one segment at
    least), under one FFT; ``reduce`` maps a (k, ...) stack and its
    multiplicities (``_stacked_fields``) to k results.  Segments whose
    shape is None get None."""
    lens = _seg_lens(starts, len(ints))
    real = np.logical_and.reduceat(weights.imag == 0, starts).tolist()
    groups = {}
    for i, shape in enumerate(shapes):
        if shape is not None:
            groups.setdefault((shape, real[i]), []).append(i)
    out = [None] * len(shapes)
    for (shape, _), members in groups.items():
        k = max(1, _STACK_CELLS // math.prod(shape))
        for c in range(0, len(members), k):
            pos = np.array(members[c:c + k])
            rows, _ = _seg_take(starts, lens, pos)
            slot = np.repeat(np.arange(len(pos)), lens[pos])
            for i, v in zip(pos, reduce(*_stacked_fields(shape, slot, ints[rows],
                                                         weights[rows], len(pos)))):
                out[i] = v
    return out


def _abs_pow(g: np.ndarray, p: float) -> np.ndarray:
    a = np.abs(g)
    a **= p
    return a


def _cell_mean(a: np.ndarray, mult: Optional[np.ndarray]) -> np.ndarray:
    """Mean of each field of a (k, ...) stack of cell values over its full
    lattice; with ``mult``, a stack is a half field whose halved axis is
    its last axis longer than 1, and each cell counts mult times."""
    if mult is None:
        return a.reshape(len(a), -1).mean(axis=1)
    rows = a.reshape(len(a), -1, len(mult))
    return (rows @ mult).sum(axis=1) / (rows.shape[1] * mult.sum())


def _axis1_means(g: np.ndarray, p: float,
                 mult: Optional[np.ndarray] = None) -> np.ndarray:
    """mean of |g|^p over axis 1 of a (k, n1, n3) field stack, per x3.

    Each output column is a sum over axis 1 alone, so |g|^p is taken in
    slabs of about _STACK_CELLS cells along the last axis and no |g|^p copy
    of the whole stack is held.  No slab is one column wide unless n3 is
    1: numpy sums a one-column slab pairwise instead of row by row, which
    would move the last bits.

    A half field (``mult`` given) halves x3 when x3 is live: the means,
    even in x3, are mirrored (x3 -> -x3) back to the full axis.  When x3
    is dead, x1 is the halved axis and its cells are weighted by mult."""
    k, n1, n3 = g.shape
    if mult is not None and n3 == 1:
        return _cell_mean(_abs_pow(g, p), mult)[:, None]
    step = max(2, _STACK_CELLS // (k * n1))
    cuts = list(range(0, n3, step)) + [n3]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    out = np.empty((k, n3))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        out[:, lo:hi] = _abs_pow(g[:, :, lo:hi], p).mean(axis=1)
    if mult is not None:
        n = int(mult.sum())
        j = np.arange(n)
        out = out[:, np.minimum(j, n - j)]
    return out


def _runs(sizes) -> list:
    """(lo, hi) ranges cutting consecutive items greedily: a run takes the
    next item while the run's sizes add to at most _PAIR_CHUNK, and an
    item larger than that runs alone."""
    cum = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=cum[1:])
    runs, lo = [], 0
    while lo < len(sizes):
        hi = int(np.searchsorted(cum, cum[lo] + _PAIR_CHUNK, side="right")) - 1
        runs.append((lo, max(hi, lo + 1)))
        lo = runs[-1][1]
    return runs


def _pair_tables(ints: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                 sums: bool = False):
    """Per segment, its pair table: every ordered pair of rows (a, b) adds
    w_a w_b at the row sum ints_a + ints_b.  Equal sums merge by one packed
    key (segment number leading, then the per-axis sums), each merged
    weight adding its terms in the segment's own pair order.

    Yields, per run of whole segments (``_runs`` of their pair counts),
    the merged weights in (segment, lexicographic sum) order, their
    segment numbers and, with ``sums``, the summed rows."""
    cols = np.ascontiguousarray(ints.T)
    lens = _seg_lens(starts, len(ints))
    for first, stop in _runs(lens * lens):
        # pair (a, b) of a segment of n rows sits at a*n + b; row a's block
        # of n pairs runs over the segment's rows b
        n = lens[first:stop]
        n_row = np.repeat(n, n)
        seg_row = np.repeat(np.arange(first, stop), n)
        lo = starts[first]
        a = np.repeat(np.arange(lo, lo + len(n_row)), n_row)
        b = np.arange(len(a)) + np.repeat(starts[seg_row] - _seg_starts(n_row), n_row)
        seg = np.repeat(seg_row, n_row)
        summed = [c[a] + c[b] for c in cols]
        keys, inv = np.unique(_row_keys(chain([seg], summed)), return_inverse=True)
        useg = np.empty(len(keys), dtype=seg.dtype)
        useg[inv] = seg
        rows = None
        if sums:
            rows = np.empty((len(keys), len(cols)), dtype=np.int64)
            rows[inv] = np.column_stack(summed)
        yield _accumulate(inv, weights[a] * weights[b], len(keys)), useg, rows


def _pairs_mean_pow4(ints: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> list:
    """Per segment, mean |f|^4 via Parseval on the pair sum f^2, exact for
    any integer frequencies: sum of |sum_{pairs adding to k} a a'|^2."""
    out = []
    for acc, useg, _ in _pair_tables(ints, weights, starts):
        out.extend(_seg_sums(np.abs(acc) ** 2, _starts_of(useg)))
    return out


def _energy_bound(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment of integer coordinates, their additive energy
    sum_k c_k^2, where c_k counts the ordered row pairs with x_a + x_b = k:
    the mean |f|^4 of the segment's unit-weight sum.  It bounds the
    (k, H, H') terms of ``_energy_mean_pow4``, which merges the pairs of
    one sum k that share a height H."""
    return np.array(_pairs_mean_pow4(x[:, None], np.ones(len(x)), starts))


def _energy_mean_pow4(ints: np.ndarray, weights: np.ndarray, starts: np.ndarray) -> list:
    """mean |f|^4 of product members by each factor's additive energy.

    Segments 2i and 2i+1 hold member i's two factors as (coordinate,
    height) rows, heights non-negative on one shared grid.  With P(k, H)
    a factor's pair table (``_pair_tables``: k = m1 + m2, H = h1 + h2),
    the mean of |g|^4 over the factor's own axis at height x3 is
    sum_k |sum_H P(k, H) e(H x3)|^2 = sum_s D(s) e(s x3), where
    D(s) = sum_k sum_{H - H' = s} P(k, H) conj P(k, H'), so the mean of
    |f|^4 is sum_s D1(s) D2(-s).  As D(-s) = conj D(s), only s >= 0 is
    formed: D(0) = sum |P|^2, each pair of table entries of one k adds
    once to D(s > 0), and the mean is
    D1(0) D2(0) + 2 sum_{s > 0} Re D1(s) conj D2(s).

    The (k, H, H') terms go into D by a real bincount per run of at most
    _PAIR_CHUNK terms (and one for the imaginary parts when some weight is
    complex; the added zeros change no bit), so a member's value does not
    depend on the members batched with it."""
    acc, tseg, kh = (np.concatenate(c) for c in zip(*_pair_tables(ints, weights, starts,
                                                                  sums=True)))
    k, h = kh[:, 0], kh[:, 1]
    n = len(acc)
    p_re, p_im = acc.real, acc.imag
    cplx = bool(p_im.any())
    tst = _starts_of(tseg)  # every segment has a pair, so tseg[tst[j]] == j
    d0 = _seg_sums(p_re * p_re + p_im * p_im, tst)
    ext = np.maximum.reduceat(h, tst) - np.minimum.reduceat(h, tst)
    off = _seg_starts(ext + 1)
    # entries of one (segment, k) run ascend in H; each pairs with the
    # entries after it in its run
    new = np.ones(n, dtype=bool)
    new[1:] = (tseg[1:] != tseg[:-1]) | (k[1:] != k[:-1])
    run = np.flatnonzero(new)
    cnt = np.repeat(np.append(run[1:], n), np.diff(np.append(run, n))) - 1 - np.arange(n)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=cum[1:])
    # runs of whole segments; a segment with more terms than a run holds is
    # cut alone, between its rows, so no cut depends on the other segments
    ends = np.append(tst[1:], n)
    runs = []
    for j, stop in _runs(np.add.reduceat(cnt, tst)):
        lo, hi = tst[j], ends[stop - 1]
        if cum[hi] - cum[lo] <= _PAIR_CHUNK:
            runs.append((lo, hi))
        else:
            runs.extend((lo + a, lo + b) for a, b in _runs(cnt[lo:hi]))
    dr = np.zeros(off[-1] + ext[-1] + 1)
    di = np.zeros(len(dr) if cplx else 0)
    for lo, hi in runs:
        total = cum[hi] - cum[lo]
        if not total:
            continue
        c = cnt[lo:hi]
        a = np.repeat(np.arange(lo, hi), c)
        b = a + 1 + np.arange(total) - np.repeat(cum[lo:hi] - cum[lo], c)
        base, last = off[tseg[lo]], tseg[hi - 1]
        span = off[last] + ext[last] + 1 - base
        slot = off[tseg[a]] - base + h[b] - h[a]
        ra, rb = p_re[a], p_re[b]
        if cplx:
            ia, ib = p_im[a], p_im[b]
            dr[base:base + span] += np.bincount(slot, rb * ra + ib * ia, span)
            di[base:base + span] += np.bincount(slot, ib * ra - rb * ia, span)
        else:
            dr[base:base + span] += np.bincount(slot, rb * ra, span)
    out = []
    for i in range(len(tst) // 2):
        o1, o2 = off[2 * i] + 1, off[2 * i + 1] + 1
        s = min(ext[2 * i], ext[2 * i + 1])
        cross = dr[o1:o1 + s] * dr[o2:o2 + s]
        if cplx:
            cross += di[o1:o1 + s] * di[o2:o2 + s]
        out.append(d0[2 * i] * d0[2 * i + 1] + 2.0 * float(np.sum(cross)))
    return out


def _factor_index(f: ExpSum):
    """Per frequency of a product sum, its position in each factor."""
    out = []
    for g in f.factors:
        order = np.argsort(g.values)
        out.append(order[np.searchsorted(g.values, f.freqs[:, g.axis], sorter=order)])
    return out


def _factor_rows(seg: np.ndarray, k: np.ndarray, size: int, m: int):
    """The distinct (member, factor position) pairs among the rows, by
    member and then position: (members, positions)."""
    mark = np.zeros(m * size, dtype=bool)
    mark[seg * size + k] = True
    return np.divmod(np.flatnonzero(mark), size)


def _factor_heights(factors, fidx, r: float) -> np.ndarray:
    """Lifted heights with each factor's height snapped to the (1/r)-grid."""
    out = 0.0
    for g, k in zip(factors, fidx):
        out = out + np.round(g.heights[k] * r) / r
    return out


def _product_mean_pow(factors, fidx, seg: np.ndarray, r_side: float, q: int):
    """mean |f|^{2q} per product member by a per-factor path.  ``fidx``
    gives each row's position in each factor and ``seg`` its member
    (0..m-1).  Returns (mean powers, methods, dims) per member; all three
    are None where neither path fits.

    Each factor's rows are snapped, merged, translated, gcd-reduced on
    their own axis and sheared; the height axis is shared, so its gcd is
    the joint one of both factors.  Then, per member:

    - "energy" (q = 2 only): ``_energy_mean_pow4`` on the two factors,
      when its work is at most ``limit``: _ENERGY_TERMS times the cells
      of the two separable fields, or _PAIR_BUDGET where they exceed
      twice _FFT_BUDGET.  The work is the 2 e3 + 2 shifts of D it counts
      into and the additive-energy bound of ``_energy_bound`` on its
      terms; the bound is not formed where a lower bound on it (n^2, and
      n^4 / (2 xmax + 1) by Cauchy-Schwarz) already exceeds the limit.
      Members chosen for energy run in groups of at most _PAIR_CHUNK pair
      rows and D slots (``_runs``; one member at least), so what one call
      holds does not grow with the number of members.

      _ENERGY_TERMS = 1 is measured on 2 cores (best of five to nine,
      energy time over fields time against bound / cells).  Whole bump
      sums of x^2 + y^2 at 2^-5..2^-8 over box sides 2^5..2^14: 0.23-1.05
      at 1.3, 0.46-1.17 at 2.3-2.8, 0.84-1.8 at 4-8, 1.4-2.5 at 10-82.
      The 781 product members of the norms workload's decoupling sums
      (elliptic bump caps, line and strip examples), whose small fields
      share stacked FFTs: 1.56 at 1-2, 1.22-1.37 at 2-16, 2.37 beyond, so
      none of them takes energy, and with the pre-filter none forms the
      bound.  These ratios were measured before repeated factor segments
      shared one field (below), which makes the fields cheaper still where
      members repeat segments; _ENERGY_TERMS is not re-tuned for that,
      since a member that changed method would change its value in the
      last bits.  Whole sums under the rule: x^2 + y^2 on the 2^-7 grid at
      box side 2^21 (bound 2.9e6, 8.7e6 cells) takes 0.024 s against 0.22 s by
      fields, x^2 - y^2 on the 2^-6 sqrt2 lattice 0.011 s against 1.95 s;
      the 2^-8 elliptic bump at box side 2^8 (bound 2.3e7, 2.8e5 cells)
      keeps its fields, 0.025 s against 0.063 s by energy.
    - "separable": two planar FFT fields sharing the lift axis, each
      reduced to its mean of |g|^{2q} over its own axis, then multiplied
      and averaged over x3, when they fit twice _FFT_BUDGET.  A field is
      fixed by its shape, reduced rows and merged weights, so factor
      segments equal in all three share one field: the 256 elliptic caps
      at 2^-8 have 36 distinct segments of 512, the strip axis family at
      2^-8 9 of 510.  A field's slice does not depend on its stack, so a
      shared slice is the one each segment would get alone.
    """
    parts = []
    for ax, (g, k) in enumerate(zip(factors, fidx)):
        # a member's factor rows: its distinct positions in the factor
        mem, pos = _factor_rows(seg, k, len(g.values), int(seg[-1]) + 1)
        parts.append((2 * mem + ax, g.values[pos], g.heights[pos], g.weights[pos]))
    fseg, vals, heights, wts = (np.concatenate(c) for c in zip(*parts))
    order = np.argsort(fseg, kind="stable")
    ints, w, fseg = _snap_merge(np.column_stack([vals[order], heights[order]]),
                                wts[order], r_side, fseg[order])
    st = _starts_of(fseg)
    lens = _seg_lens(st, len(ints))
    # the coordinate axis is the factor's own; the height axis is shared,
    # so here it is only translated, and divided below by the joint gcd of
    # both factors' heights
    ints[:, :1] = _reduce_axes(ints[:, :1], st)
    ints = _shear_reduce(ints, st)
    col = ints[:, 1]
    col -= np.repeat(np.minimum.reduceat(col, st), lens)
    g3 = np.gcd.reduceat(col, st)
    g3 = np.repeat(np.repeat(np.gcd(g3[0::2], g3[1::2]), 2), lens)
    np.floor_divide(col, g3, out=col, where=g3 > 1)
    xmax = np.maximum.reduceat(ints[:, 0], st)
    hmax = np.maximum.reduceat(col, st)
    e3 = (hmax[0::2] + hmax[1::2]).tolist()
    m = len(e3)
    shapes, limit = [], np.empty(m)
    for i, e in enumerate(e3):
        sh = (_fft_shape((int(xmax[2 * i]), e), q), _fft_shape((int(xmax[2 * i + 1]), e), q))
        cells = math.prod(sh[0]) + math.prod(sh[1])
        fits = cells <= 2 * _FFT_BUDGET
        shapes.extend(sh if fits else (None, None))
        limit[i] = _ENERGY_TERMS * cells if fits else _PAIR_BUDGET
    methods = ["separable" if shapes[2 * i] is not None else None for i in range(m)]
    energy, groups = np.zeros(m, dtype=bool), []
    if q == 2:
        n = lens.astype(float)
        low = np.maximum(n * n, n ** 4 / (2 * xmax + 1))
        slots = 2 * np.array(e3, dtype=np.int64) + 2
        cand = np.flatnonzero((low[0::2] + low[1::2] <= limit) & (slots <= limit))
        if len(cand):
            rows, cst = _seg_take(st, lens, np.column_stack([2 * cand, 2 * cand + 1]).ravel())
            bound = _energy_bound(ints[rows, 0], cst)
            energy[cand] = bound[0::2] + bound[1::2] <= limit[cand]
        chosen = np.flatnonzero(energy)
        pairs = lens * lens
        size = pairs[0::2] + pairs[1::2] + slots
        groups = [chosen[lo:hi] for lo, hi in _runs(size[chosen])]
        for i in chosen:
            shapes[2 * i] = shapes[2 * i + 1] = None
            methods[i] = "energy"
    means, dims = [None] * m, [None] * m
    # each field's mean of |g|^{2q} over its own axis, a function of x3:
    # one field per distinct segment, whose repeats copy its slice
    same = list(range(2 * m))
    first = {}
    for i, (a, n, shape) in enumerate(zip(st.tolist(), lens.tolist(), shapes)):
        if shape is not None:
            same[i] = first.setdefault(
                (shape, ints[a:a + n].tobytes(), w[a:a + n].tobytes()), i)
    slices = _field_reduce([sh if same[i] == i else None for i, sh in enumerate(shapes)],
                           ints, w, st, lambda g, mult: _axis1_means(g, 2 * q, mult))
    slices = [slices[i] for i in same]
    by_len = {}
    for i in range(m):
        if shapes[2 * i] is not None:
            by_len.setdefault(shapes[2 * i][1], []).append(i)
            dims[i] = (shapes[2 * i][0], shapes[2 * i + 1][0], shapes[2 * i][1])
    for members in by_len.values():
        prods = (np.stack([slices[2 * i] for i in members])
                 * np.stack([slices[2 * i + 1] for i in members]))
        for i, v in zip(members, prods.mean(axis=1)):
            means[i] = float(v)
    for group in groups:
        rows, cst = _seg_take(st, lens, np.column_stack([2 * group, 2 * group + 1]).ravel())
        for i, v in zip(group, _energy_mean_pow4(ints[rows], w[rows], cst)):
            means[i], dims[i] = v, ()
    return means, methods, dims


@_frees_heap
def _member_norms(f: ExpSum, blocks: Sequence[np.ndarray], p: float,
                  r: float) -> List[NormReport]:
    """Normalized reports of f restricted to each block of frequency
    indices (each nonempty), over a box of side r, in one pass.

    1. Rows: the blocks' frequencies laid end to end, tagged by member.
       A member whose indices form a product of factor positions gets the
       per-factor snap of its heights; other members snap the whole lift.
    2. Per factor: for even p >= 4, product members take the separable
       fields or, at p = 4, the factors' additive energy, by the rule of
       ``_product_mean_pow``; those with neither go on as other members.
    3. Snap and merge the other members: one packed-key sort, member
       number leading; then per-member translation and gcd, and for even
       p one unimodular reduction and the canonical axis order
       (``_lattice_reduce``), otherwise the height shear.
    4. Evaluate by the method rule of ``expsum_lp``: Parseval at p = 2;
       for even p pairs or FFT; the lattice max at p = inf; periodic
       quadrature otherwise.  Fields are stacked per FFT shape (and
       realness of the weights), one FFT per stack.

    Raises the first member's ValueError (in block order) when a member
    has no exact path within _FFT_BUDGET.  Raises ValueError before any
    work when p is finite and the p-th power of some member's l1 norm of
    weights, which bounds |f|^p, is not a finite float; when 2 <= p <= 4
    _FFT_BUDGET and the p-th power of a member's l2 norm of weights, which
    bounds the mean of |f|^p from below, is below 2^-969 (all-zero weights
    exempt); and before any lattice is sized when one of its lengths is
    not a finite float (``_fft_shape``).
    """
    m = len(blocks)
    lens = np.array([len(b) for b in blocks], dtype=np.int64)
    idx = np.concatenate(blocks)
    seg = np.repeat(np.arange(m), lens)
    starts = _seg_starts(lens)
    if not math.isinf(p):
        absw = np.abs(f.weights[idx])
        l1s = np.add.reduceat(absw, starts)
        l1 = float(l1s.max())
        try:
            bound = l1 ** float(p)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(f"|f|^p may overflow: the weights' l1 norm {l1:.6g} to the "
                             f"power p = {p:.6g} is past the float range")
        # mean |f|^p >= (mean |f|^2)^(p/2) = l2^p; below 2^-969 the cells
        # that flush to zero may cost more than 2^-53 of it.  Past p = 4
        # _FFT_BUDGET no field has room for a live axis of p / 2 cells, so
        # the lattice sizing refuses such a p first.
        if 2 <= p <= 4 * _FFT_BUDGET:
            sq = np.add.reduceat(absw * absw, starts)
            low = sq[(l1s > 0) & (sq ** (p / 2) < 2.0 ** -969)]
            if len(low):
                raise ValueError(f"|f|^p may underflow: a member's l2 norm of weights "
                                 f"{math.sqrt(low.min()):.6g} to the power p = {p:.6g} is "
                                 "below 2^-969")
    lifted = f.lifted()[idx]
    moved = np.zeros(m)
    product = np.zeros(m, dtype=bool)
    if f.factors is not None:
        fidx = [k[idx] for k in _factor_index(f)]
        distinct = [np.bincount(_factor_rows(seg, k, len(g.values), m)[0], minlength=m)
                    for g, k in zip(f.factors, fidx)]
        product = distinct[0] * distinct[1] == lens
        rows = product[seg]
        heights = _factor_heights(f.factors, fidx, r)
        moved = np.maximum.reduceat(
            np.where(rows, np.abs(heights - lifted[:, 2]), 0.0), starts)
        lifted[rows, 2] = heights[rows]
    # largest displacement of a lifted coordinate by the snap, per member
    # (a maximum over the three columns, not a short-axis reduction, which
    # numpy runs row by row)
    d = np.abs(np.round(r * lifted) / r - lifted)
    snap = np.maximum.reduceat(np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2]), starts)
    snap = np.maximum(snap, moved).tolist()
    value, method, dims, note = [0.0] * m, [""] * m, [()] * m, [""] * m

    even = not math.isinf(p) and float(p).is_integer() and int(p) % 2 == 0
    general = np.ones(m, dtype=bool)
    if even and p != 2 and product.any():
        rows = product[seg]
        for i, v, mt, d in zip(np.flatnonzero(product), *_product_mean_pow(
                f.factors, [k[rows] for k in fidx], np.cumsum(product)[seg[rows]] - 1,
                r, int(p) // 2)):
            if v is None:
                note[i] = _SEPARABLE_SKIPPED
            else:
                general[i] = False
                value[i], method[i], dims[i] = v ** (1.0 / p), mt, d
    members = np.flatnonzero(general)
    if len(members):
        rows = general[seg]
        ints, w, useg = _snap_merge(lifted[rows], f.weights[idx[rows]], r, seg[rows])
        st = _starts_of(useg)
        if even:
            ints = _lattice_reduce(ints, st, int(p) // 2)
        else:
            ints = _reduce_axes(_shear_reduce(_reduce_axes(ints, st), st), st)
        for i, v, mt, d in zip(members, *_reduced_norms(ints, w, st, p)):
            value[i], method[i], dims[i] = v, mt, d
            note[i] = _INEXACT.get(mt, note[i])
    return [NormReport(value[i], method[i] not in _INEXACT, method[i], snap[i], dims[i],
                       note[i]) for i in range(m)]


def _reduced_norms(ints: np.ndarray, w: np.ndarray, starts: np.ndarray, p: float):
    """(values, methods, dims) of the segments of merged, reduced integer
    rows, by the method rule for sums that take no per-factor path; the
    method and FFT shape of each segment are checked against _FFT_BUDGET
    in segment order before any field is built.

    At p = 4 a segment of k rows takes pairs when _PAIR_CELLS k^2 is at
    most its FFT cells (and k^2 at most _PAIR_BUDGET), or when its field
    exceeds _FFT_BUDGET.  A sorted pair costs 58-78 ns against 22-31 ns
    per FFT cell, measured on 2 cores (best of nine) on the 3,431 members
    of the xy random hp sums (2^-4, 2^-5) and the xy bump axis families
    (2^-5, 2^-6), binned by cells / k^2: pairs take 5.1 times the FFT's
    time at cells / k^2 <= 1, 2.0 in (1, 2], 1.4 in (2, 3] and 0.74 in
    (3, 4], so _PAIR_CELLS is 3.  The old rule k^2 <= cells sent 500 of
    the 1,882 xy random hp members at 2^-5 to pairs.  On the lattices of
    ``_lattice_reduce`` one of the norms workload's members takes pairs
    (xy random hp 2^-5, in (3, 4]; 8 did on the height-sheared lattices,
    2 of them at 2^-4); pairs pay off most on few rows spread over a large
    lattice: 20 random rows in [0, 100]^3 (7.5e6 cells) take 0.3 ms by
    pairs against 0.22 s by FFT."""
    ext = np.maximum.reduceat(ints, starts, axis=0).tolist()
    nrows = _seg_lens(starts, len(ints))
    n = len(starts)
    even = not math.isinf(p) and float(p).is_integer() and int(p) % 2 == 0
    if p == 2:
        return ([math.sqrt(s) for s in _seg_sums(np.abs(w) ** 2, starts)],
                ["parseval"] * n, [()] * n)
    if math.isinf(p):
        shapes = [_fft_shape(e, 4, 5) for e in ext]
        methods = ["lattice-max"] * n
    elif even:
        q = int(p) // 2
        shapes = [_fft_shape(e, q) for e in ext]
        methods = ["pairs" if q == 2 and (math.prod(s) > _FFT_BUDGET or (
            k * k <= _PAIR_BUDGET and _PAIR_CELLS * k * k <= math.prod(s)))
                   else "fft" for s, k in zip(shapes, nrows.tolist())]
    else:
        shapes = [_fft_shape(e, int(math.ceil(p)) + 2) for e in ext]
        methods = ["riemann"] * n
    dims = [() if mt == "pairs" else tuple(k for k in s if k > 1)
            for s, mt in zip(shapes, methods)]
    for k, mt, d, shape in zip(nrows.tolist(), methods, dims, shapes):
        if mt == "pairs" and k * k > _PAIR_BUDGET:
            raise ValueError("no exact path: FFT lattice and pair table both exceed budget")
        if mt != "pairs" and math.prod(shape) > _FFT_BUDGET:
            raise ValueError(f"reduced lattice {d} exceeds the in-memory FFT budget; "
                             "the sum has no dense exact path at this scale")

    fields = [None if mt == "pairs" else s for s, mt in zip(shapes, methods)]
    if math.isinf(p):
        # a half field holds every value of |g|: the max needs no multiplicity
        return (_field_reduce(fields, ints, w, starts,
                              lambda g, _: np.abs(g).reshape(len(g), -1).max(axis=1)),
                methods, dims)
    power = int(p) if even else p
    means = _field_reduce(fields, ints, w, starts,
                          lambda g, mult: _cell_mean(_abs_pow(g, power), mult))
    pairs = np.flatnonzero([mt == "pairs" for mt in methods])
    if len(pairs):
        rows, pst = _seg_take(starts, nrows, pairs)
        for j, v in zip(pairs, _pairs_mean_pow4(ints[rows], w[rows], pst)):
            means[j] = v
    return [float(v) ** (1.0 / p) for v in means], methods, dims


def expsum_lp(f: ExpSum, p: float, box_side: float) -> NormReport:
    """L^p_# norm of the sum over a box of side ``box_side``.

    Frequencies are snapped to the (1/box_side)-grid, making the sum
    periodic; for even integer p the one-period integral is then exact.
    Product sums are snapped factor by factor, as ``snap_lift`` does,
    before any path is chosen, so every path sees the same sum.  The
    method chosen (Parseval, separable FFT, additive energy, pair
    counting, plain FFT) is recorded in the report along with the largest
    displacement of a lifted point.  This is the one-member call of the
    engine that ``decoupling_report`` runs on all members at once.
    """
    if not p >= 1:
        raise ValueError("p must be at least 1")
    return _member_norms(f, [np.arange(len(f))], p, _box_side(box_side))[0]


# -- decoupling ratios -----------------------------------------------------


@dataclass(frozen=True)
class DecoupleReport:
    ratio: float
    lhs: float
    rhs: float
    p: float
    box_side: float
    delta: float
    members_used: int
    snap_max: float
    exact: bool
    methods: Dict[str, int]  # members per norm path, keyed by every entry of METHODS


def assign_frequencies(f: ExpSum, cover: FlatCover, tol: Optional[float] = None):
    """Subsets of frequency indices per cover member whose planar slab
    neighborhood contains the lifted point: frequencies within world
    distance tol of the member, under any frame (the cover's delta by
    default).  tol = 0 means sharp half-open tiles with the outer
    boundary of each tiling closed, so each frequency lands in at most
    one tile per tiling.  Raises if tol is negative or not finite, and if
    any frequency is uncovered."""
    tol = cover.delta if tol is None else tol
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    pts = f.freqs
    counts = np.zeros(len(pts), dtype=np.int64)
    subsets = []
    for inc in cover.incidences(pts, tol if tol > 0.0 else None):
        subsets.extend(inc.blocks())
        counts += np.bincount(inc.pidx, minlength=len(pts))
    if len(pts) and counts.min() < 1:
        bad = int(np.argmin(counts))
        raise ValueError(
            f"frequency ({pts[bad, 0]:.6g}, {pts[bad, 1]:.6g}) uncovered"
        )
    return subsets, counts


def decoupling_report(
    f: ExpSum,
    cover: FlatCover,
    p: float,
    box_side: Optional[float] = None,
    tol: Optional[float] = None,
) -> DecoupleReport:
    """The ratio ||f||_p / (sum_S ||f_S||_p^2)^(1/2) with full detail.

    A one-frequency member's norm is |weight|; all other members go
    through the engine together (``_member_norms``), and ``methods``
    counts the members per path."""
    r = 1.0 / cover.delta if box_side is None else float(box_side)
    subsets, _ = assign_frequencies(f, cover, tol)
    lhs_rep = expsum_lp(f, p, r)
    multi = [s for s in subsets if len(s) > 1]
    reports = iter(_member_norms(f, multi, p, r) if multi else [])
    exact, snap = lhs_rep.exact, lhs_rep.snap_max
    methods = dict.fromkeys(METHODS, 0)
    norms = []
    for idx in subsets:
        if len(idx) == 1:
            norms.append(float(abs(f.weights[idx[0]])))
            methods["single"] += 1
            continue
        rep = next(reports)
        norms.append(rep.value)
        methods[rep.method] += 1
        exact = exact and rep.exact
        snap = max(snap, rep.snap_max)
    rhs = float(np.sqrt(np.sum(np.square(norms))))
    ratio = lhs_rep.value / rhs if rhs > 0 else math.inf
    return DecoupleReport(ratio, lhs_rep.value, rhs, p, r, cover.delta, len(norms), snap,
                          exact, methods)


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Least-squares exponent fit: ratio ~ C * delta^(-slope)."""

    slope: float
    intercept: float
    residual: float


def slope_fit(points: Sequence[Tuple[float, float]]) -> SweepReport:
    pts = [(float(d), float(rho)) for d, rho in points]
    if len({d for d, _ in pts}) < 4:
        raise ValueError("slope fit needs at least 4 distinct deltas")
    if any(d <= 0 or rho <= 0 for d, rho in pts):
        raise ValueError("sweep points must be positive")
    x = np.log2([1.0 / d for d, _ in pts])
    y = np.log2([rho for _, rho in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SweepReport(float(slope), float(intercept), resid)


# -- extremal examples -----------------------------------------------------


def line_example(delta: float) -> ExpSum:
    """Unit weights on (j*sqrt(delta), 0): the axis line of the saddle,
    the input that forces the log-loss against any square partition."""
    _require_dyadic(delta)
    n = int(math.floor(delta ** -0.5 + 1e-9))
    xs = np.arange(n) * math.sqrt(delta)
    return product_exp_sum(hyperbolic_phase(), xs, np.zeros(1))


def bump_example(phi: BivariatePoly, region: Tuple[float, float, float, float],
                 delta: float) -> ExpSum:
    """Unit weights on the delta-net of an axis region of the square."""
    _require_dyadic(delta)
    xmin, ymin, xmax, ymax = region
    if not (0 - 1e-9 <= xmin <= xmax <= 1 + 1e-9 and 0 - 1e-9 <= ymin <= ymax <= 1 + 1e-9):
        raise ValueError("region must sit inside the unit square")
    xs = xmin + delta * np.arange(int(math.floor((xmax - xmin) / delta + 1e-9)) + 1)
    ys = ymin + delta * np.arange(int(math.floor((ymax - ymin) / delta + 1e-9)) + 1)
    return product_exp_sum(phi, xs, ys)


def strip_example(delta: float, a: int) -> ExpSum:
    """Unit weights on the delta-net of the a-th horizontal delta-strip,
    lifted to the saddle: one Dirichlet row in disguise."""
    _require_dyadic(delta)
    inv = 1.0 / delta
    if not (0 <= a < inv):
        raise ValueError("strip index a must satisfy 0 <= a < 1/delta")
    xs = delta * np.arange(int(round(inv)))
    ys = np.array([a * delta])
    return product_exp_sum(hyperbolic_phase(), xs, ys)


def random_product_example(
    phi: BivariatePoly, delta: float, rng: np.random.Generator
) -> ExpSum:
    """delta-net of the square with random complex product weights;
    keeps the separable fast path available at small delta."""
    _require_dyadic(delta)
    n = int(round(1.0 / delta)) + 1
    xs = delta * np.arange(n)
    ys = delta * np.arange(n)
    xw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    yw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return product_exp_sum(phi, xs, ys, xw, yw)


_ST_PHASES = (
    {(1, 1): 1.0},
    {(2, 0): 1.0, (0, 2): -1.0},
)


def stein_tomas_ratio(f: ExpSum, delta: float, p: float) -> float:
    """delta^(1-3/p) ||f||_{L^p_#(B_{1/delta})} / l2(weights).

    The normalization discretizes the restriction inequality with
    unit-height delta-cube densities: the inequality then reads
    ratio <= C uniformly in delta.  For p = infinity the norm is the
    lattice max and the prefactor is delta.
    """
    if not math.isinf(p) and p < 4:
        raise ValueError("p must be at least 4 (or infinity)")
    canon = {jk: v for jk, v in f.phase.coeffs.items() if v != 0 and sum(jk) == 2}
    if canon not in [dict(d) for d in _ST_PHASES] or any(
        sum(jk) > 2 and abs(v) > 0 for jk, v in f.phase.coeffs.items()
    ):
        raise ValueError("phase must be the saddle in one of its two normal forms")
    rep = expsum_lp(f, p, 1.0 / delta)
    prefactor = delta if math.isinf(p) else delta ** (1.0 - 3.0 / p)
    return prefactor * rep.value / f.l2_weight()
