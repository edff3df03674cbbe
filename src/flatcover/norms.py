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
along the shared third axis.  A quadratic-count fallback via pair
frequencies covers p=4 when neither route fits in memory.

Integer rows (snapped frequencies, pair sums) are merged through packed
keys: one int64 per row, in lexicographic row order, so merging needs
only a 1-D sort.  The height shear is found by a k-ary bracket search
that evaluates a few candidate shears per step in one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.fft import ifftn, next_fast_len

from .cover import FlatCover, _require_dyadic
from .poly2 import BivariatePoly, hyperbolic_phase

_FFT_BUDGET = 1 << 26  # complex entries per field, ~1 GB at complex128
_PAIR_BUDGET = 12_000_000  # frequency pairs for the p=4 fallback


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
    name: str = ""
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
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
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
        sub = ExpSum(
            self.phase, self.freqs[idx], self.weights[idx], name=self.name,
            lift=None if self.lift is None else self.lift[idx],
        )
        sub.factors = _try_product_factors(self, np.asarray(idx))
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
    name: str = "",
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
    out = ExpSum(phase, freqs, weights, name=name)
    out.factors = factors
    return out


def _try_product_factors(parent: ExpSum, idx: np.ndarray):
    """Factors for a subset of a product sum, if the subset is itself a
    product of index sets; None otherwise."""
    if parent.factors is None or len(idx) == 0:
        return None
    f1, f2 = parent.factors
    k2 = len(f2.values)
    ii = idx // k2
    jj = idx % k2
    iu = np.unique(ii)
    ju = np.unique(jj)
    if len(iu) * len(ju) != len(idx):
        return None
    expect = (iu[:, None] * k2 + ju[None, :]).ravel()
    if not np.array_equal(np.sort(idx), np.sort(expect)):
        return None
    return (
        Factor(f1.axis, f1.values[iu], f1.weights[iu], f1.heights[iu]),
        Factor(f2.axis, f2.values[ju], f2.weights[ju], f2.heights[ju]),
    )


def snap_lift(f: ExpSum, box_side: float) -> ExpSum:
    """Copy of the sum with heights snapped to the (1/box_side)-grid.

    Snapping happens once, at the source, so that the whole sum and
    every member piece share identical (box-periodic) heights.  Product
    sums are snapped factor by factor, preserving the separable fast
    path; each factor moves by at most half a grid step, so a lifted
    height moves by up to one full step (half a step for other sums).
    """
    r = float(box_side)
    if r <= 0:
        raise ValueError("box side must be positive")
    if f.factors is None:
        return ExpSum(f.phase, f.freqs, f.weights, name=f.name,
                      lift=np.round(f.lifted()[:, 2] * r) / r)
    out = ExpSum(f.phase, f.freqs, f.weights, name=f.name, lift=_factor_lift(f, r))
    out.factors = tuple(replace(g, heights=np.round(g.heights * r) / r) for g in f.factors)
    return out


def _factor_lift(f: ExpSum, r: float) -> np.ndarray:
    """Height of each frequency of a product sum with the factors'
    heights snapped to the (1/r)-grid one by one."""
    out = 0.0
    for g in f.factors:
        order = np.argsort(g.values)
        k = order[np.searchsorted(g.values, f.freqs[:, g.axis], sorter=order)]
        out = out + np.round(g.heights[k] * r) / r
    return out


# -- grid fields (honest direct evaluation at small scale) ---------------


@dataclass
class GridField:
    """Complex samples of an exponential sum on an n^3 box lattice."""

    box: Box3
    n: int
    values: np.ndarray


def sample_exp_sum(f: ExpSum, box: Box3, n: int) -> GridField:
    """Evaluate the sum directly on the n^3 midpoint lattice of the box.

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
    return GridField(box, n, vals)


def lp_norm(field: GridField, p: float, normalized: bool = True) -> float:
    """Riemann L^p norm of the sampled field; L^p_# when normalized."""
    if p < 1:
        raise ValueError("p must be at least 1")
    a = np.abs(field.values)
    if math.isinf(p):
        return float(a.max())
    val = float(np.mean(a ** p)) ** (1.0 / p)
    if not normalized:
        val *= field.box.side ** (3.0 / p)
    return val


# -- the exact reduced-lattice engine -------------------------------------


@dataclass(frozen=True)
class NormReport:
    value: float
    p: float
    box_side: float
    normalized: bool
    exact: bool
    method: str
    snap_max: float
    lattice_dims: Tuple[int, ...]
    note: str = ""


_KEY_LIMIT = 1 << 62


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


def _snap_merge(lifted: np.ndarray, weights: np.ndarray, r_side: float):
    ints = np.round(r_side * lifted).astype(np.int64)
    snap_max = float(np.max(np.abs(ints / r_side - lifted))) if len(lifted) else 0.0
    keys, inv = np.unique(_row_keys(ints.T), return_inverse=True)
    uniq = np.empty((len(keys), ints.shape[1]), dtype=np.int64)
    uniq[inv] = ints  # rows sharing a key are equal: any one fills the slot
    w = np.zeros(len(keys), dtype=complex)
    np.add.at(w, inv, weights)
    return uniq, w, snap_max


def _reduce_axes(ints: np.ndarray) -> np.ndarray:
    out = ints.copy()
    for ax in range(out.shape[1]):
        col = out[:, ax]
        col -= col.min()
        nz = col[col > 0]
        if len(nz):
            g = int(np.gcd.reduce(nz))
            if g > 1:
                col //= g
        out[:, ax] = col
    return out


_SHEAR_BATCH = 8  # candidate shears evaluated together per search step


def _best_shear(x: np.ndarray, h: np.ndarray) -> int:
    """Integer lam minimizing the extent of h - lam*x.

    The extent is convex in lam (max minus min of affine functions), so
    the leftmost minimizer over the window [rs - w, rs + w] around the
    least-squares slope rs is found by a k-ary bracket search: each step
    evaluates up to eight candidates in one array and keeps the stretch
    strictly between the best candidate's neighbours, about a quarter of
    the bracket.  The first batch is rs-2..rs+2, which is the whole
    window when w = 2.  lam = 0 is kept unless strictly beaten.
    """
    ptp = int(x.max() - x.min())
    if ptp == 0:
        return 0

    def ext(lams: np.ndarray) -> np.ndarray:
        r = np.multiply.outer(lams, x)
        np.subtract(h, r, out=r)
        return r.max(axis=1) - r.min(axis=1)

    xf = x.astype(float)
    hf = h.astype(float)
    xc = xf - xf.mean()
    s = float((xc * (hf - hf.mean())).sum() / (xc * xc).sum())
    rs = int(round(s))
    lams = np.arange(rs - 2, rs + 3)
    e = ext(lams)
    w = int(e[2]) // ptp + 2
    lo, hi = rs - w, rs + w
    while True:
        j = int(np.argmin(e))
        if len(lams) == hi - lo + 1:  # the whole bracket is evaluated
            break
        if j > 0:
            lo = int(lams[j - 1]) + 1
        if j < len(lams) - 1:
            hi = int(lams[j + 1]) - 1
        span = hi - lo + 1
        if span <= _SHEAR_BATCH:
            lams = np.arange(lo, hi + 1)
        else:  # midpoints of eight equal parts
            lams = lo + np.arange(1, 2 * _SHEAR_BATCH, 2) * span // (2 * _SHEAR_BATCH)
        e = ext(lams)
    return int(lams[j]) if e[j] < int(h.max() - h.min()) else 0


def _shear_reduce(ints: np.ndarray) -> np.ndarray:
    """Shear the height column by integer multiples of the planar ones.

    Frequency shears are unimodular changes of variables on the torus:
    one-period means of |f|^p are invariant, while the height extent
    (hence the exact-quadrature grid) typically collapses by orders of
    magnitude for lifts of smooth phases.
    """
    if len(ints) < 2:
        return ints
    out = ints.copy()
    last = out.shape[1] - 1
    for _ in range(2):
        changed = False
        for src in range(last):
            lam = _best_shear(out[:, src], out[:, last])
            if lam != 0:
                out[:, last] = out[:, last] - lam * out[:, src]
                changed = True
        if not changed:
            break
    return out


def _mean_abs_pow(field: np.ndarray, p: int) -> float:
    a = np.abs(field)
    a **= p
    return float(a.mean())


def _extent(ints: np.ndarray) -> np.ndarray:
    """Largest reduced coordinate per axis (zeros for an empty sum)."""
    return ints.max(axis=0) if len(ints) else np.zeros(ints.shape[1], dtype=np.int64)


def _fft_shape(ext, mult: int, pad: int = 1) -> Tuple[int, ...]:
    """Zero-padded FFT length per axis: next_fast_len(mult*extent + pad)
    on live axes (positive extent), 1 on dead ones."""
    return tuple(next_fast_len(int(mult * e + pad)) if e > 0 else 1 for e in ext)


def _lattice_field(ints: np.ndarray, weights: np.ndarray, shape: Tuple[int, ...],
                   budget: int = _FFT_BUDGET):
    """The sum sampled on one period of the reduced lattice: merged
    integer frequencies scattered onto a zero-padded array of the given
    shape, inverse-FFT over the live axes.  Returns (field, live dims)."""
    dims = tuple(n for n in shape if n > 1)
    total = math.prod(shape)
    if total > budget:
        raise ValueError(
            f"reduced lattice {dims} exceeds the in-memory FFT budget; "
            "the sum has no dense exact path at this scale"
        )
    z = np.zeros(shape, dtype=complex)
    np.add.at(z, tuple(ints.T), weights)
    live = [ax for ax, n in enumerate(shape) if n > 1]
    return (ifftn(z, axes=live) * total if live else z), dims


def _fft_mean_pow(ints: np.ndarray, weights: np.ndarray, q: int,
                  budget: int = _FFT_BUDGET):
    """mean |f|^{2q} over one period, exactly, via a zero-padded FFT on
    the reduced integer lattice.  Returns (value, dims)."""
    g, dims = _lattice_field(ints, weights, _fft_shape(_extent(ints), q), budget)
    return _mean_abs_pow(g, 2 * q), dims


def _pairs_mean_pow4(ints: np.ndarray, weights: np.ndarray) -> float:
    """mean |f|^4 via Parseval on the pair sum f^2, exact for any
    integer frequencies: sum of |sum_{pairs adding to k} a a'|^2.

    Pair sums are merged by packed key, built from the per-axis pair-sum
    columns one axis at a time (no n^2 x 3 table)."""
    n = len(ints)
    keys = _row_keys(np.add.outer(a, a).reshape(n * n) for a in ints.T)
    pair_w = (weights[:, None] * weights[None, :]).reshape(n * n)
    uniq, inv = np.unique(keys, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=complex)
    np.add.at(acc, inv, pair_w)
    return float(np.sum(np.abs(acc) ** 2))


def _separable_mean_pow(f: ExpSum, r_side: float, q: int,
                        budget: int = _FFT_BUDGET):
    """mean |f|^{2q} for a product sum via two planar FFT fields sharing
    the lift axis.  Returns (value, dims)."""
    factors = []
    for fac in f.factors:
        ints, w, _ = _snap_merge(np.column_stack([fac.values, fac.heights]),
                                 fac.weights, r_side)
        # the coordinate axis is the factor's own; the height axis is
        # shared, so here it is only translated, and divided below by the
        # joint gcd of both factors' heights
        ints[:, :1] = _reduce_axes(ints[:, :1])
        ints = _shear_reduce(ints)
        ints[:, 1] -= ints[:, 1].min()
        factors.append((ints, w))
    (i1, w1), (i2, w2) = factors
    heights = np.concatenate([i1[:, 1], i2[:, 1]])
    nz = heights[heights > 0]
    if len(nz):
        g3 = int(np.gcd.reduce(nz))
        if g3 > 1:
            i1[:, 1] //= g3
            i2[:, 1] //= g3
    e3 = int(i1[:, 1].max() + i2[:, 1].max())
    sh1 = _fft_shape((int(i1[:, 0].max()), e3), q)
    sh2 = _fft_shape((int(i2[:, 0].max()), e3), q)
    if math.prod(sh1) + math.prod(sh2) > 2 * budget:
        raise ValueError("separable fields exceed the FFT budget")

    def slice_means(ints, w, shape):
        g, _ = _lattice_field(ints, w, shape, 2 * budget)
        a = np.abs(g)
        a **= 2 * q
        return a.mean(axis=0)

    p_of_x3 = slice_means(i1, w1, sh1)
    q_of_x3 = slice_means(i2, w2, sh2)
    return float(np.mean(p_of_x3 * q_of_x3)), (sh1[0], sh2[0], sh1[1])


def expsum_lp(
    f: ExpSum,
    p: float,
    box_side: float,
    normalized: bool = True,
    budget: int = _FFT_BUDGET,
) -> NormReport:
    """L^p norm of the sum over a box of side ``box_side``.

    Frequencies are snapped to the (1/box_side)-grid, making the sum
    periodic; for even integer p the one-period integral is then exact.
    Product sums are snapped factor by factor, as ``snap_lift`` does,
    before any path is chosen, so every path sees the same sum.  The
    method chosen (Parseval, separable FFT, pair counting, plain FFT) is
    recorded in the report along with the largest displacement of a
    lifted point.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    r = float(box_side)
    if r <= 0:
        raise ValueError("box side must be positive")
    scale = r ** (3.0 / p) if (not normalized and not math.isinf(p)) else 1.0
    lifted = f.lifted()
    moved = 0.0
    if f.factors is not None:
        # every path sees the per-factor snap that the separable path needs
        heights = _factor_lift(f, r)
        moved = float(np.max(np.abs(heights - lifted[:, 2]), initial=0.0))
        lifted[:, 2] = heights
    ints, w, snap = _snap_merge(lifted, f.weights, r)
    snap = max(snap, moved)
    ints = _reduce_axes(_shear_reduce(_reduce_axes(ints)))

    if math.isinf(p):
        # max over a dense-enough period lattice: a lower bound for the sup
        g, dims = _lattice_field(ints, w, _fft_shape(_extent(ints), 4, 5))
        return NormReport(float(np.abs(g).max()), p, r, normalized, False,
                          "lattice-max", snap, dims,
                          note="max over the period lattice (lower bound of sup)")

    if p == 2:
        val = float(np.sqrt(np.sum(np.abs(w) ** 2)))
        return NormReport(val * scale, p, r, normalized, True, "parseval",
                          snap, ())

    if float(p).is_integer() and int(p) % 2 == 0:
        q = int(p) // 2
        note = ""
        if f.factors is not None:
            try:
                mean_pow, dims = _separable_mean_pow(f, r, q, budget)
                return NormReport(mean_pow ** (1.0 / p) * scale, p, r, normalized,
                                  True, "separable", snap, dims)
            except ValueError as exc:
                note = f"separable path skipped: {exc}"
        cells = math.prod(_fft_shape(_extent(ints), q))
        if q == 2 and (cells > budget or len(ints) ** 2 <= min(_PAIR_BUDGET, cells)):
            if len(ints) ** 2 > _PAIR_BUDGET:
                raise ValueError(
                    "no exact path: FFT lattice and pair table both exceed budget"
                )
            mean_pow = _pairs_mean_pow4(ints, w)
            return NormReport(mean_pow ** 0.25 * scale, p, r, normalized, True,
                              "pairs", snap, (), note=note)
        mean_pow, dims = _fft_mean_pow(ints, w, q, budget)
        return NormReport(mean_pow ** (1.0 / p) * scale, p, r, normalized, True,
                          "fft", snap, dims, note=note)

    # non-even p: spectrally accurate periodic quadrature, flagged inexact
    g, dims = _lattice_field(ints, w, _fft_shape(_extent(ints), int(math.ceil(p)) + 2),
                             budget)
    val = _mean_abs_pow(g, p) ** (1.0 / p)
    return NormReport(val * scale, p, r, normalized, False, "riemann", snap, dims,
                      note="periodic trapezoid quadrature; exact only for even p")


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
    min_memberships: int
    max_memberships: int
    snap_max: float
    exact: bool


def assign_frequencies(f: ExpSum, cover: FlatCover, tol: Optional[float] = None):
    """Subsets of frequency indices per cover member whose planar slab
    neighborhood contains the lifted point: frequencies within world
    distance tol of the member, under any frame (the cover's delta by
    default).  tol <= 0 means sharp half-open tiles with the outer
    boundary of each tiling closed, so each frequency lands in at most
    one tile per tiling.  Raises if any frequency is uncovered."""
    tol = cover.delta if tol is None else tol
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
    """The ratio ||f||_p / (sum_S ||f_S||_p^2)^(1/2) with full detail."""
    r = 1.0 / cover.delta if box_side is None else float(box_side)
    subsets, counts = assign_frequencies(f, cover, tol)
    lhs_rep = expsum_lp(f, p, r)
    exact = lhs_rep.exact
    snap = lhs_rep.snap_max

    def member_norm(idx: np.ndarray) -> float:
        nonlocal exact, snap
        if len(idx) == 1:
            return float(abs(f.weights[idx[0]]))
        rep = expsum_lp(f.subset(idx), p, r)
        exact = exact and rep.exact
        snap = max(snap, rep.snap_max)
        return rep.value

    norms = [member_norm(s) for s in subsets]
    rhs = float(np.sqrt(np.sum(np.square(norms))))
    ratio = lhs_rep.value / rhs if rhs > 0 else math.inf
    return DecoupleReport(
        ratio, lhs_rep.value, rhs, p, r, cover.delta, len(norms),
        int(counts.min()) if len(counts) else 0,
        int(counts.max()) if len(counts) else 0,
        snap, exact,
    )


# -- sweeps ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Least-squares exponent fit: ratio ~ C * delta^(-slope)."""

    points: Tuple[Tuple[float, float], ...]
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
    return SweepReport(tuple(pts), float(slope), float(intercept), resid)


# -- extremal examples -----------------------------------------------------


def line_example(delta: float) -> ExpSum:
    """Unit weights on (j*sqrt(delta), 0): the axis line of the saddle,
    the input that forces the log-loss against any square partition."""
    _require_dyadic(delta)
    n = int(math.floor(delta ** -0.5 + 1e-9))
    xs = np.arange(n) * math.sqrt(delta)
    return product_exp_sum(hyperbolic_phase(), xs, np.zeros(1), name="line")


def bump_example(phi: BivariatePoly, region: Tuple[float, float, float, float],
                 delta: float) -> ExpSum:
    """Unit weights on the delta-net of an axis region of the square."""
    xmin, ymin, xmax, ymax = region
    if not (0 - 1e-9 <= xmin <= xmax <= 1 + 1e-9 and 0 - 1e-9 <= ymin <= ymax <= 1 + 1e-9):
        raise ValueError("region must sit inside the unit square")
    xs = xmin + delta * np.arange(int(math.floor((xmax - xmin) / delta + 1e-9)) + 1)
    ys = ymin + delta * np.arange(int(math.floor((ymax - ymin) / delta + 1e-9)) + 1)
    return product_exp_sum(phi, xs, ys, name="bump")


def strip_example(delta: float, a: int) -> ExpSum:
    """Unit weights on the delta-net of the a-th horizontal delta-strip,
    lifted to the saddle: one Dirichlet row in disguise."""
    inv = 1.0 / delta
    if not (0 <= a < inv):
        raise ValueError("strip index a must satisfy 0 <= a < 1/delta")
    _require_dyadic(delta)
    xs = delta * np.arange(int(round(inv)))
    ys = np.array([a * delta])
    return product_exp_sum(hyperbolic_phase(), xs, ys, name=f"strip-{a}")


def random_product_example(
    phi: BivariatePoly, delta: float, rng: np.random.Generator
) -> ExpSum:
    """delta-net of the square with random complex product weights;
    keeps the separable fast path available at small delta."""
    n = int(round(1.0 / delta)) + 1
    xs = delta * np.arange(n)
    ys = delta * np.arange(n)
    xw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    yw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return product_exp_sum(phi, xs, ys, xw, yw, name="random-product")


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
