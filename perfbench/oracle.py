"""Reference computations for the benchmark, independent of the timed code.

Nothing here calls into flatcover's norm engine, flatness brackets, cover
builders or lattice counters.  The references read only input data
(frequencies, weights, lifted heights, polynomial coefficients, tile grid
records) and recompute each result with separate code and, where it
matters, a separate algorithm:

* L^p norms of snapped sums: exact pair convolution with packed integer
  keys (p=4), a dense period grid (``numpy.fft`` plus direct
  exponentials) with no shear or per-factor reduction, or, for product sums, an x3-chunked factor evaluation that
  only ever divides the shared height axis by a joint gcd.
* Flatness: a sampled defect on an m x m grid of each member, with a
  monomial evaluator of its own.
* Tile membership, decoupling member subsets and lattice counts: direct
  per-point cell arithmetic.

A reference that does not fit in memory returns ``None``; callers report
such operations as unverified rather than as correct.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

PAIR_LIMIT = 3_000_000  # frequency pairs for the packed-key p=4 reference
DENSE_LIMIT = 1 << 26  # grid points of a dense reference, visited in chunks
CHUNK_CELLS = 1 << 21  # complex cells per x3 chunk of the factor method


# -- exact even-p norms of snapped sums ------------------------------------


def snap_points(lifted: np.ndarray, box_side: float) -> np.ndarray:
    """Integer lattice coordinates of the lifted points on the 1/R grid."""
    return np.rint(box_side * np.asarray(lifted, dtype=float)).astype(np.int64)


def _merge(ints: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    keys, inv = np.unique(ints, axis=0, return_inverse=True)
    inv = inv.ravel()
    w = np.bincount(inv, weights.real, len(keys)) + 1j * np.bincount(
        inv, weights.imag, len(keys)
    )
    return keys, w


def _pack(cols: np.ndarray, extents: Sequence[int]) -> np.ndarray:
    key = np.zeros(len(cols), dtype=np.int64)
    for ax, ext in enumerate(extents):
        key = key * (int(ext) + 1) + cols[:, ax]
    return key


def _pairs_mean_pow4(ints: np.ndarray, w: np.ndarray) -> float:
    """sum_k |sum_{a+b=k} w_a w_b|^2 with the pair sums packed into int64."""
    ints = ints - ints.min(axis=0)
    ext = 2 * ints.max(axis=0)
    if float(np.prod(ext.astype(float) + 1.0)) >= 2.0 ** 62:
        raise OverflowError("pair keys do not fit in int64")
    n = len(ints)
    keys = _pack((ints[:, None, :] + ints[None, :, :]).reshape(n * n, -1), ext)
    prod = (w[:, None] * w[None, :]).ravel()
    _, inv = np.unique(keys, return_inverse=True)
    acc_re = np.bincount(inv, prod.real)
    acc_im = np.bincount(inv, prod.imag)
    return float(np.sum(acc_re * acc_re + acc_im * acc_im))


def _reduce_jointly(ints: np.ndarray) -> np.ndarray:
    """Translate each axis to start at 0 and divide it by the gcd of all
    its entries: a change of variables on the torus, valid because every
    point shares the divisor."""
    out = ints - ints.min(axis=0)
    for ax in range(out.shape[1]):
        g = int(np.gcd.reduce(out[:, ax])) if len(out) else 0
        if g > 1:
            out[:, ax] //= g
    return out


def _x3_columns(heights, weights, ks, m3):
    return weights[:, None] * np.exp(2j * np.pi * ((heights[:, None] * ks[None, :]) % m3) / m3)


def _dense_mean_pow(ints: np.ndarray, w: np.ndarray, q: int) -> Optional[float]:
    """Mean of |f|^(2q) over a full period grid of (q*extent+1) points per
    axis, with numpy's FFT over the leading axes and direct exponentials
    along the last one, one chunk of its points at a time."""
    ints = _reduce_jointly(ints)
    ext = ints.max(axis=0)
    live = [ax for ax in range(ints.shape[1]) if ext[ax] > 0]
    if not live:
        return float(abs(w.sum()) ** (2 * q))
    dims = [int(q * ext[ax] + 1) for ax in live]
    if math.prod(dims) > DENSE_LIMIT:
        return None
    *head, last = live
    head_dims = tuple(dims[:-1])
    m_last = dims[-1]
    cells = math.prod(head_dims)
    total = 0.0
    chunk = max(1, CHUNK_CELLS // cells)
    for lo in range(0, m_last, chunk):
        ks = np.arange(lo, min(lo + chunk, m_last), dtype=np.int64)
        cols = _x3_columns(ints[:, last], w, ks, m_last)
        if not head:
            total += float(np.sum(np.abs(cols.sum(axis=0)) ** (2 * q)))
            continue
        z = np.zeros(head_dims + (len(ks),), dtype=complex)
        np.add.at(z, tuple(ints[:, ax] for ax in head), cols)
        g = np.fft.ifftn(z, axes=tuple(range(len(head)))) * cells
        total += float(np.sum(np.abs(g) ** (2 * q)))
    return total / math.prod(dims)


def _product_split(ints: np.ndarray, w: np.ndarray):
    """Factor a point set x1-values x x2-values with additive heights and
    rank-one weights; None when the set is not such a product."""
    u1, i1 = np.unique(ints[:, 0], return_inverse=True)
    u2, i2 = np.unique(ints[:, 1], return_inverse=True)
    i1, i2 = i1.ravel(), i2.ravel()
    n1, n2 = len(u1), len(u2)
    if n1 * n2 != len(ints):
        return None
    cell = i1 * n2 + i2
    if len(np.unique(cell)) != len(cell):
        return None
    h = np.empty(n1 * n2, dtype=np.int64)
    h[cell] = ints[:, 2]
    h = h.reshape(n1, n2)
    h1 = h[:, 0] - h[0, 0]
    h2 = h[0, :]
    if not np.array_equal(h, h1[:, None] + h2[None, :]):
        return None
    wm = np.empty(n1 * n2, dtype=complex)
    wm[cell] = w
    wm = wm.reshape(n1, n2)
    i0, j0 = np.unravel_index(int(np.argmax(np.abs(wm))), wm.shape)
    if wm[i0, j0] == 0:
        return None
    a = wm[:, j0]
    b = wm[i0, :] / wm[i0, j0]
    scale = float(np.max(np.abs(wm)))
    if np.max(np.abs(wm - np.outer(a, b))) > 1e-12 * scale:
        return None
    return (u1, h1, a), (u2, h2, b)


def _factor_slice_means(coords, heights, weights, q: int, m3: int) -> np.ndarray:
    """P(x3) = mean over x1 of |g(x1, x3)|^(2q) at x3 = k/m3, k < m3, for
    one factor g(x1, x3) = sum_i w_i e(c_i x1 + h_i x3).

    Along x1 either a dense FFT of length q*extent+1 or, for p=4, Parseval
    on g^2 (pairs grouped by c_i + c_j), whichever is cheaper."""
    n = len(coords)
    m1 = q * int(coords.max()) + 1
    out = np.empty(m3)
    if q == 2 and n * n < m1 * max(math.log2(m1), 1.0):
        ii, jj = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        order = np.argsort(coords[ii] + coords[jj], kind="stable")
        ii, jj = ii[order], jj[order]
        s = coords[ii] + coords[jj]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        pair_h = heights[ii] + heights[jj]
        pair_w = weights[ii] * weights[jj]
        chunk = max(1, CHUNK_CELLS // (n * n))
        for lo in range(0, m3, chunk):
            ks = np.arange(lo, min(lo + chunk, m3), dtype=np.int64)
            a = np.add.reduceat(_x3_columns(pair_h, pair_w, ks, m3), starts, axis=0)
            out[lo:lo + len(ks)] = np.sum(np.abs(a) ** 2, axis=0)
        return out
    chunk = max(1, CHUNK_CELLS // m1)
    for lo in range(0, m3, chunk):
        ks = np.arange(lo, min(lo + chunk, m3), dtype=np.int64)
        z = np.zeros((m1, len(ks)), dtype=complex)
        z[coords] = _x3_columns(heights, weights, ks, m3)
        g = np.fft.ifft(z, axis=0) * m1
        out[lo:lo + len(ks)] = np.mean(np.abs(g) ** (2 * q), axis=0)
    return out


def _product_mean_pow(split, q: int) -> float:
    """Mean of |g1(x1, x3) g2(x2, x3)|^(2q): each factor's coordinate axis
    is reduced on its own, the shared height axis only by a joint gcd."""
    (c1, h1, a), (c2, h2, b) = split
    c1 = _reduce_jointly(c1[:, None])[:, 0]
    c2 = _reduce_jointly(c2[:, None])[:, 0]
    h1 = h1 - h1.min()
    h2 = h2 - h2.min()
    g3 = max(int(np.gcd.reduce(np.concatenate([h1, h2]))), 1)
    h1, h2 = h1 // g3, h2 // g3
    m3 = q * int(h1.max() + h2.max()) + 1
    p1 = _factor_slice_means(c1, h1, a, q, m3)
    p2 = _factor_slice_means(c2, h2, b, q, m3)
    return float(np.mean(p1 * p2))


def mean_pow(ints: np.ndarray, weights: np.ndarray, p: int) -> Optional[float]:
    """Exact one-period mean of |f|^p for even p, or None if no reference
    path fits in memory."""
    if p % 2 or p < 2:
        raise ValueError("references exist for even p only")
    q = p // 2
    ints, w = _merge(np.asarray(ints, dtype=np.int64), np.asarray(weights, dtype=complex))
    if q == 1:
        return float(np.sum(np.abs(w) ** 2))
    if len(ints) == 1:
        return float(abs(w[0]) ** p)
    split = _product_split(ints, w)
    if split is not None:
        return _product_mean_pow(split, q)
    if q == 2 and len(ints) ** 2 <= PAIR_LIMIT:
        return _pairs_mean_pow4(ints, w)
    return _dense_mean_pow(ints, w, q)


def lp_norm(lifted: np.ndarray, weights: np.ndarray, p: int,
            box_side: float) -> Optional[float]:
    """Normalized L^p norm over a box of side R of the sum snapped to the
    1/R grid (the convention of flatcover's exact engine)."""
    m = mean_pow(snap_points(lifted, box_side), weights, p)
    return None if m is None else m ** (1.0 / p)


def factorwise_lp_norm(factors, p: int, box_side: float) -> Optional[float]:
    """The norm of a product sum whose two factors' heights are snapped to
    the 1/R grid each on its own, round(R h1) + round(R h2), instead of
    round(R (h1 + h2)).  ``factors`` holds (axis, coordinates, weights,
    heights) per factor.  This models a known defect of flatcover's
    separable path, so that only that wrong value is excused."""
    ints, weights = [], []
    for axis, coords, w, heights in factors:
        ints.append((int(axis), np.rint(box_side * np.asarray(coords, dtype=float)),
                     np.rint(box_side * np.asarray(heights, dtype=float))))
        weights.append(np.asarray(w, dtype=complex))
    (a1, c1, h1), (a2, c2, h2) = ints
    if {a1, a2} != {0, 1}:
        raise ValueError("factors must lie along the two axes")
    pts = np.empty((len(c1), len(c2), 3), dtype=np.int64)
    pts[:, :, a1] = c1[:, None]
    pts[:, :, a2] = c2[None, :]
    pts[:, :, 2] = h1[:, None] + h2[None, :]
    w = (weights[0][:, None] * weights[1][None, :]).ravel()
    m = mean_pow(pts.reshape(-1, 3), w, p)
    return None if m is None else m ** (1.0 / p)


# -- polynomials and sampled flatness ----------------------------------------


def poly_eval(coeffs: Dict[Tuple[int, int], float], x: np.ndarray, y: np.ndarray):
    out = np.zeros(np.broadcast(x, y).shape)
    for (j, k), a in coeffs.items():
        out = out + a * x ** j * y ** k
    return out


def poly_grad(coeffs: Dict[Tuple[int, int], float], x: np.ndarray, y: np.ndarray):
    gx = np.zeros(np.broadcast(x, y).shape)
    gy = np.zeros_like(gx)
    for (j, k), a in coeffs.items():
        if j:
            gx = gx + a * j * x ** (j - 1) * y ** k
        if k:
            gy = gy + a * k * x ** j * y ** (k - 1)
    return gx, gy


def sampled_defects(coeffs, centers: np.ndarray, edges: np.ndarray,
                    m: int = 13, batch: int = 64) -> np.ndarray:
    """Lower bounds of sup_{u,v in S} |phi(u) - phi(v) - grad phi(u).(u-v)|
    from an m x m grid (vertices included) on each parallelogram.

    ``centers`` is (n, 2); ``edges`` is (n, 2, 2) with the half-edge
    vectors as columns.
    """
    s = np.linspace(-1.0, 1.0, m)
    t1, t2 = (a.ravel() for a in np.meshgrid(s, s, indexing="ij"))
    out = np.empty(len(centers))
    for lo in range(0, len(centers), batch):
        c = centers[lo:lo + batch]
        e = edges[lo:lo + batch]
        px = c[:, None, 0] + t1[None, :] * e[:, None, 0, 0] + t2[None, :] * e[:, None, 0, 1]
        py = c[:, None, 1] + t1[None, :] * e[:, None, 1, 0] + t2[None, :] * e[:, None, 1, 1]
        f = poly_eval(coeffs, px, py)
        gx, gy = poly_grad(coeffs, px, py)
        # d[b, i, j] = f(u_i) - f(v_j) - grad f(u_i) . (u_i - v_j)
        d = (f[:, :, None] - f[:, None, :]
             - gx[:, :, None] * (px[:, :, None] - px[:, None, :])
             - gy[:, :, None] * (py[:, :, None] - py[:, None, :]))
        out[lo:lo + batch] = np.abs(d).max(axis=(1, 2))
    return out


def box_arrays(boxes) -> Tuple[np.ndarray, np.ndarray]:
    """(centers, edges) arrays for a list of flatcover Parallelograms."""
    centers = np.array([b.center for b in boxes], dtype=float).reshape(-1, 2)
    edges = np.array([np.column_stack([b.e1, b.e2]) for b in boxes],
                     dtype=float).reshape(-1, 2, 2)
    return centers, edges


def closed_coverage(centers: np.ndarray, edges: np.ndarray, points: np.ndarray,
                    slack: float = 1e-9) -> np.ndarray:
    """How many closed parallelograms contain each point."""
    counts = np.zeros(len(points), dtype=np.int64)
    for c, e in zip(centers, edges):
        t = np.linalg.solve(e, (points - c).T).T
        counts += np.all(np.abs(t) <= 1.0 + slack, axis=1)
    return counts


def midpoint_grid(domain, n: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = domain
    xs = xmin + (xmax - xmin) * (np.arange(n) + 0.5) / n
    ys = ymin + (ymax - ymin) * (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


# -- tile grids: membership, digests, lattice counts --------------------------


def _frame_coords(grid, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(grid.theta), math.sin(grid.theta)
    ax, ay = float(grid.anchor[0]), float(grid.anchor[1])
    fx = (pts[:, 0] * c + pts[:, 1] * s) - (ax * c + ay * s)
    fy = (-pts[:, 0] * s + pts[:, 1] * c) - (-ax * s + ay * c)
    return fx, fy


def grid_membership(grid, pts: np.ndarray) -> np.ndarray:
    """0/1 per point: inside a kept half-open tile of the grid."""
    fx, fy = _frame_coords(grid, pts)
    i = np.floor(fx / grid.w).astype(np.int64)
    j = np.floor(fy / grid.h).astype(np.int64)
    ok = (i >= grid.i0) & (i < grid.i1) & (j >= grid.j0) & (j < grid.j1)
    if grid.keep is not None:
        sel = np.flatnonzero(ok)
        ok[sel] = grid.keep[i[sel] - grid.i0, j[sel] - grid.j0]
    return ok.astype(np.int64)


def cover_grids(cover) -> Iterable:
    """(frame, grid) pairs of a FlatCover."""
    for part in cover.parts:
        for grid in part.groups:
            yield part.frame, grid


def overlap_counts(cover, n: int) -> np.ndarray:
    """Membership counts on the n x n midpoint grid, for covers made of
    unframed tilings only (hp and axis families)."""
    if cover.loose or any(part.frame is not None for part in cover.parts):
        raise ValueError("only unframed tilings are supported here")
    pts = midpoint_grid(cover.domain, n)
    counts = np.zeros(len(pts), dtype=np.int64)
    for _, grid in cover_grids(cover):
        counts += grid_membership(grid, pts)
    return counts


def assign_subsets(points: np.ndarray, cover, tol: float,
                   reach: Optional[int] = None) -> list:
    """Frequency index sets per member, as tuples of sorted indices in no
    particular order, for covers made of unframed tilings.  A point
    belongs to a kept tile within distance tol of it.  tol = 0 means
    half-open tiles [i w, (i+1) w) x [j h, (j+1) h) whose outer boundary
    is closed (within 1e-12 of a cell).  Members without points are
    left out.

    ``reach`` models a known defect of flatcover's assignment: only tiles
    at most ``reach`` cells from the point's own cell are tried, which
    misses tiles at distance tol when tol is not below the tile side."""
    if cover.loose or any(part.frame is not None for part in cover.parts):
        raise ValueError("only unframed tilings are supported here")
    pts = np.asarray(points, dtype=float)
    out = []
    for _, grid in cover_grids(cover):
        fx, fy = _frame_coords(grid, pts)
        ui, uj = fx / grid.w, fy / grid.h
        if tol <= 0.0:
            slack = 1e-12 * max(abs(grid.i0), abs(grid.i1), abs(grid.j0), abs(grid.j1), 1)
            i = np.floor(ui).astype(np.int64)
            j = np.floor(uj).astype(np.int64)
            i = np.where((i == grid.i1) & (ui <= grid.i1 + slack), i - 1, i)
            i = np.where((i == grid.i0 - 1) & (ui >= grid.i0 - slack), i + 1, i)
            j = np.where((j == grid.j1) & (uj <= grid.j1 + slack), j - 1, j)
            j = np.where((j == grid.j0 - 1) & (uj >= grid.j0 - slack), j + 1, j)
            cand = [(np.arange(len(pts)), i, j)]
        else:
            if reach is None:
                ilo = np.floor((fx - tol) / grid.w).astype(np.int64) - 1
                ihi = np.floor((fx + tol) / grid.w).astype(np.int64) + 1
                jlo = np.floor((fy - tol) / grid.h).astype(np.int64) - 1
                jhi = np.floor((fy + tol) / grid.h).astype(np.int64) + 1
            else:
                ilo = np.floor(ui).astype(np.int64) - reach
                jlo = np.floor(uj).astype(np.int64) - reach
                ihi, jhi = ilo + 2 * reach, jlo + 2 * reach
            cand = []
            for di in range(int((ihi - ilo).max(initial=0)) + 1):
                for dj in range(int((jhi - jlo).max(initial=0)) + 1):
                    i, j = ilo + di, jlo + dj
                    dx = np.maximum(np.maximum(i * grid.w - fx, fx - (i + 1) * grid.w), 0.0)
                    dy = np.maximum(np.maximum(j * grid.h - fy, fy - (j + 1) * grid.h), 0.0)
                    near = (i <= ihi) & (j <= jhi) \
                        & (dx * dx + dy * dy <= tol * tol * (1 + 1e-12))
                    k = np.flatnonzero(near)
                    cand.append((k, i[k], j[k]))
        pidx = np.concatenate([c[0] for c in cand])
        i = np.concatenate([c[1] for c in cand])
        j = np.concatenate([c[2] for c in cand])
        ok = (i >= grid.i0) & (i < grid.i1) & (j >= grid.j0) & (j < grid.j1)
        pidx, i, j = pidx[ok], i[ok], j[ok]
        if grid.keep is not None:
            kept = grid.keep[i - grid.i0, j - grid.j0]
            pidx, i, j = pidx[kept], i[kept], j[kept]
        key = (i - grid.i0) * (grid.j1 - grid.j0) + (j - grid.j0)
        order = np.lexsort((pidx, key))
        key, pidx = key[order], pidx[order]
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        out.extend(tuple(block.tolist()) for block in np.split(pidx, cuts) if len(block))
    return out


def cover_digest(cover) -> Tuple[int, str]:
    """(member count, sha256 over every tiling's record and keep mask)."""
    h = hashlib.sha256()
    total = 0
    for frame, grid in cover_grids(cover):
        rec = (grid.w, grid.h, grid.theta, float(grid.anchor[0]), float(grid.anchor[1]),
               grid.i0, grid.i1, grid.j0, grid.j1)
        h.update(repr(rec).encode())
        if frame is not None:
            h.update(repr((frame.matrix.tolist(), frame.offset.tolist())).encode())
        if grid.keep is None:
            h.update(b"all")
            total += (grid.i1 - grid.i0) * (grid.j1 - grid.j0)
        else:
            keep = np.ascontiguousarray(grid.keep, dtype=bool)
            h.update(np.packbits(keep).tobytes())
            total += int(keep.sum())
    for box in cover.loose:
        h.update(repr((box.center, box.e1, box.e2)).encode())
        total += 1
    return total, h.hexdigest()[:16]


def lattice_member_counts(cover, pts: np.ndarray, tol: float) -> Dict[int, int]:
    """Histogram count -> members of lattice points per member, where a
    point counts for member S when it lies within distance tol of S and
    inside the (1 + tol)-dilate of S.  Frames must be similarities."""
    hist: Dict[int, int] = {}

    def add(values: np.ndarray) -> None:
        vals, freq = np.unique(values, return_counts=True)
        for v, c in zip(vals, freq):
            hist[int(v)] = hist.get(int(v), 0) + int(c)

    for frame, grid in cover_grids(cover):
        if frame is None:
            local, scale = pts, 1.0
        else:
            mat = frame.matrix
            scale = math.sqrt(abs(np.linalg.det(mat)))
            local = np.linalg.solve(mat, (pts - frame.offset).T).T
        tl = tol / scale
        fx, fy = _frame_coords(grid, local)
        ui, uj = fx / grid.w, fy / grid.h
        half = 0.5 * (1.0 + tol)
        ilo = np.ceil(ui - 0.5 - half).astype(np.int64)
        ihi = np.floor(ui - 0.5 + half).astype(np.int64)
        jlo = np.ceil(uj - 0.5 - half).astype(np.int64)
        jhi = np.floor(uj - 0.5 + half).astype(np.int64)
        keys = []
        for di in range(int((ihi - ilo).max(initial=0)) + 1):
            for dj in range(int((jhi - jlo).max(initial=0)) + 1):
                i = ilo + di
                j = jlo + dj
                ok = (i <= ihi) & (j <= jhi)
                ok &= (i >= grid.i0) & (i < grid.i1) & (j >= grid.j0) & (j < grid.j1)
                dx = np.maximum(np.maximum(i * grid.w - fx, fx - (i + 1) * grid.w), 0.0)
                dy = np.maximum(np.maximum(j * grid.h - fy, fy - (j + 1) * grid.h), 0.0)
                ok &= np.hypot(dx, dy) <= tl * (1 + 1e-12)
                if grid.keep is not None:
                    sel = np.flatnonzero(ok)
                    ok[sel] = grid.keep[i[sel] - grid.i0, j[sel] - grid.j0]
                keys.append((i[ok] - grid.i0) * (grid.j1 - grid.j0) + (j[ok] - grid.j0))
        keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
        cells, per_cell = np.unique(keys, return_counts=True)
        members = (grid.i1 - grid.i0) * (grid.j1 - grid.j0) if grid.keep is None \
            else int(np.count_nonzero(grid.keep))
        add(per_cell)
        empty = members - len(cells)
        if empty:
            hist[0] = hist.get(0, 0) + empty
    if cover.loose:
        raise ValueError("loose members are not supported here")
    return hist


def pell_reference(b_max: int, eps: float) -> Tuple[int, int, float]:
    """(a, b, product) minimizing |a + sqrt2 b| b^(1+eps), with the
    numerator |a^2 - 2b^2| in Python integers."""
    r2 = math.sqrt(2.0)
    best = (0, 0, math.inf)
    for b in range(1, b_max + 1):
        a = -int(round(r2 * b))
        num = abs(a * a - 2 * b * b)
        prod = num / (r2 * b - a) * float(b) ** (1.0 + eps)
        if prod < best[2]:
            best = (a, b, prod)
    return best


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
