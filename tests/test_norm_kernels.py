"""Property tests for the exact norm engine's kernels: packed row keys,
and, per segment of several sums laid end to end, the snap-merge, the
axis reduction, the pair-sum Parseval count, the greedy run cutter, the
height-shear search, the unimodular lattice reduction and the slab-wise
field means, each against a plain reference."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatcover import norms


@st.composite
def int_rows(draw):
    """(n, c) int64 rows: each column has its own offset (negative too)
    and extent, up to 2^62, with values repeated so rows collide.  Two
    columns of extent ~2^40 already pass 2^62 together, so the key is
    re-ranked; a 2^61 or 2^62 column is re-ranked itself."""
    n = draw(st.integers(2, 40))
    c = draw(st.integers(1, 3))
    cols = []
    for _ in range(c):
        extent = draw(st.sampled_from([0, 1, 3, 2 ** 20, 2 ** 40 - 3, 2 ** 40 + 5,
                                       2 ** 61, 2 ** 62]))
        offset = draw(st.integers(-2 ** 61, 2 ** 61 - extent))
        pool = [0, extent] + draw(st.lists(st.integers(0, extent), max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        picks[:2] = [0, 1]  # the column spans its whole extent
        cols.append(np.array([offset + pool[k] for k in picks], dtype=np.int64))
    return np.column_stack(cols)


@settings(max_examples=200)
@given(rows=int_rows())
def test_row_keys_match_lexicographic_unique(rows):
    keys = norms._row_keys(rows.T)
    assert keys.dtype == np.int64
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    _, first, kinv = np.unique(keys, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(kinv.ravel(), inv.ravel())
    np.testing.assert_array_equal(rows[first], uniq)
    # the keys sort the rows exactly as a lexicographic sort does
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                  np.lexsort(rows.T[::-1]))


def _pairs_reference(ints, weights):
    acc = {}
    for a, wa in zip(ints.tolist(), weights):
        for b, wb in zip(ints.tolist(), weights):
            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            acc[k] = acc.get(k, 0) + wa * wb
    return sum(abs(v) ** 2 for v in acc.values())


def _starts(sizes):
    """Segment starts for the drawn segment sizes."""
    return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)


@settings(max_examples=120)
@given(
    sizes=st.lists(st.integers(1, 14), min_size=1, max_size=5),
    extents=st.tuples(*[st.sampled_from([0, 1, 5, 2 ** 21 + 7, 2 ** 23]) for _ in range(3)]),
    chunk=st.sampled_from([1, 40, 1 << 21]),
    seed=st.integers(0, 2 ** 16),
)
def test_pairs_mean_pow4_matches_dict_convolution(sizes, extents, chunk, seed):
    """Per segment, also when segments share rows (a pair sum of one
    segment must not merge with another's) and when the pairs of the
    segments are split over several packed-key passes."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    # few distinct values per axis, so pair sums collide within and across
    # segments
    ints = np.column_stack([rng.choice(rng.integers(0, e + 1, size=3), size=n)
                            for e in extents]).astype(np.int64)
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    starts = _starts(sizes)
    saved, norms._PAIR_CHUNK = norms._PAIR_CHUNK, chunk
    try:
        got = norms._pairs_mean_pow4(ints, weights, starts)
    finally:
        norms._PAIR_CHUNK = saved
    assert len(got) == len(sizes)
    for value, s, k in zip(got, starts, sizes):
        want = _pairs_reference(ints[s:s + k], weights[s:s + k])
        assert abs(value - want) <= 1e-12 * want


@settings(max_examples=100)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    extent=st.sampled_from([0, 1, 3, 40, 2 ** 24 + 3]),
    chunk=st.sampled_from([1, 30, 1 << 18]),
    seed=st.integers(0, 2 ** 16),
)
def test_energy_bound_counts_additive_quadruples(sizes, extent, chunk, seed):
    """Per segment, sum_k c_k^2 with c_k the ordered pairs adding to k,
    also when the pairs of the segments run in several passes, and for
    few coordinates spread over a wide extent."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, extent + 1, size=sum(sizes)).astype(np.int64)
    starts = _starts(sizes)
    saved, norms._PAIR_CHUNK = norms._PAIR_CHUNK, chunk
    try:
        got = norms._energy_bound(x, starts)
    finally:
        norms._PAIR_CHUNK = saved
    for value, s, k in zip(got.tolist(), starts, sizes):
        seg = x[s:s + k].tolist()
        counts = {}
        for a in seg:
            for b in seg:
                counts[a + b] = counts.get(a + b, 0) + 1
        assert value == sum(c * c for c in counts.values())


@settings(max_examples=200)
@given(sizes=st.lists(st.integers(0, 12), max_size=30), chunk=st.integers(1, 20))
@example(sizes=[3, 3, 3, 10, 1], chunk=6)  # runs [0, 2), [2, 3), [3, 4), [4, 5)
def test_runs_cut_greedily_at_the_pair_chunk(sizes, chunk):
    """The runs are consecutive and cover every item once; a run adds to
    at most _PAIR_CHUNK or is one item, and the next item would overflow
    it.  These three properties fix the cuts: they are the greedy ones."""
    saved, norms._PAIR_CHUNK = norms._PAIR_CHUNK, chunk
    try:
        runs = norms._runs(np.array(sizes, dtype=np.int64))
    finally:
        norms._PAIR_CHUNK = saved
    cuts = [0] + [hi for _, hi in runs]
    assert runs == list(zip(cuts[:-1], cuts[1:]))
    assert cuts[-1] == len(sizes)
    for lo, hi in runs:
        assert hi > lo
        total = sum(sizes[lo:hi])
        assert total <= chunk or hi - lo == 1
        if hi < len(sizes):
            assert total + sizes[hi] > chunk


def _merge_reference(ints, weights):
    """Distinct rows in lexicographic order, each row's weights added in
    row order."""
    acc = {}
    for row, w in zip(map(tuple, ints.tolist()), weights):
        acc[row] = acc.get(row, 0) + w
    rows = sorted(acc)
    return np.array(rows, dtype=np.int64).reshape(-1, ints.shape[1]), np.array(
        [acc[r] for r in rows], dtype=complex)


@settings(max_examples=150)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    r=st.sampled_from([1.0, 4.0, 12.0]),
    seed=st.integers(0, 2 ** 16),
)
def test_snap_merge_matches_dict_per_segment(sizes, r, seed):
    """Rows snap to the (1/r)-grid and merge within their segment only,
    with each merged weight the row-order sum of its terms, bit for bit
    (float addition is not associative, so another order shows)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    # few grid points, small offsets: many rows of one segment snap together,
    # and segments share rows
    grid = rng.integers(-1, 2, size=(n, 3))
    values = (grid + rng.uniform(-0.45, 0.45, size=(n, 3))) / r
    weights = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n) \
        + 1j * rng.standard_normal(n)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    ints, w, useg = norms._snap_merge(values, weights, r, seg)
    starts = _starts(sizes)
    for k, (s, size) in enumerate(zip(starts, sizes)):
        part = slice(s, s + size)
        snapped = np.round(r * values[part]).astype(np.int64)
        want_rows, want_w = _merge_reference(snapped, weights[part])
        mine = useg == k
        np.testing.assert_array_equal(ints[mine], want_rows)
        np.testing.assert_array_equal(w[mine], want_w)
    assert np.all(np.diff(useg) >= 0)


@settings(max_examples=100)
@given(
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    scale=st.sampled_from([1, 3, 12]),
    seed=st.integers(0, 2 ** 16),
)
def test_reduce_axes_per_segment(sizes, scale, seed):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    ints = rng.integers(-3, 4, size=(n, 3)) * scale * rng.integers(1, 3, size=3) \
        + rng.integers(-50, 50, size=3)
    starts = _starts(sizes)
    got = norms._reduce_axes(ints, starts)
    for s, size in zip(starts, sizes):
        for ax in range(3):
            col = ints[s:s + size, ax] - ints[s:s + size, ax].min()
            g = int(np.gcd.reduce(col)) if col.any() else 1
            np.testing.assert_array_equal(got[s:s + size, ax], col // g)


def _shear_reference(x, h):
    """Leftmost integer minimizer of the extent E of h - lam*x, or 0 when
    lam = 0 is a minimizer (or x is constant).  E is convex and piecewise
    linear with breakpoints where two lines h_i - lam x_i cross, so the
    integer minimizers include the floor or ceiling of a breakpoint."""
    x, h = x.tolist(), h.tolist()
    if max(x) == min(x):
        return 0

    def ext(lam):
        r = [hi - lam * xi for xi, hi in zip(x, h)]
        return max(r) - min(r)

    cands = {0}
    for i in range(len(x)):
        for j in range(len(x)):
            if x[i] > x[j]:
                num, den = h[i] - h[j], x[i] - x[j]
                cands.update((num // den, -(-num // den)))
    best = min(cands, key=lambda lam: (ext(lam), lam))
    return 0 if ext(0) == ext(best) else best


@settings(max_examples=300)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
    xspan=st.sampled_from([0, 1, 2, 7, 40]),
    hspan=st.sampled_from([0, 3, 100, 5000, 50000]),
    slopes=st.lists(st.integers(-300, 300), min_size=8, max_size=8),
    seed=st.integers(0, 2 ** 16),
)
def test_best_shear_matches_brute_force_window(sizes, xspan, hspan, slopes, seed):
    """Many segments of mixed sizes searched in lockstep, each with its
    own slope; ptp 1 with large h noise gives windows of tens of
    thousands, and one-row or constant-x segments keep lam = 0."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    seg = np.repeat(np.arange(len(sizes)), sizes)
    x = rng.integers(0, xspan + 1, size=n).astype(np.int64)
    h = (np.array(slopes)[seg] * x + rng.integers(0, hspan + 1, size=n)).astype(np.int64)
    starts = _starts(sizes)
    got = norms._best_shear(x, h, starts)
    want = [_shear_reference(x[s:s + k], h[s:s + k]) for s, k in zip(starts, sizes)]
    assert got.tolist() == want


def _dense_mean_pow(rows, weights, q):
    """Mean of |f|^(2q) over the torus, from one dense FFT on q * extent + 1
    cells per axis of the translated rows."""
    rows = rows - rows.min(axis=0)
    z = np.zeros(tuple(q * int(e) + 1 for e in rows.max(axis=0)), dtype=complex)
    z[tuple(rows.T)] = weights
    return float(np.mean(np.abs(np.fft.ifftn(z, norm="forward")) ** (2 * q)))


def _cells(rows, q):
    return math.prod(norms._fft_shape(rows.max(axis=0).tolist(), q))


@st.composite
def strip_segments(draw):
    """(rows, sizes): segments of distinct integer rows laid end to end.
    A segment is a thin strip along a rational slope a/b (one column
    floor(a x / b) plus a little noise, another of width 0 or 1) or a
    random cloud; its columns are then permuted, one is scaled, and all
    are offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    parts = []
    for size in draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)):
        if draw(st.booleans()):
            a, b = draw(st.integers(-4, 4)), draw(st.integers(1, 4))
            x = rng.integers(0, 9, size=size)
            y = rng.integers(0, draw(st.integers(0, 1)) + 1, size=size)
            h = np.floor(a * x / b).astype(np.int64) + rng.integers(
                0, draw(st.integers(0, 2)) + 1, size=size)
            seg = np.column_stack([x, y, h])[:, list(draw(st.permutations(range(3))))]
        else:
            seg = rng.integers(0, draw(st.sampled_from([1, 3, 6])) + 1, size=(size, 3))
        seg[:, draw(st.integers(0, 2))] *= draw(st.integers(1, 2))
        parts.append(np.unique(seg + rng.integers(-50, 50, size=3), axis=0))
    return np.concatenate(parts).astype(np.int64), [len(s) for s in parts]


@settings(max_examples=150, deadline=None)
@given(segs=strip_segments(), q=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 16))
def test_lattice_reduce_keeps_means_and_never_grows_the_lattice(segs, q, seed):
    """Per segment: rows stay integer and distinct, in canonical axis
    order (live axes by ascending extent, dead axes last), on no more
    cells than the unsheared rows; mean |f|^4 and |f|^6 equal the dense
    FFT of the unreduced rows; the rows do not depend on the segments
    batched beside it."""
    rows, sizes = segs
    weights = np.random.default_rng(seed).standard_normal((len(rows), 2)) @ [1, 1j]
    starts = _starts(sizes)
    got = norms._lattice_reduce(rows, starts, q)
    assert got.dtype == np.int64
    for s, k in zip(starts, sizes):
        mine, raw = got[s:s + k], rows[s:s + k]
        np.testing.assert_array_equal(mine, norms._lattice_reduce(raw, np.zeros(1, np.int64), q))
        assert len(np.unique(mine, axis=0)) == k
        ext = mine.max(axis=0).tolist()
        live = [e for e in ext if e > 0]
        assert mine.min(axis=0).tolist() == [0, 0, 0]
        assert ext == sorted(live) + [0] * (3 - len(live))
        assert _cells(mine, q) <= _cells(norms._reduce_axes(raw, np.zeros(1, np.int64)), q)
        want = _dense_mean_pow(raw, weights[s:s + k], q)
        assert abs(_dense_mean_pow(mine, weights[s:s + k], q) - want) <= 1e-12 * want


def test_lattice_reduce_flattens_a_slope_half_strip():
    """The xy lift of the 2^-5 grid points with y in {1/2, 17/32}: the
    height runs along X/2, which no integer height shear flattens
    (extents (32, 1, 17) sheared to (32, 1, 16)), while 2H - X takes the
    strip's width.  The reduced rows span extents (1, 2, 18)."""
    x, y = np.meshgrid(np.arange(33), [16, 17], indexing="ij")
    rows = np.column_stack([x.ravel(), y.ravel(), np.round(x * y / 32).ravel()]).astype(np.int64)
    one = np.zeros(1, dtype=np.int64)
    base = norms._reduce_axes(rows, one)
    sheared = norms._reduce_axes(norms._shear_reduce(base, one), one)
    got = norms._lattice_reduce(rows, one, 2)
    assert base.max(axis=0).tolist() == [32, 1, 17]
    assert sheared.max(axis=0).tolist() == [32, 1, 16]
    assert got.max(axis=0).tolist() == [1, 2, 18]
    assert (_cells(got, 2), _cells(sheared, 2)) == (600, 6534)


def test_lattice_reduce_tries_the_shear_where_a_field_cannot_fit(monkeypatch):
    """Three rows on which U leaves extents (1, 1, 1), 27 cells at q = 2,
    and the height shear (1, 1, 0), 9 cells.  Only where the field would
    exceed _FFT_BUDGET is the shear tried too, so a sum that fits on
    sheared rows still fits."""
    rows = np.array([[3, 0, 6], [3, 1, 5], [7, 0, 11]])
    one = np.zeros(1, dtype=np.int64)
    assert norms._lattice_reduce(rows, one, 2).max(axis=0).tolist() == [1, 1, 1]
    monkeypatch.setattr(norms, "_FFT_BUDGET", 20)
    assert norms._lattice_reduce(rows, one, 2).max(axis=0).tolist() == [1, 1, 0]


def test_lattice_reduce_maps_only_below_2_62():
    """Five points near the line H = X/2.  With X spanning ~2^58 the map
    X - 2H flattens X; with X spanning ~2^61 that map's bound |X| + 2|H|
    passes 2^62, so the rows keep their axes (in canonical order), and
    the height shear, tried too as the field cannot fit, does not flatten
    a slope of 1/2.  Either way the pair-sum mean |f|^4, exact on any
    integer rows, is unchanged."""
    one = np.zeros(1, dtype=np.int64)
    w = np.random.default_rng(1).standard_normal((5, 2)) @ [1, 1j]
    for k in (58, 61):
        x = np.array([0, 1, 2 ** k + 3, 3 * 2 ** (k - 1) + 1, 3 * 2 ** (k - 1) + 7])
        rows = np.column_stack([x, [0, 1, 0, 1, 1], x // 2 + [0, 1, 0, 1, 0]])
        got = norms._lattice_reduce(rows, one, 2)
        if k == 58:
            assert got.max(axis=0).tolist()[:2] == [1, 2]
        else:
            np.testing.assert_array_equal(got, norms._reduce_axes(rows, one)[:, [1, 2, 0]])
        a, b = (norms._pairs_mean_pow4(r, w, one)[0] for r in (got, rows))
        assert abs(a - b) <= 1e-12 * b


@settings(max_examples=80)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 60)),
    cells=st.sampled_from([1, 7, 64, 1 << 20]),
    p=st.sampled_from([4, 6, 3.5]),
    seed=st.integers(0, 2 ** 16),
)
def test_axis1_means_in_slabs_match_the_whole_stack(shape, cells, p, seed):
    """Slabs along the last axis give the whole stack's axis-1 means bit
    for bit, also when the columns do not divide evenly into slabs."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    whole = np.abs(g) ** p
    saved, norms._STACK_CELLS = norms._STACK_CELLS, cells
    try:
        got = norms._axis1_means(g, p)
    finally:
        norms._STACK_CELLS = saved
    np.testing.assert_array_equal(got, whole.mean(axis=1))
