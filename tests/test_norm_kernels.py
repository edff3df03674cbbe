"""Property tests for the exact norm engine's integer kernels: packed row
keys, the pair-sum Parseval count and the height-shear search, each
against a plain reference."""

import numpy as np
from hypothesis import given, settings
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


@settings(max_examples=120)
@given(
    n=st.integers(1, 14),
    extents=st.tuples(*[st.sampled_from([0, 1, 5, 2 ** 21 + 7, 2 ** 23]) for _ in range(3)]),
    seed=st.integers(0, 2 ** 16),
)
def test_pairs_mean_pow4_matches_dict_convolution(n, extents, seed):
    rng = np.random.default_rng(seed)
    # few distinct values per axis, so pair sums collide
    ints = np.column_stack([rng.choice(rng.integers(0, e + 1, size=3), size=n)
                            for e in extents]).astype(np.int64)
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = norms._pairs_mean_pow4(ints, weights)
    want = _pairs_reference(ints, weights)
    assert abs(got - want) <= 1e-12 * want


def _shear_reference(x, h):
    """Leftmost minimizer of the extent of h - lam*x over the search's
    window [rs - w, rs + w] by brute force, or 0 unless strictly better."""
    ptp = int(x.max() - x.min())
    if ptp == 0:
        return 0
    xc = x.astype(float) - x.mean()
    rs = int(round(float((xc * (h - h.mean())).sum() / (xc * xc).sum())))

    def ext(lam):
        r = h - lam * x
        return int(r.max() - r.min())

    w = ext(rs) // ptp + 2
    lams = np.arange(rs - w, rs + w + 1)
    r = h[None, :] - lams[:, None] * x[None, :]
    exts = r.max(axis=1) - r.min(axis=1)
    best = int(lams[np.argmin(exts)])
    return best if exts.min() < ext(0) else 0


@settings(max_examples=300)
@given(
    n=st.integers(2, 30),
    xspan=st.sampled_from([1, 2, 7, 40]),
    hspan=st.sampled_from([0, 3, 100, 5000, 50000]),
    slope=st.integers(-300, 300),
    seed=st.integers(0, 2 ** 16),
)
def test_best_shear_matches_brute_force_window(n, xspan, hspan, slope, seed):
    # ptp 1 with large h noise gives windows of tens of thousands
    rng = np.random.default_rng(seed)
    x = rng.integers(0, xspan + 1, size=n).astype(np.int64)
    h = (slope * x + rng.integers(0, hspan + 1, size=n)).astype(np.int64)
    assert norms._best_shear(x, h) == _shear_reference(x, h)
