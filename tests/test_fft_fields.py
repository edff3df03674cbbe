"""The norm engine's FFT layer: padded lengths and stacked fields.

Fields are checked against the exponential sums they sample, written out
term by term with ``np.exp`` and no FFT library; scipy appears only as
the oracle for the padded lengths."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flatcover import norms

# odd, even, 7-smooth and 11-smooth lengths (and 1, a dead axis)
LENGTHS = (1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 14, 15, 21, 22, 28, 33, 35, 44, 49, 55, 77)


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    got = [norms._fast_len(n) for n in range(1, 65_537)]
    assert got == [next_fast_len(n) for n in range(1, 65_537)]


def _direct_fields(shape, slot, ints, weights, k):
    """(k, *shape) stack of g_s(x) = sum over rows i of slot s of
    w_i e(sum_a ints[i, a] x_a / shape[a]), one term at a time; each
    phase is reduced mod 1 in integers before the exponential."""
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    out = np.zeros((k,) + tuple(shape), dtype=complex)
    for s, m, w in zip(slot, ints, weights):
        turns = sum((int(m[a]) * grids[a]) % n / n for a, n in enumerate(shape))
        out[s] += w * np.exp(2j * math.pi * turns)
    return out


@st.composite
def _stacks(draw):
    shape = tuple(draw(st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=3)
                       .filter(lambda s: any(n > 1 for n in s))
                       .filter(lambda s: math.prod(s) <= 6000)))
    k = draw(st.integers(1, 4))
    cells = math.prod(shape)
    slot, flat = [], []
    for s in range(k):
        rows = draw(st.sets(st.integers(0, cells - 1), min_size=1, max_size=min(cells, 8)))
        slot += [s] * len(rows)
        flat += sorted(rows)
    ints = np.stack(np.unravel_index(np.array(flat), shape), axis=1)
    part = st.floats(-2.0, 2.0, allow_nan=False)
    re = np.array(draw(st.lists(part, min_size=len(flat), max_size=len(flat))))
    if draw(st.booleans()):
        weights = re + 0j
    else:
        im = np.array(draw(st.lists(part, min_size=len(flat), max_size=len(flat))))
        weights = re + 1j * im
    return shape, np.array(slot), ints, weights, k


@settings(max_examples=150, deadline=None)
@given(stack=_stacks())
def test_stacked_fields_match_the_direct_sum(stack):
    """Complex weights give the full field; real weights give conj g on
    the half of the last live axis, with each index counted once or with
    its mirror.  1e-12 relative to the weights' l1 norm, the field's
    bound."""
    shape, slot, ints, weights, k = stack
    g, mult = norms._stacked_fields(shape, slot, ints, weights, k)
    want = _direct_fields(shape, slot, ints, weights, k)
    tol = 1e-12 * max(np.abs(weights).sum(), 1e-300)
    if weights.imag.any():
        assert mult is None
        np.testing.assert_allclose(g, want, rtol=0, atol=tol)
        return
    ax = max(a for a, n in enumerate(shape) if n > 1)
    n = shape[ax]
    assert g.shape == (k,) + shape[:ax] + (n // 2 + 1,) + shape[ax + 1:]
    np.testing.assert_allclose(g, np.conj(want).take(range(n // 2 + 1), axis=1 + ax),
                               rtol=0, atol=tol)
    assert mult.tolist() == [1.0 if j == (n - j) % n else 2.0 for j in range(n // 2 + 1)]
