"""Property test of the decomposition's stacked layout.

Over every grid of up to 300 points and every valid (j_sub, halo), the
layout lays the spans end to end in id order and sends each grid point
to its owner's entry.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ddvar import Grid1D, decompose_uniform  # noqa: E402

from conftest import base_blocks  # noqa: E402


@st.composite
def _decompositions(draw):
    n = draw(st.integers(1, 300))
    j_sub = draw(st.integers(1, n))
    # a halo is bounded only between subdomains: 2 halo + 1 <= n // j_sub
    top = (n // j_sub - 1) // 2 if j_sub > 1 else n
    return n, j_sub, draw(st.integers(0, top))


@settings(max_examples=300, deadline=None)
@given(_decompositions())
@example((1, 1, 0))
@example((300, 1, 0))
@example((300, 1, 7))
@example((300, 7, 3))  # uneven base blocks: 300 = 7 * 42 + 6
@example((203, 20, 3))
@example((300, 300, 0))
def test_stacked_layout_lays_the_spans_end_to_end(case):
    n, j_sub, halo = case
    dec = decompose_uniform(Grid1D.uniform(n), j_sub, halo)
    points, ends, owners = dec._stacked
    assert not any(a.flags.writeable for a in (points, ends, owners))
    ids = range(j_sub)
    np.testing.assert_array_equal(
        points, np.concatenate([np.arange(*dec.subdomains[i]) for i in ids]))
    np.testing.assert_array_equal(
        ends, np.cumsum([stop - start for start, stop in dec.subdomains]))
    # each grid point's owner entry holds that point, inside the base
    # block of the span the entry belongs to
    grid = np.arange(n)
    np.testing.assert_array_equal(points[owners], grid)
    owner = np.searchsorted(ends, owners, side="right")
    start, stop = np.array([(b.start, b.stop) for b in base_blocks(dec)]).T
    assert np.all((start[owner] <= grid) & (grid < stop[owner]))
