"""Property test of the stacked fixed-point residual's band product.

Over random grids, decompositions and length scales, blocks whose bands
the stack pads to the tallest, k = 68 sub-diagonals at length scale 8
and an empty block among them, each norm of fixed_point_residual is that
of the dense blockdiag(a_i) w - C w - c over the block's rows, within
the row-wise rounding bound of conftest.residual_bound.
"""

import numpy as np
import pytest
import scipy.linalg

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ddvar import (  # noqa: E402
    SCHEME_MPS,
    LocalSystem,
    assemble_local,
    fixed_point_residual,
)
from ddvar.solvers import _Stack  # noqa: E402

from conftest import dense, make_instance, residual_bound  # noqa: E402


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 600))
    j_sub = draw(st.integers(1, min(n, 12)))
    # a halo is bounded only between subdomains: 2 halo + 1 <= n // j_sub
    top = min((n // j_sub - 1) // 2 if j_sub > 1 else n, 8)
    halo = draw(st.integers(0, top))
    length_scale = draw(st.sampled_from([None, 0.5, 2.0, 8.0]))
    return (n, j_sub, halo, length_scale, draw(st.integers(0, j_sub)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(_cases())
# the blocks' bands 6 and 7 rows tall, padded in the stack to 7
@example((40, 8, 1, 8.0, 3, 6))
# k = 68 sub-diagonals
@example((400, 4, 4, 8.0, 4, 5))
def test_fixed_point_residual_is_the_dense_residual_norm(case):
    n, j_sub, halo, length_scale, at, seed = case
    kind = "identity" if length_scale is None else "gaussian"
    inst, dec = make_instance(n=n, j_sub=j_sub, halo=halo, seed=seed % 1000,
                              kind=kind, length_scale=length_scale or 1.0)
    locals_ = [assemble_local(inst, dec, i, SCHEME_MPS) for i in range(j_sub)]
    rng = np.random.default_rng(seed)
    ws = [rng.standard_normal(sys.size) for sys in locals_]
    stack = _Stack(locals_)
    w = np.concatenate(ws)
    a = scipy.linalg.block_diag(*(dense(sys.a_band) for sys in locals_))
    residual = np.abs(a @ w - stack.coupling.toarray() @ w - stack.c)
    bound = residual_bound(locals_, ws)
    # an empty block, stacked last, listed at position at
    empty = LocalSystem(j_sub, SCHEME_MPS, np.ones((1, 0)), np.zeros(0))
    listing = [*locals_[:at], empty, *locals_[at:]]
    norms = fixed_point_residual(listing, [*ws[:at], np.zeros(0), *ws[at:]])
    assert norms[at] == 0.0
    norms = np.delete(norms, at)
    for i, (lo, hi) in enumerate(zip(stack.starts, stack.starts[1:])):
        assert abs(norms[i] - np.max(residual[lo:hi])) <= np.max(bound[lo:hi])
