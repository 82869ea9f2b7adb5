"""``gauss_jordan`` is the dense elimination of ``tests/references.py``.

The kernel gives a zero entry the zero its product would have been, without
forming the product: times the pivot's inverse a zero known to O(h^(t+1))
becomes one known to t + v(inverse), and in a row update a - f*0 is ``a``
truncated where f*0 is known.  So both must give the same pivots and the
same rows, value, ``trunc`` and storage of every entry, on the canonical
element's Gram blocks, on the full basis and on the kept blocks it reduces,
and on drawn matrices with exact zeros, zeros known above and below
``order``, poles and parameters.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hopfforge.pairing import _h_basis
from hopfforge.rmatrix import _kept
from hopfforge.scalars import Scalar, ScalarError, gauss_jordan

from references import reference_gauss_jordan, same_scalar
from test_window import SETTINGS, double_context


def same_elimination(rows, order):
    """Run both eliminations on copies of rows and compare them; returns the
    kernel's pivots, or None when both raise ScalarError."""
    mine, ref = [list(r) for r in rows], [list(r) for r in rows]
    try:
        want = reference_gauss_jordan(ref, order)
    except ScalarError:
        with pytest.raises(ScalarError):
            gauss_jordan(mine, order)
        return None
    assert gauss_jordan(mine, order) == want
    for i, (row, ref_row) in enumerate(zip(mine, ref)):
        for j, (x, y) in enumerate(zip(row, ref_row)):
            same_scalar(x, y, (i, j))
    return want


def gram_blocks(ctx, kept):
    """[G | 1] for each parity block, as the canonical element builds it: on
    the full basis, or on the block it keeps for the window of D."""
    H, K, pair = ctx.dbl.H, ctx.dbl.K, ctx.dbl.pairing
    bound = ctx.canonical.weight_bound(ctx.degree)
    for par in (0, 1):
        rows = [m for m in _h_basis(H, ctx.d_int) if H.monomial_parity(m) == par]
        cols = [m for m in _h_basis(K, ctx.d_int) if K.monomial_parity(m) == par]
        if kept:
            full = len(rows)
            rows, cols = _kept(rows, cols, pair.filtration, bound)
            assert len(rows) < full
        n = len(rows)
        yield n, [[pair.pair_mono(r, c) for c in cols]
                  + [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
                  for i, r in enumerate(rows)]


@pytest.mark.parametrize("cut", [(4, 4), (5, 5), (6, 6)], ids=str)
def test_the_canonical_gram_blocks_reduce_as_the_dense_loop(cut):
    ctx = double_context(cut)
    for n, A in gram_blocks(ctx, kept=False):
        assert same_elimination(A, ctx.h_order) == list(range(n))


@pytest.mark.parametrize("cut", [(4, 4), (5, 5), (6, 6)], ids=str)
def test_the_kept_gram_blocks_reduce_as_the_dense_loop(cut):
    ctx = double_context(cut)
    for n, A in gram_blocks(ctx, kept=True):
        assert same_elimination(A, ctx.h_order) == list(range(n))


@st.composite
def entries(draw):
    """An exact zero, a zero known to O(h^(t+1)), or q*h^k (k >= -1) maybe
    times a parameter and maybe truncated."""
    kind = draw(st.sampled_from(["zero", "known zero", "value", "value", "value"]))
    if kind == "zero":
        return Scalar.zero()
    if kind == "known zero":
        return Scalar.zero(draw(st.integers(-1, 5)))
    c = Scalar.from_fraction(F(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3))))
    c = c * Scalar.h(draw(st.integers(-1, 2)))
    if draw(st.booleans()):
        c = c * Scalar.param(draw(st.sampled_from(["mu", "theta"])))
    return c.truncate(draw(st.sampled_from([None, None, 0, 2, 4])))


@SETTINGS
@given(data=st.data())
def test_drawn_matrices_reduce_as_the_dense_loop(data):
    n = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 5))
    rows = [[data.draw(entries()) for _ in range(width)] for _ in range(n)]
    order = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    same_elimination(rows, order)
