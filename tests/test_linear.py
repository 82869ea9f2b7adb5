"""In-place accumulation against the left fold it replaces.

``add_scaled`` must leave exactly what ``out = out + piece.scale(c)`` leaves:
the same keys, and per key the same coefficient and ``trunc``, also when a
running sum cancels to a zero known only to O(h^k).
"""

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import load_presentation
from hopfforge.scalars import ParamPoly, Scalar
from hopfforge.tensors import TensorElement

ENGINE = Engine(load_presentation("sd_line"), Cutoffs(4, 8))
# unit, xi, T, T^2: few keys, so that pieces overlap and sums cancel
MONOMIALS = [ENGINE.word_to_monomial(w) for w in ((), (0,), (3,), (3, 3))]


def _element(legs, terms):
    if legs == 1:
        return PbwElement(ENGINE, terms)
    return TensorElement((ENGINE,) * legs, terms)


@st.composite
def scalars(draw, N):
    """A small int, a zero known to O(h^(t+1)), or a series, truncated or exact."""
    kind = draw(st.sampled_from(("int", "zero", "truncated", "exact")))
    if kind == "int":
        return draw(st.integers(-2, 2))
    if kind == "zero":
        return Scalar.zero(draw(st.integers(0, N - 1)))
    v = draw(st.integers(0, 2))
    qs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       min_size=1, max_size=3))
    s = Scalar({v + i: ParamPoly.const(q) for i, q in enumerate(qs) if q})
    return s.truncate(draw(st.integers(v, N))) if kind == "truncated" else s


@pytest.mark.parametrize("legs", (1, 2, 3), ids=("pbw", "tensor2", "tensor3"))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_add_scaled_matches_the_fold(legs, data):
    N = ENGINE.cutoffs.h_order
    key = st.sampled_from(MONOMIALS) if legs == 1 else \
        st.tuples(*(st.sampled_from(MONOMIALS),) * legs)
    steps = []
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        if steps and data.draw(st.booleans(), label="cancel"):
            # undo an earlier step exactly, or only up to O(h^k)
            piece, c = data.draw(st.sampled_from(steps), label="undo")
            c = -(Scalar.from_fraction(c) if isinstance(c, int) else c)
            k = data.draw(st.none() | st.integers(0, N), label="k")
            steps.append((piece, c if k is None else c.truncate(k)))
        else:
            terms = data.draw(st.dictionaries(key, scalars(N), max_size=4), label="piece")
            steps.append((_element(legs, terms), data.draw(scalars(N), label="c")))
    acc, fold = _element(legs, {}), _element(legs, {})
    for piece, c in steps:
        acc.add_scaled(piece, c)
        fold = fold + piece.scale(c)
    assert acc.terms.keys() == fold.terms.keys()
    for k, c in acc.terms.items():
        assert (c.coeffs, c.trunc) == (fold.terms[k].coeffs, fold.terms[k].trunc), k
