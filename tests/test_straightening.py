"""Memoized straightening against the plain leftmost-first word-stack reducer.

``reference_normal_form`` is the reducer ``Engine.normal_form`` replaced: a
stack of (coefficient, word) pairs, each popped word rewritten at its first
descent, with the termination measure asserted at every step.  The engine
must reproduce it exactly -- every coefficient and its ``trunc`` -- also on
the presentations that are not confluent (``sd_reference``, ``sd_hp``),
where another reduction order would give another answer.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge.pbw import Cutoffs, Engine, RewriteError, _droppable
from hopfforge.presentation import load_presentation, parse_presentation
from hopfforge.scalars import ParamPoly, Scalar

SHIPPED = ("brst_q", "brst_q_alpha2", "d0_variety", "d1_variety", "h0_point", "h1_point",
           "newquant", "ptsa_q", "sd_hp", "sd_line", "sd_reference", "variety_3d")
CUTOFFS = (Cutoffs(4, 8), Cutoffs(6, 10))


def _inversions(word):
    inv = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                inv += 1
    return inv


def _measure(eng, c, w):
    v = c.valuation()
    if v is None:
        # zero known to O(h^(t+1)) behaves like valuation t+1
        v = (c.trunc + 1) if c.trunc is not None else eng.cutoffs.h_order + 1
    return (eng.cutoffs.h_order - v, eng.word_degree_noncentral(w), _inversions(w))


def _assert_decrease(eng, parent, c, w, pw):
    child = _measure(eng, c, w)
    if not child < parent:
        raise RewriteError(
            f"termination measure did not decrease: {pw} -> {w} ({parent} -> {child})")


def reference_normal_form(eng, word, coeff=None):
    """{monomial: coefficient} of the word, reduced one rule at a time."""
    N, W = eng.cutoffs.h_order, eng.cutoffs.word_degree
    coeff = Scalar.one().truncate(N) if coeff is None else coeff.truncate(N)
    out: dict = {}
    work = [(coeff, tuple(word))]
    while work:
        c, w = work.pop()
        if _droppable(c, N):
            continue
        if eng.word_degree_central(w) > W:
            continue
        k = eng._first_descent(w)
        if k is None:
            m = eng.word_to_monomial(w)
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
            continue
        parent = _measure(eng, c, w)
        sign, tail = eng._rules[(w[k], w[k + 1])]
        prefix, suffix = w[:k], w[k + 2:]
        if sign is not None:
            swapped = prefix + (w[k + 1], w[k]) + suffix
            cs = c if sign == 1 else -c
            _assert_decrease(eng, parent, cs, swapped, w)
            work.append((cs, swapped))
        for tw, tc in tail.items():
            nc = (c * tc).truncate(N)
            if _droppable(nc, N):
                continue
            nw = prefix + tw + suffix
            _assert_decrease(eng, parent, nc, nw, w)
            work.append((nc, nw))
    return {m: c for m, c in out.items() if not c.is_zero()}


def _identical(terms, expected):
    """Same monomials, and per monomial the same coefficients and trunc."""
    assert terms.keys() == expected.keys()
    for m, c in terms.items():
        assert (c.coeffs, c.trunc) == (expected[m].coeffs, expected[m].trunc), m


_ENGINES: dict = {}


def _engine(name, cutoffs):
    key = (name, cutoffs)
    if key not in _ENGINES:
        _ENGINES[key] = Engine(load_presentation(name), cutoffs)
    return _ENGINES[key]


@st.composite
def coefficients(draw, N):
    """None (the unit), or a series with a pole, a truncation below N, or
    none at all; zero known to O(h^(t+1)) included."""
    kind = draw(st.sampled_from(("unit", "zero", "truncated", "exact")))
    if kind == "unit":
        return None
    if kind == "zero":
        return Scalar.zero(draw(st.integers(0, N - 1)))
    v = draw(st.integers(-2, 2))
    t = draw(st.integers(max(v, 0), N + 1))
    qs = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                       min_size=t - v + 1, max_size=t - v + 1))
    qs[0] = qs[0] or Fraction(1)
    coeffs = {v + i: ParamPoly.const(q) for i, q in enumerate(qs) if q}
    return Scalar(coeffs, t if kind == "truncated" else None)


@pytest.mark.parametrize("cutoffs", CUTOFFS, ids=lambda c: f"N{c.h_order}W{c.word_degree}")
@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_normal_form_matches_reference(name, cutoffs, data):
    eng = _engine(name, cutoffs)
    word = data.draw(st.lists(st.integers(0, eng.n - 1), max_size=8), label="word")
    coeff = data.draw(coefficients(cutoffs.h_order), label="coeff")
    _identical(eng.normal_form(word, coeff).terms, reference_normal_form(eng, word, coeff))


DEGREE_RAISING = """\
name degree_raising
[generators]
x even 1
y even 1
[relations]
[y,x] = h*x*x*y*y
[coproduct]
x = x (x) 1 + 1 (x) x
y = y (x) 1 + 1 (x) y
[counit]
x = 0
y = 0
[antipode]
x = -x
y = -y
"""


def test_h_positive_tail_that_raises_degree_terminates():
    # the tail raises non-central degree, which only its h factor pays for;
    # the memo must carry the h-order or this recursion never ends
    eng = Engine(parse_presentation(DEGREE_RAISING), Cutoffs(6, 10))
    el = eng.normal_form((1, 1, 0, 0))
    _identical(el.terms, reference_normal_form(eng, (1, 1, 0, 0)))
    assert len(el.terms) == 7
    top = el.coefficient((8, 8))
    assert top.valuation() == 6 and top.coeff(6).constant == 598


def test_measure_violating_rule_raises_rewrite_error():
    eng = Engine(parse_presentation(DEGREE_RAISING), Cutoffs(6, 10))
    # y x -> x y + y x: an h-free tail that gives back the word itself
    eng._rules[(1, 0)] = (1, {(1, 0): Scalar.one().truncate(6)})
    with pytest.raises(RewriteError):
        eng.normal_form((1, 0))
