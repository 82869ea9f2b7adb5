"""The tensor kernel's skip rules hold at the precision they state.

``tensor_mul`` forms no product for three kinds of term: a pair or leg
coefficient that is a zero known to h^N, a unit (the exact 1 or
1 + O(h^(t+1)) with t >= N) that a pole-free coefficient passes unchanged,
and a key whose central degree exceeds W.  The tests here build each
coefficient one order short of its rule, a zero known only to h^(N-1) or
1 + O(h^N), at every place where the loops for one, two and three legs (and
the recursion for four) test it, and require the keys, their order and each
``trunc`` of the fold references, which apply their own copy of each rule.
A kernel that relaxed a rule by one order would report such a coefficient
as known to h^N.  A key one degree above W must be dropped by every loop,
and by the recursion that ``tensor_of`` uses too.  The leg maps of
``map_legs`` multiply every term, so they must give the fold's ``trunc``
for the same coefficients.
"""

import pytest

from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import data_dir, load_presentation, parse_presentation
from hopfforge.scalars import Scalar
from hopfforge.tensors import TensorElement, tensor_mul, tensor_of

from references import identical, reference_map, reference_multiply_legs, reference_tensor_mul
from test_window import hopf_ops

ONE, S, T, T3 = (0, 0), (1, 0), (0, 1), (0, 3)
PLACES = [(n, i) for n in (1, 2, 3, 4) for i in range(n)]


def placed(n, i, m):
    """The key with m on leg i and the unit on every other leg."""
    return tuple(m if j == i else ONE for j in range(n))


def element(eng, n, terms):
    """A PbwElement (n = 1) or an n-leg tensor over eng with these terms."""
    if n == 1:
        return PbwElement(eng, {k[0]: c for k, c in terms.items()})
    return TensorElement((eng,) * n, terms)


def product(eng, n, a, b):
    """tensor_mul of the two term dicts, checked against the fold reference."""
    a, b = element(eng, n, a), element(eng, n, b)
    out = tensor_mul(a, b)
    identical(out, reference_tensor_mul(a, b))
    return out


def lossy_engine():
    """ptsa_q with {S,S} = 2*T*(1 + O(h^N)): the relation divides a sum known
    to h^(N+3) by h^4, so S*S = T times 1 + O(h^N), a coefficient known only
    to h^(N-1) that reads as 1."""
    text = (data_dir() / "ptsa_q.hopf").read_text()
    text = text.replace("{S,S} = 2*sinh(h*T)/sinh(h)", "{S,S} = 2*T*(h^4 + sinh(h) - sinh(h))/h^4")
    return Engine(parse_presentation(text), Cutoffs(3, 6))


def test_the_engines_hold_the_coefficients_the_tests_need():
    eng = hopf_ops("ptsa_q").engine
    N = eng.cutoffs.h_order
    assert (eng.gen_names, eng.central, N) == (("S", "T"), (False, True), 3)
    # S*S = T*(1 - h^2/6 + ...) + T^3*(h^2/6 + ...): no unit, and a valuation 2
    (m1, c1, _, u1), (m3, c3, _, u3) = eng.product_terms(S, S)
    assert (m1, m3, u1, u3, c1.valuation(), c3.valuation()) == (T, T3, False, False, 0, 2)
    (m, c, _, unit), = lossy_engine().product_terms(S, S)
    assert (m, c.coeffs, c.trunc, unit) == (T, Scalar.one().coeffs, N - 1, False)


@pytest.mark.parametrize("n, i", PLACES)
def test_a_pair_coefficient_known_to_h_to_the_n_minus_one_is_kept(n, i):
    # the pair (T, 1) has the coefficient 0 + O(h^N): not a zero known to h^N,
    # so it joins the T that (1, T) makes, which is then known to h^(N-1)
    eng = hopf_ops("ptsa_q").engine
    N = eng.cutoffs.h_order
    unit, t = placed(n, i, ONE), placed(n, i, T)
    out = product(eng, n, {unit: Scalar.one(), t: Scalar.zero(N - 1)},
                  {t: Scalar.one(), unit: Scalar.one()})
    key = t[0] if n == 1 else t
    assert out.terms[key].trunc == N - 1


@pytest.mark.parametrize("n, i", PLACES)
def test_a_leg_product_known_to_h_to_the_n_minus_one_is_kept(n, i):
    # the pair (S, S) has the coefficient 0 + O(h^(N-2)), kept by any rule;
    # times the leg coefficient h^2/6 of T^3 it is 0 + O(h^N), which joins
    # the T^3 that (T^3, 1) makes on the same leg
    eng = hopf_ops("ptsa_q").engine
    N = eng.cutoffs.h_order
    s, t3, unit = placed(n, i, S), placed(n, i, T3), placed(n, i, ONE)
    out = product(eng, n, {s: Scalar.zero(N - 3), t3: Scalar.one()},
                  {s: Scalar.one(), unit: Scalar.one()})
    key = t3[0] if n == 1 else t3
    assert out.terms[key].trunc == N - 1


@pytest.mark.parametrize("n, i", PLACES)
def test_a_leaf_that_truncation_makes_zero_keeps_its_place(n, i):
    # (S, S) gives T^3 the coefficient h^3 * h^2/6, which is zero once
    # truncated at N = 3: it enters the sum first, so T^3 comes before the
    # keys of (S, 1) and (T^3, S) although only (T^3, 1) adds to it
    eng = hopf_ops("ptsa_q").engine
    s, t3, unit = placed(n, i, S), placed(n, i, T3), placed(n, i, ONE)
    out = product(eng, n, {s: Scalar.h(3), t3: Scalar.one()},
                  {s: Scalar.one(), unit: Scalar.one()})
    keys = [placed(n, i, m) for m in (T, T3, S, (1, 3))]
    assert list(out.terms) == ([k[0] for k in keys] if n == 1 else keys)


@pytest.mark.parametrize("n, i", PLACES)
def test_a_leg_coefficient_one_plus_o_h_to_the_n_is_no_unit(n, i):
    # 2 * (1 + O(h^N)) is known only to h^(N-1)
    eng = lossy_engine()
    N = eng.cutoffs.h_order
    s = placed(n, i, S)
    out = product(eng, n, {s: Scalar.from_fraction(2)}, {s: Scalar.one()})
    (c,) = out.terms.values()
    assert (c.coeffs, c.trunc) == (Scalar.from_fraction(2).coeffs, N - 1)


@pytest.mark.parametrize("n, i", PLACES)
def test_an_operand_coefficient_one_plus_o_h_to_the_n_is_no_unit(n, i):
    eng = hopf_ops("ptsa_q").engine
    N = eng.cutoffs.h_order
    unit, t = placed(n, i, ONE), placed(n, i, T)
    lossy_one = Scalar.one().truncate(N - 1)
    for a, b in (({unit: lossy_one}, {t: Scalar.from_fraction(2)}),
                 ({t: Scalar.from_fraction(2)}, {unit: lossy_one})):
        (c,) = product(eng, n, a, b).terms.values()
        assert (c.coeffs, c.trunc) == (Scalar.from_fraction(2).coeffs, N - 1)


@pytest.mark.parametrize("n, i", PLACES)
def test_a_unit_operand_times_a_pole_is_multiplied(n, i):
    # 1 + O(h^(N+1)) times h^-1 is known only to h^(N-1): a unit passes a
    # coefficient unchanged only when the coefficient has no pole
    eng = hopf_ops("ptsa_q").engine
    N = eng.cutoffs.h_order
    unit, t = placed(n, i, ONE), placed(n, i, T)
    for a, b in (({unit: Scalar.one().truncate(N)}, {t: Scalar.h(-1)}),
                 ({t: Scalar.h(-1)}, {unit: Scalar.one().truncate(N)})):
        (c,) = product(eng, n, a, b).terms.values()
        assert (c.coeffs, c.trunc) == (Scalar.h(-1).coeffs, N - 1)


@pytest.mark.parametrize("n, i", PLACES)
def test_a_pole_multiplies_each_unit_leg(n, i):
    # leg i is ptsa_q at N = 3 and the other legs ptsa_q at N = 5: only leg
    # i's unit, 1 + O(h^4), leaves h^-1 known to h^2, below N = 3; passed
    # through unchanged it would leave h^-1 known to h^3
    low = hopf_ops("ptsa_q").engine
    high = Engine(load_presentation("ptsa_q"), Cutoffs(5, 6))
    engines = tuple(low if j == i else high for j in range(n))
    for m in (ONE, T):
        a = {placed(n, i, ONE): Scalar.h(-1)}
        b = {placed(n, i, m): Scalar.one()}
        if n == 1:
            a, b = (PbwElement(low, {k[0]: c for k, c in x.items()}) for x in (a, b))
        else:
            a, b = TensorElement(engines, a), TensorElement(engines, b)
        out = tensor_mul(a, b)
        identical(out, reference_tensor_mul(a, b))
        assert [c.trunc for c in out.terms.values()] == [2]


def test_tensor_of_and_four_legs_drop_a_key_above_w():
    # T is central of degree 1 and W = 6: T^3 (x) T^4 and T (x) T (x) T^2 (x)
    # T^3 lie above W, T^3 (x) T^3 and T (x) T (x) T (x) T^3 do not
    eng = hopf_ops("ptsa_q").engine
    assert eng.cutoffs.word_degree == 6
    t = tensor_of(PbwElement(eng, {(0, 3): Scalar.one()}),
                  PbwElement(eng, {(0, 3): Scalar.one(), (0, 4): Scalar.one()}))
    assert list(t.terms) == [((0, 3), (0, 3))]
    engines = (eng,) * 4
    a = TensorElement(engines, {(T, T, T, ONE): Scalar.one()})
    b = TensorElement(engines, {(ONE, ONE, T, T3): Scalar.one(), (ONE, ONE, ONE, T3): Scalar.one()})
    out = tensor_mul(a, b)
    identical(out, reference_tensor_mul(a, b))
    assert list(out.terms) == [(T, T, T, T3)]


def test_the_leg_maps_keep_coefficients_known_below_h_to_the_n():
    # multiply_legs reads the product T*(1 + O(h^N)) of the lossy engine, and
    # the coproduct scales each term of Delta(T) by 1 + O(h^N)
    eng = lossy_engine()
    N = eng.cutoffs.h_order
    for pos, key in ((0, (S, S, ONE)), (1, (ONE, S, S))):
        t = TensorElement((eng,) * 3, {key: Scalar.from_fraction(2)})
        out = t.multiply_legs(pos)
        identical(out, reference_multiply_legs(t, pos))
        assert [c.trunc for c in out.terms.values()] == [N - 1]
    ops = hopf_ops("ptsa_q")
    el = PbwElement(ops.engine, {T: Scalar.one().truncate(N - 1)})
    two = ops.coproduct(el)
    identical(two, reference_map(el, 0, 1, ops.coproduct_mono, (ops.engine,) * 2))
    assert [c.trunc for c in two.terms.values()] == [N - 1, N - 1]
