"""Tensor products read each leg product from the engine's product cache.

``tensor_mul`` (of PbwElements, the one-leg case that ``Engine.multiply``
is, and of tensors), ``multiply_legs`` and ``HopfOps.antipode_mono`` must
give the same keys in the same order as the fold references of
``tests/references.py``, with coefficients in the same canonical storage (so
the same value, ``trunc`` and ``repr``).
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hopfforge.hopf import HopfOps
from hopfforge.pbw import Cutoffs, PbwElement, shared_engine
from hopfforge.presentation import ODD, load_presentation
from hopfforge.scalars import Scalar
from hopfforge.tensors import TensorElement, tensor_mul

from references import (direct_central, direct_parity, direct_unit, direct_weight, identical,
                        reference_antipode, reference_multiply_legs, reference_tensor_mul)
from test_window import ENGINES, SETTINGS, SHIPPED, hopf_ops


@st.composite
def tensors(draw, engine, legs, above_w=False):
    """A few terms of at most four letters in all; coefficients c*h^k, k may
    be -1, some truncated, some times a parameter of the presentation.  With
    ``above_w``, a central letter may come to a power above the degree cutoff
    W, so that a key's total central degree exceeds W.  ``legs`` 1 draws a
    PbwElement."""
    params = sorted(engine.presentation.params)
    high = engine.cutoffs.word_degree + 1
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = [[0] * engine.n for _ in range(legs)]
        for leg, i in draw(st.lists(st.tuples(st.integers(0, legs - 1),
                                              st.integers(0, engine.n - 1)), max_size=4)):
            step = draw(st.sampled_from([1, high])) if above_w and engine.central[i] else 1
            key[leg][i] = 1 if engine.parities[i] else key[leg][i] + step
        c = Scalar.from_fraction(F(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3))))
        c = c * Scalar.h(draw(st.integers(-1, 2)))
        if params and draw(st.booleans()):
            c = c * Scalar.param(draw(st.sampled_from(params)))
        terms[tuple(map(tuple, key))] = c.truncate(draw(st.sampled_from([None, 2, 3])))
    if legs == 1:
        return PbwElement(engine, {k[0]: c for k, c in terms.items()})
    return TensorElement((engine,) * legs, terms)


@ENGINES
@SETTINGS
@given(data=st.data())
def test_leg_products_from_the_cache_match_the_reference(name, data):
    eng = hopf_ops(name).engine
    legs = data.draw(st.sampled_from([1, 2, 3]))
    D = data.draw(st.sampled_from([None, 0, 2, 4]))
    a, b = data.draw(tensors(eng, legs)), data.draw(tensors(eng, legs))
    first = tensor_mul(a, b, D)
    identical(first, reference_tensor_mul(a, b, D))
    identical(tensor_mul(a, b, D), first)  # every leg product now cached
    if legs == 1:
        identical(eng.multiply(a, b), reference_tensor_mul(a, b))
    legs = data.draw(st.sampled_from([2, 3]))
    pos = data.draw(st.integers(0, legs - 2))
    t = data.draw(tensors(eng, legs, above_w=True))
    identical(t.multiply_legs(pos), reference_multiply_legs(t, pos))


def basis(e, max_degree):
    """Every monomial of total degree <= max_degree (odd exponents 0 or 1)."""
    ranges = [range(2) if p == ODD else range(max_degree // d + 1)
              for p, d in zip(e.parities, e.degrees)]
    return [m for m in itertools.product(*ranges) if e.monomial_degree(m) <= max_degree]


@ENGINES
def test_memoized_invariants_and_cached_triples_match_the_formulas(name):
    eng = hopf_ops(name).engine
    monomials = basis(eng, 6)
    for m in monomials:
        assert eng.parity_of[m] == eng.monomial_parity(m) == direct_parity(eng, m)
        assert eng.weight_of[m] == direct_weight(eng, m)
        assert (eng.central_degree_of[m] == eng.monomial_degree_central(m)
                == direct_central(eng, m))
        assert eng.central_of[m] == all(eng.presentation.is_central(g)
                                        for g, x in zip(eng.gen_names, m) if x)
    low = basis(eng, 2)
    units = 0
    for ma, mb in itertools.product(low, low):
        terms = eng.product(ma, mb)
        entry = eng.product_terms(ma, mb)
        assert entry == tuple((m, c, direct_central(eng, m), direct_unit(c, eng.cutoffs.h_order))
                              for m, c in terms.items())
        assert all(c is terms[m] for m, c, _, _ in entry)
        units += sum(unit for *_, unit in entry)
        nf = eng.normal_form(eng.monomial_to_word(ma) + eng.monomial_to_word(mb))
        assert list(nf.terms) == list(terms)
        assert all((nf.terms[m].coeffs, nf.terms[m].trunc) == (c.coeffs, c.trunc)
                   for m, c in terms.items())
    assert units


def test_a_pole_times_unit_legs_is_multiplied():
    # every leg product here is one term with the unit 1 + O(h^(t+1)), t = N
    # = 3; times it, a coefficient of valuation -1 truncates at t - 1 = 2 < N,
    # so a unit leg may be skipped only when the pair's coefficient has no pole
    eng = hopf_ops("ptsa_q").engine
    one, S, T = (0, 0), (1, 0), (0, 1)
    for m in (one, S, T):
        (_, unit, _, flag), = eng.product_terms(one, m)
        assert flag and unit.trunc == eng.cutoffs.h_order == 3
    pole = Scalar.h(-1)
    for c in (pole, pole.truncate(2)):  # h^-1, and h^-1 + O(h^3)
        for keys in ([(one, one), (S, T)], [(one, one, one), (T, one, S)]):
            engines = (eng,) * len(keys[0])
            a = TensorElement(engines, {keys[0]: c})
            b = TensorElement(engines, {k: Scalar.one() for k in keys})
            for D in (None, 2):
                product = tensor_mul(a, b, D)
                identical(product, reference_tensor_mul(a, b, D))
                assert list(product.terms) == keys
                assert all(x.trunc == 2 for x in product.terms.values())


@pytest.mark.parametrize("cutoffs", [Cutoffs(6, 10), Cutoffs(7, 12)], ids=str)
@pytest.mark.parametrize("name", SHIPPED)
def test_antipode_recursion_matches_the_reversed_word_loop(name, cutoffs):
    # one product per monomial, a sign per step, against the word loop with
    # its global sign; sd_reference and sd_hp are not confluent, so this also
    # pins the order of the products
    ops = HopfOps(shared_engine(load_presentation(name), cutoffs))
    eng = ops.engine
    unit = (0,) * eng.n
    identical(ops.antipode_mono(unit), eng.one())  # the exact unit
    for m in basis(eng, 4):
        if m != unit:
            identical(ops.antipode_mono(m), reference_antipode(ops, m))


def test_an_element_product_keeps_a_zero_known_below_h_to_the_n():
    # a product of elements takes the tensor rule: the zero product T*1,
    # known only to O(h^2), is added, so the T it joins is known only to
    # O(h^2), and the lone zero T*T is dropped
    eng = hopf_ops("ptsa_q").engine
    one, T = (0, 0), (0, 1)
    a = PbwElement(eng, {one: Scalar.one(), T: Scalar.zero(1)})
    b = PbwElement(eng, {T: Scalar.one(), one: Scalar.one()})
    product = eng.multiply(a, b)
    identical(product, reference_tensor_mul(a, b))
    assert list(product.terms) == [T, one] and product.terms[T].trunc == 1


@ENGINES
@SETTINGS
@given(data=st.data())
def test_a_difference_is_the_sum_with_the_negation(name, data):
    # a - b merges each -c into a copy of a; it must be a + (-b), key order
    # included, also where keys cancel or meet a zero known below h^N
    eng = hopf_ops(name).engine
    legs = data.draw(st.sampled_from([1, 2, 3]))
    a, b = data.draw(tensors(eng, legs)), data.draw(tensors(eng, legs))
    for k, c in a.terms.items():
        how = data.draw(st.sampled_from(["keep", "cancel", "known zero"]))
        if how == "cancel":
            b.terms[k] = c
        elif how == "known zero":
            b.terms[k] = c - c.truncate(data.draw(st.sampled_from([-1, 1, 2])))
    identical(a - b, a + (-b))
    identical(a - a, a + (-a))
    assert not (a - a).terms
