"""Tensor products read each leg product from the engine's product cache.

``reference_tensor_mul`` is the earlier product: it wraps both monomials of
every leg in a PbwElement and multiplies them with ``Engine.multiply``, which
copies the cached normal form through ``add_scaled``, and it computes each
monomial's parity, weight and central degree from the generator data instead
of the engine's memos.  ``tensor_mul`` and ``multiply_legs`` must give the
same keys in the same order, with coefficients in the same canonical storage
(so the same value, ``trunc`` and ``repr``).
"""

import itertools
import math
from fractions import Fraction as F

from hypothesis import given, strategies as st

from hopfforge.pbw import PbwElement, _clean, _droppable
from hopfforge.presentation import ODD
from hopfforge.scalars import ParamPoly, Scalar
from hopfforge.tensors import TensorElement, tensor_mul

from test_window import ENGINES, SETTINGS, hopf_ops


def direct_parity(e, m):
    return sum(x for x, p in zip(m, e.parities) if p == ODD) % 2


def direct_weight(e, m):
    return sum(x * w for x, w in zip(m, e.weight))


def direct_central(e, m):
    return sum(x * d for x, d, c in zip(m, e.degrees, e.central) if c)


def direct_unit(c, N):
    return c.coeffs == {0: ParamPoly.const(1)} and (c.trunc is None or c.trunc >= N)


def reference_tensor_mul(a, b, max_degree=None):
    engines = a.engines
    N = min(e.cutoffs.h_order for e in engines)
    W = min(e.cutoffs.word_degree for e in engines)
    if max_degree is None:
        bound, weight = math.inf, lambda key: 0
    else:
        bound = a.weight_bound(max_degree)

        def weight(key):
            return sum(direct_weight(e, m) for e, m in zip(engines, key))
    b_items = [(kb, cb, weight(kb)) for kb, cb in b.terms.items()]
    acc: dict = {}
    for ka, ca in a.terms.items():
        room = bound - weight(ka)
        pa = [direct_parity(engines[i], ka[i]) for i in range(len(engines))]
        for kb, cb, wb in b_items:
            if wb > room:
                continue
            pb = [direct_parity(engines[i], kb[i]) for i in range(len(engines))]
            sgn = 0
            for i in range(len(engines)):
                for j in range(i + 1, len(engines)):
                    sgn += pb[i] * pa[j]
            c = (ca * cb).truncate(N)
            if sgn % 2:
                c = -c
            if _droppable(c, N):
                continue
            legs = [engines[i].multiply(
                PbwElement(engines[i], {ka[i]: Scalar.one()}),
                PbwElement(engines[i], {kb[i]: Scalar.one()})) for i in range(len(engines))]
            _reference_distribute(acc, legs, c, N, W)
    out = TensorElement(engines, _clean(acc))
    return out if max_degree is None else out.window(max_degree)


def _reference_distribute(acc, legs, c, N, W):
    engines = [leg.engine for leg in legs]

    def rec(i, key, coeff):
        if _droppable(coeff, N):
            return
        if i == len(legs):
            if sum(direct_central(e, m) for e, m in zip(engines, key)) > W:
                return
            s = coeff.truncate(N)
            prev = acc.get(key)
            acc[key] = s if prev is None else prev + s
            return
        for m, mc in legs[i].terms.items():
            rec(i + 1, key + (m,), coeff * mc)
    rec(0, (), c)


def reference_multiply_legs(t, pos):
    eng = t.engines[pos]
    engines = t.engines[:pos + 1] + t.engines[pos + 2:]
    out = PbwElement(eng) if len(engines) == 1 else TensorElement(engines)
    one = Scalar.one()
    for key, c in t.terms.items():
        prod = eng.multiply(PbwElement(eng, {key[pos]: one}), PbwElement(eng, {key[pos + 1]: one}))
        head, tail = key[:pos], key[pos + 2:]
        out.add_scaled(out._new({out._key(head + (m,) + tail): v
                                 for m, v in prod.terms.items()}), c)
    return out


def identical(x, y):
    # the same keys in the same order, and coefficients in the same canonical
    # storage, which fixes their value, trunc and printing
    assert list(x.terms) == list(y.terms)
    for k, c in x.terms.items():
        d = y.terms[k]
        assert (c._c, c._den, c._params, c.trunc) == (d._c, d._den, d._params, d.trunc), k


@st.composite
def tensors(draw, engine, legs):
    """A few terms of at most four letters in all; coefficients c*h^k, k may
    be -1, some truncated, some times a parameter of the presentation."""
    params = sorted(engine.presentation.params)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = [[0] * engine.n for _ in range(legs)]
        for leg, i in draw(st.lists(st.tuples(st.integers(0, legs - 1),
                                              st.integers(0, engine.n - 1)), max_size=4)):
            key[leg][i] = 1 if engine.parities[i] else key[leg][i] + 1
        c = Scalar.from_fraction(F(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3))))
        c = c * Scalar.h(draw(st.integers(-1, 2)))
        if params and draw(st.booleans()):
            c = c * Scalar.param(draw(st.sampled_from(params)))
        terms[tuple(map(tuple, key))] = c.truncate(draw(st.sampled_from([None, 2, 3])))
    return TensorElement((engine,) * legs, terms)


@ENGINES
@SETTINGS
@given(data=st.data())
def test_leg_products_from_the_cache_match_the_reference(name, data):
    eng = hopf_ops(name).engine
    legs = data.draw(st.sampled_from([2, 3]))
    D = data.draw(st.sampled_from([None, 0, 2, 4]))
    a, b = data.draw(tensors(eng, legs)), data.draw(tensors(eng, legs))
    first = tensor_mul(a, b, D)
    identical(first, reference_tensor_mul(a, b, D))
    identical(tensor_mul(a, b, D), first)  # every leg product now cached
    pos = data.draw(st.integers(0, legs - 2))
    identical(a.multiply_legs(pos), reference_multiply_legs(a, pos))


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
