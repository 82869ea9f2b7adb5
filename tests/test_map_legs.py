"""Every leg and monomial map is the one kernel ``tensors.map_legs``.

``references.reference_map`` sums as the product kernel does: for each key of
the element, the image of its mapped legs with the other legs put back and
the keys of total central degree above W removed, each term times the key's
coefficient, truncated at N and added unless it is a zero known to h^N, and
the zero sums dropped at the end.  The images are read from the public monomial
maps (``references.reference_product`` for the product), and the central
degrees from the generator data.  Each of the seven maps built on the
kernel must give the same keys in the same order as that fold, with
coefficients in the same canonical storage.  The drawn coefficients have
poles, and some are zeros known only to O(h^(t+1)); some terms come with a
leg-reversed, negated twin whose image cancels theirs.  So a skipped zero
known below h^N, a kept zero known to h^N, a kept zero sum or a missing W
prune shows as a difference.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from hopfforge.pbw import PbwElement
from hopfforge.scalars import Scalar
from hopfforge.tensors import TensorElement

from references import identical, reference_map, reference_product, same_scalar
from test_window import ENGINES, SETTINGS, hopf_ops


def leg_maps(ops):
    """map -> (input leg counts, 0 for a PbwElement; mapped width; the map on
    (element, pos); the image of the mapped legs; the image's engines)."""
    eng = ops.engine

    def product(a, b):
        return reference_product(eng, a, b)

    return {
        "apply_leg": ((2, 3), 1, lambda t, pos: t.apply_leg(pos, ops.antipode_mono),
                      ops.antipode_mono, (eng,)),
        "expand_leg": ((1, 2, 3), 1, lambda t, pos: t.expand_leg(pos, ops.coproduct_mono),
                       ops.coproduct_mono, (eng, eng)),
        "multiply_legs": ((2, 3), 2, lambda t, pos: t.multiply_legs(pos), product, (eng,)),
        "coproduct": ((0,), 1, lambda el, pos: ops.coproduct(el), ops.coproduct_mono, (eng, eng)),
        "antipode": ((0,), 1, lambda el, pos: ops.antipode(el), ops.antipode_mono, (eng,)),
        "antipode_inverse": ((0,), 1, lambda el, pos: ops.antipode_inverse(el),
                             ops.antipode_inverse_mono, (eng,)),
        "counit_contract": ((2,), 1, lambda t, pos: ops.counit_contract(t, pos),
                            ops.counit_mono, ()),
    }


@st.composite
def elements(draw, engine, legs):
    """A few terms of at most four letters in all; ``legs`` 0 draws a
    PbwElement.  A central letter may come to a power above the degree
    cutoff W.  A coefficient is c*h^k with k >= -1, maybe times a parameter,
    maybe known only to O(h^(t+1)), and then a zero when t < k."""
    params = sorted(engine.presentation.params)
    above_w = engine.cutoffs.word_degree + 1
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = [[0] * engine.n for _ in range(max(legs, 1))]
        for leg, i in draw(st.lists(st.tuples(st.integers(0, len(key) - 1),
                                              st.integers(0, engine.n - 1)), max_size=4)):
            powers = [1, 2, above_w] if engine.central[i] else [1]
            key[leg][i] = 1 if engine.parities[i] else key[leg][i] + draw(st.sampled_from(powers))
        key = tuple(map(tuple, key))
        c = Scalar.from_fraction(F(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3))))
        c = c * Scalar.h(draw(st.integers(-1, 3)))
        if params and draw(st.booleans()):
            c = c * Scalar.param(draw(st.sampled_from(params)))
        terms[key] = c = c.truncate(draw(st.sampled_from([None, 0, 1, 2])))
        if legs > 1 and draw(st.booleans()):
            terms[key[::-1]] = -c
    if legs == 0:
        return PbwElement(engine, {k[0]: c for k, c in terms.items()})
    return TensorElement((engine,) * legs, terms)


@ENGINES
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_each_leg_map_is_the_fold_of_its_images(name, data):
    ops = hopf_ops(name)
    leg_counts, width, method, image, engines = data.draw(
        st.sampled_from(list(leg_maps(ops).values())))
    legs = data.draw(st.sampled_from(leg_counts))
    pos = data.draw(st.integers(0, max(legs, 1) - width))
    el = data.draw(elements(ops.engine, legs))
    identical(method(el, pos), reference_map(el, pos, width, image, engines))


def test_the_three_drop_rules_on_hand_built_tensors():
    ops = hopf_ops("sd_line")
    eng = ops.engine
    one, T, t_above_w = (0,) * eng.n, (0, 0, 0, 1), (0, 0, 0, eng.cutoffs.word_degree + 1)
    N = eng.cutoffs.h_order
    assert eng.gen_names[3] == "T" and eng.central[3]
    cases = [
        # a zero known to O(h^1), below N, times an image is added to T
        ({(T, one): Scalar.one(), (one, T): Scalar.zero(0)}, "multiply_legs",
         {T: Scalar.one().truncate(0)}),
        # a zero known to h^N times an image is skipped, and leaves T known to h^N
        ({(T, one): Scalar.one(), (one, T): Scalar.zero(N)}, "multiply_legs",
         {T: Scalar.one().truncate(N)}),
        # T*1 - 1*T is a zero sum, and dropped
        ({(T, one): Scalar.one(), (one, T): -Scalar.one()}, "multiply_legs", {}),
        # the kept leg alone is above W
        ({(one, t_above_w): Scalar.one()}, "counit_contract", {}),
    ]
    maps = leg_maps(ops)
    for terms, kind, want in cases:
        _, width, method, image, engines = maps[kind]
        t = TensorElement((eng, eng), terms)
        got = method(t, 0)
        identical(got, reference_map(t, 0, width, image, engines))
        identical(got, PbwElement(eng, want))


def test_a_leg_product_sums_a_zero_known_below_h_to_the_n_as_multiply_does():
    # ptsa_q at (N, W) = (3, 6): T (x) 1 with 1 and 1 (x) T with 0 + O(h^2)
    # multiply to T with 1 + O(h^2), the coefficient of T in the product of
    # 1 + (0 + O(h^2))*T and T + 1, which sums the same two terms
    eng = hopf_ops("ptsa_q").engine
    assert eng.gen_names == ("S", "T") and eng.cutoffs.h_order == 3
    one, T, lossy = (0, 0), (0, 1), Scalar.zero(1)
    t = TensorElement((eng, eng), {(T, one): Scalar.one(), (one, T): lossy})
    got = t.multiply_legs(0)
    identical(got, PbwElement(eng, {T: Scalar.one().truncate(1)}))
    product = eng.multiply(PbwElement(eng, {one: Scalar.one(), T: lossy}),
                           PbwElement(eng, {T: Scalar.one(), one: Scalar.one()}))
    same_scalar(got.terms[T], product.terms[T])
