import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hopfforge.hopf import HopfOps
from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import load_presentation, PresentationError
from hopfforge.scalars import Scalar
from hopfforge.lang import parse_expr_text
from hopfforge.tensors import (TensorElement, evaluate_tensor, exp_tensor, graded_commutator,
                               tensor_mul, tensor_of)

from references import reference_tensor_mul, same_terms
from test_leg_products import tensors
from test_window import DOUBLES, SETTINGS, SHIPPED, hopf_ops


@pytest.fixture(scope="module")
def sd():
    return Engine(load_presentation("sd_line"), Cutoffs(4, 12))


def gens(sd):
    return {n: sd.generator(n) for n in sd.gen_names}


# ------------------------------------------------------------- Koszul signs

def test_odd_odd_crossing_sign(sd):
    g = gens(sd)
    one = sd.one()
    prod = tensor_mul(tensor_of(one, g["xi"]), tensor_of(g["xi"], one))
    want = tensor_of(g["xi"], g["xi"]).scale(-1)
    assert prod == want


def test_even_crossing_no_sign(sd):
    g = gens(sd)
    one = sd.one()
    prod = tensor_mul(tensor_of(g["xi"], one), tensor_of(one, g["xi"]))
    assert prod == tensor_of(g["xi"], g["xi"])


def test_nilpotence_kills_squares(sd):
    g = gens(sd)
    sx = tensor_of(g["S"], g["xi"])
    assert tensor_mul(sx, sx).is_zero()


def test_flip_signs_and_involution(sd):
    g = gens(sd)
    xx = tensor_of(g["xi"], g["xi"])
    assert xx.flip_adjacent(0) == xx.scale(-1)
    assert tensor_of(g["T"], g["tau"]).flip_adjacent(0) == tensor_of(g["tau"], g["T"])
    rng = random.Random(3)
    basis = [m for m in itertools.product((0, 1), (0, 1, 2), (0, 1), (0, 1, 2))]
    for _ in range(10):
        t = tensor_of(PbwElement(sd, {rng.choice(basis): Scalar.one()}),
                      PbwElement(sd, {rng.choice(basis): Scalar.h()}))
        assert t.flip_adjacent(0).flip_adjacent(0) == t


def test_sign_coherence_flip_is_multiplicative(sd):
    # the Koszul flip is an algebra isomorphism onto the leg-swapped square:
    # flip(a) flip(b) = flip(a b) on homogeneous 2-leg elements
    g = gens(sd)
    pairs = [(tensor_of(g["S"], g["T"]), tensor_of(g["xi"], g["tau"])),
             (tensor_of(g["xi"], g["S"]), tensor_of(g["tau"], g["T"])),
             (tensor_of(g["S"], g["xi"]), tensor_of(g["S"], g["xi"])),
             (tensor_of(g["T"], g["S"]), tensor_of(g["tau"], g["xi"]))]
    for a, b in pairs:
        assert tensor_mul(a.flip_adjacent(0), b.flip_adjacent(0)) \
            == tensor_mul(a, b).flip_adjacent(0)


def test_three_leg_signs_match_iterated_two_leg(sd):
    # the direct n-leg Koszul sign equals both iterations of the 2-leg rule:
    # group legs (1)(23) and (12)(3) give the same total sign
    g = gens(sd)
    terms = [g["xi"], g["S"], g["tau"], g["T"]]
    rng = random.Random(5)
    for _ in range(12):
        x = [rng.choice(terms) for _ in range(3)]
        y = [rng.choice(terms) for _ in range(3)]
        direct = tensor_mul(tensor_of(*x), tensor_of(*y))
        # left-associated: sign from legs (1)(2) then leg 3, via explicit parities
        px = [e.parity() for e in x]
        py = [e.parity() for e in y]
        sgn_left = (py[0] * (px[1] + px[2]) + py[1] * px[2]) % 2
        sgn_direct = sum(py[i] * px[j] for i in range(3) for j in range(i + 1, 3)) % 2
        assert sgn_left == sgn_direct
        legs = [sd.multiply(a, b) for a, b in zip(x, y)]
        expect = tensor_of(*legs).scale(-1 if sgn_direct else 1)
        assert direct == expect


def test_three_leg_associativity(sd):
    g = gens(sd)
    a = tensor_of(g["S"], g["tau"], g["T"])
    b = tensor_of(g["xi"], g["xi"], g["T"])
    c = tensor_of(g["tau"], g["S"], g["xi"])
    left = tensor_mul(tensor_mul(a, b), c)
    right = tensor_mul(a, tensor_mul(b, c))
    assert left == right


def test_leg_mismatch_rejected(sd):
    g = gens(sd)
    with pytest.raises(PresentationError):
        tensor_mul(tensor_of(g["S"], g["xi"]), tensor_of(g["S"], g["xi"], g["T"]))


def test_addition_rejects_leg_mismatch(sd):
    g = gens(sd)
    with pytest.raises(PresentationError):
        tensor_of(g["S"], g["T"]) + tensor_of(g["S"], g["T"], sd.one())
    other = Engine(load_presentation("sd_line"), Cutoffs(4, 12))
    with pytest.raises(PresentationError):
        tensor_of(g["S"], g["T"]) + tensor_of(g["S"], other.generator("T"))
    with pytest.raises(PresentationError):
        g["S"] - other.generator("S")


@pytest.mark.parametrize("text,message", [
    ("S*(xi (x) T)", "expected scalar * tensor"),
    ("(xi (x) T)*(T (x) xi)", "expected scalar * tensor"),
    ("xi (x) xi (x) xi", "expected a 2-leg tensor"),
])
def test_evaluate_tensor_rejects_malformed_expressions(sd, text, message):
    # load-time validation keeps these out of presentation files
    with pytest.raises(PresentationError, match=re.escape(message)):
        evaluate_tensor(sd, parse_expr_text(text))


def test_evaluate_rejects_a_tensor(sd):
    with pytest.raises(PresentationError,
                       match="tensor expression where an algebra element was expected"):
        sd.evaluate(parse_expr_text("xi (x) T"))


def test_evaluate_tensor_scales_and_divides(sd):
    g = gens(sd)
    got = evaluate_tensor(sd, parse_expr_text("(h*T (x) xi - xi (x) 1)/2"))
    want = tensor_of(g["T"], g["xi"]).scale(Scalar.h() * F(1, 2)) \
        - tensor_of(g["xi"], sd.one()).scale(F(1, 2))
    assert got == want


def test_moved_to_matches_generators_by_name(sd):
    ptsa = Engine(load_presentation("ptsa_q"), Cutoffs(4, 12))
    S, T = ptsa.generator("S"), ptsa.generator("T")
    el = ptsa.multiply(S, T).scale(Scalar.h())
    assert el.moved_to(sd) == sd.multiply(sd.generator("S"), sd.generator("T")).scale(Scalar.h())
    assert tensor_of(S, T).moved_to((sd, sd)) == tensor_of(sd.generator("S"), sd.generator("T"))
    # xi and tau have no place in ptsa_q
    with pytest.raises(PresentationError):
        sd.generator("S").moved_to(ptsa)
    with pytest.raises(PresentationError):
        tensor_of(S, T).moved_to((sd, sd, sd))


# ------------------------------------------------------------- exponentials

def test_exp_tensor_low_degree(sd):
    g = gens(sd)
    E = exp_tensor(tensor_of(g["T"], g["tau"]), 2)
    one = (0, 0, 0, 0)
    t1, tau1 = (0, 0, 0, 1), (0, 1, 0, 0)
    t2, tau2 = (0, 0, 0, 2), (0, 2, 0, 0)
    assert E.coefficient((one, one)) == Scalar.one()
    assert E.coefficient((t1, tau1)) == Scalar.one().truncate(4)
    assert E.coefficient((t2, tau2)) == Scalar.from_fraction(F(1, 2)).truncate(4)


def test_exp_of_zero(sd):
    assert exp_tensor(TensorElement.zero((sd, sd)), 4) == TensorElement.unit((sd, sd))


def test_exp_inverse_up_to_degree(sd):
    g = gens(sd)
    D = 6
    E = exp_tensor(tensor_of(g["T"], g["tau"]), D)
    Em = exp_tensor(tensor_of(g["T"], g["tau"]).scale(-1), D)
    prod = tensor_mul(E, Em).truncate_degree(D)
    assert prod == TensorElement.unit((sd, sd))


def test_exp_rejects_odd_or_degree_zero(sd):
    g = gens(sd)
    with pytest.raises(PresentationError):
        exp_tensor(tensor_of(g["S"], g["T"]), 3)
    with pytest.raises(PresentationError):
        exp_tensor(TensorElement.unit((sd, sd)), 3)


def test_mixed_leg_presentations():
    ptsa = Engine(load_presentation("ptsa_q"), Cutoffs(4, 8))
    brst = Engine(load_presentation("brst_q_alpha2"), Cutoffs(4, 8))
    t = tensor_of(ptsa.generator("T"), brst.generator("tau"))
    sq = tensor_mul(t, t)
    key = ((0, 2), (0, 2))
    assert sq.coefficient(key) == Scalar.one().truncate(4)


# ------------------------------------------------------------- graded commutator

def reference_commutator(a, b, sign):
    return reference_tensor_mul(a, b) - reference_tensor_mul(b, a).scale(sign)


def generator_coproducts(ops):
    eng = ops.engine
    return {name: ops.coproduct_mono(tuple(int(j == i) for j in range(eng.n)))
            for i, name in enumerate(eng.gen_names)}


@pytest.mark.parametrize("cutoffs", [Cutoffs(6, 10), Cutoffs(7, 12)], ids=str)
@pytest.mark.parametrize("name", SHIPPED)
def test_graded_commutator_of_coproducts_matches_the_reference(name, cutoffs):
    # the relation check's Delta(a)Delta(b) - s Delta(b)Delta(a), a square
    # for {a,a}; and every generator's coproduct squared with either sign
    ops = HopfOps(Engine(load_presentation(name), cutoffs))
    pres, delta = ops.presentation, generator_coproducts(ops)
    for rel in pres.relations:
        da, db = delta[rel.a], delta[rel.b]
        sign = -1 if pres.parity(rel.a) and pres.parity(rel.b) else 1
        same_terms(graded_commutator(da, db, sign), reference_commutator(da, db, sign))
    for d in delta.values():
        for sign in (1, -1):
            same_terms(graded_commutator(d, d, sign), reference_commutator(d, d, sign))


def pole_free(t):
    """t with every coefficient c*h^k made exact and times h^(1-k)."""
    return t._new({k: Scalar({e - (c.valuation() or 0) + 1: p for e, p in c.coeffs.items()})
                   for k, c in t.terms.items()})


CENTRAL = [name for name in SHIPPED + DOUBLES if any(hopf_ops(name).engine.central)]


@pytest.mark.parametrize("name", CENTRAL, ids=str)
@SETTINGS
@given(data=st.data())
def test_graded_commutator_matches_the_reference(name, data):
    # the drawn coefficients may have a pole or be known below h^N, which
    # rules the one-pass shortcut out; pole_free rules it in.  One leg draws
    # PbwElements
    eng = hopf_ops(name).engine
    legs = data.draw(st.sampled_from([1, 2, 3]))
    a = data.draw(tensors(eng, legs))
    b = a if data.draw(st.booleans()) else data.draw(tensors(eng, legs))
    if data.draw(st.booleans()):
        a, b = (pole_free(a),) * 2 if a is b else (pole_free(a), pole_free(b))
    sign = data.draw(st.sampled_from([1, -1]))
    same_terms(graded_commutator(a, b, sign), reference_commutator(a, b, sign))


@pytest.mark.parametrize("change", [
    lambda c, N: c.truncate(N - 1),   # known only to h^(N-1)
    lambda c, N: c * Scalar.h(-1),    # a pole
], ids=["known-to-N-1", "pole"])
def test_graded_commutator_without_the_shortcut_matches_the_reference(change):
    # the pair (xi (x) 1, 1 (x) 1) cancels and (tau (x) 1, xi (x) 1) does
    # not ([tau,xi] = h*xi): both reach the key xi (x) 1, and the difference
    # of the two products keeps the trunc, below h^N, of the cancelled one
    eng = Engine(load_presentation("sd_line"), Cutoffs(6, 10))
    N = eng.cutoffs.h_order
    one, xi, tau = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)
    a = TensorElement((eng, eng), {(xi, one): change(Scalar.one(), N), (tau, one): Scalar.one()})
    b = TensorElement((eng, eng), {(one, one): Scalar.one(), (xi, one): Scalar.one()})
    cases = [(a, b), (b, a), (a, a)]
    # and in coproducts: one changed coefficient of Delta(S) of ptsa_q
    ops = HopfOps(Engine(load_presentation("ptsa_q"), Cutoffs(6, 10)))
    delta = generator_coproducts(ops)
    first = next(iter(delta["S"].terms))
    ds = TensorElement(delta["S"].engines, {k: change(c, N) if k == first else c
                                            for k, c in delta["S"].terms.items()})
    cases += [(ds, delta["T"]), (delta["T"], ds), (ds, ds)]
    for x, y in cases:
        for sign in (1, -1):
            same_terms(graded_commutator(x, y, sign), reference_commutator(x, y, sign))
