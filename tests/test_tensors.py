import itertools
import random
import re
from fractions import Fraction as F

import pytest

from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import load_presentation, PresentationError
from hopfforge.scalars import Scalar
from hopfforge.lang import parse_expr_text
from hopfforge.tensors import TensorElement, evaluate_tensor, exp_tensor, tensor_mul, tensor_of


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
