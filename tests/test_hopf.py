import itertools
import random
from fractions import Fraction as F

import pytest

from hopfforge.hopf import HopfOps, verify_hopf
from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import load_presentation, parse_presentation, emit_presentation
from hopfforge.scalars import Scalar, series_fn

ALL = ["ptsa_q", "brst_q", "brst_q_alpha2", "sd_reference", "sd_hp", "sd_line",
       "h0_point", "d0_variety", "h1_point", "d1_variety", "variety_3d", "newquant"]


@pytest.fixture(scope="module")
def brst_ops():
    return HopfOps(Engine(load_presentation("brst_q"), Cutoffs(6, 10)))


@pytest.fixture(scope="module")
def sd_ops():
    return HopfOps(Engine(load_presentation("sd_line"), Cutoffs(6, 10)))


def test_coproduct_of_xi_tau(brst_ops):
    # Delta(xi tau) = xi tau (x) 1 + xi (x) tau + tau (x) xi + 1 (x) xi tau
    eng = brst_ops.engine
    el = eng.multiply(eng.generator("xi"), eng.generator("tau"))
    d = brst_ops.coproduct(el)
    one = (0, 0)
    assert d.coefficient(((1, 1), one)) == Scalar.one().truncate(6)
    assert d.coefficient(((1, 0), (0, 1))) == Scalar.one().truncate(6)
    assert d.coefficient(((0, 1), (1, 0))) == Scalar.one().truncate(6)
    assert d.coefficient((one, (1, 1))) == Scalar.one().truncate(6)


def test_coproduct_of_t_squared(sd_ops):
    eng = sd_ops.engine
    T = eng.generator("T")
    d = sd_ops.coproduct(eng.multiply(T, T))
    t1 = (0, 0, 0, 1)
    t2 = (0, 0, 0, 2)
    one = (0, 0, 0, 0)
    assert d.coefficient((t2, one)) == Scalar.one().truncate(6)
    assert d.coefficient((t1, t1)) == Scalar.from_fraction(2).truncate(6)
    assert d.coefficient((one, t2)) == Scalar.one().truncate(6)


def test_coproduct_is_homomorphism_on_ss(sd_ops):
    eng = sd_ops.engine
    S = eng.generator("S")
    lhs = sd_ops.coproduct(eng.multiply(S, S))
    from hopfforge.tensors import tensor_mul
    rhs = tensor_mul(sd_ops.coproduct(S), sd_ops.coproduct(S))
    assert lhs == rhs


def test_coassociativity_of_delta_tau_explicit(brst_ops):
    # both iterated coproducts equal tau in each slot plus (h/sinh h) times the
    # three placements of xi (x) xi
    eng = brst_ops.engine
    tau = eng.generator("tau")
    left = brst_ops.iterated_coproduct(tau, "left")
    right = brst_ops.iterated_coproduct(tau, "right")
    assert left == right
    one, xi, t = (0, 0), (1, 0), (0, 1)
    gamma = Scalar.h().truncate(8).div(series_fn("sinh", Scalar.h(), order=8)).truncate(6)
    for key in [(xi, xi, one), (xi, one, xi), (one, xi, xi)]:
        assert left.coefficient(key) == gamma
    for key in [(t, one, one), (one, t, one), (one, one, t)]:
        assert left.coefficient(key) == Scalar.one().truncate(6)


def test_antipode_of_xi_tau(brst_ops):
    # S(xi tau) = S(tau) S(xi) = tau xi = xi tau + (h/2) xi
    eng = brst_ops.engine
    el = eng.multiply(eng.generator("xi"), eng.generator("tau"))
    got = brst_ops.antipode(el)
    assert got.coefficient((1, 1)) == Scalar.one().truncate(6)
    assert got.coefficient((1, 0)) == (Scalar.h() * F(1, 2)).truncate(6)


def test_antipode_unit_and_counit_unit(sd_ops):
    one = sd_ops.engine.one()
    assert sd_ops.antipode(one) == one
    assert sd_ops.counit(one) == Scalar.one()


def test_counit_of_tau_is_zero(brst_ops):
    assert brst_ops.counit(brst_ops.engine.generator("tau")).is_zero()


def test_counit_values_are_forced(brst_ops):
    # (eps (x) id) Delta tau = tau forces eps(tau) = 0 and eps(xi) = 0: a
    # perturbed counit breaks the axiom
    text = emit_presentation(load_presentation("brst_q")).replace(
        "[counit]\nxi = 0\ntau = 0", "[counit]\nxi = 0\ntau = 1")
    pres = parse_presentation(text)
    r = verify_hopf(pres, Cutoffs(4, 8))
    assert r.status == "fail"


def test_antipode_axiom_on_tau_vanishes(brst_ops):
    # m(S (x) id) Delta tau = -tau + tau - (h/sinh h) xi^2 = 0
    eng = brst_ops.engine
    two = brst_ops.coproduct(eng.generator("tau"))
    out = two.apply_leg(0, brst_ops.antipode_mono).multiply_legs()
    assert out.is_zero()


def test_antipode_squared_identity_all_files():
    for name in ALL:
        ops = HopfOps(Engine(load_presentation(name), Cutoffs(4, 8)))
        assert ops.antipode_squared_is_identity(), name
        g = ops.engine.generator(ops.engine.gen_names[0])
        assert ops.antipode_inverse(g) == ops.antipode(g)


def test_involution_is_checked_once_per_ops(monkeypatch):
    ops = HopfOps(Engine(load_presentation("brst_q"), Cutoffs(4, 8)))
    calls = []
    check = ops.antipode_squared_is_identity
    monkeypatch.setattr(ops, "antipode_squared_is_identity", lambda: calls.append(1) or check())
    for name in ops.engine.gen_names:
        g = ops.engine.generator(name)
        assert ops.antipode_inverse(g) == ops.antipode(g)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ALL)
def test_verify_hopf_passes_everywhere(name):
    r = verify_hopf(load_presentation(name), Cutoffs(5, 8))
    assert r.status == "pass", r.text()


@pytest.mark.parametrize("name", ALL)
def test_verify_hopf_passes_at_word_cutoff_zero(name):
    # at W = 0 a central generator of degree 1 is zero in the quotient, on
    # the generator side as on the coproduct side of the counit axiom
    pres = load_presentation(name)
    assert verify_hopf(pres, Cutoffs(6, 0)).status == "pass"
    eng = Engine(pres, Cutoffs(6, 0))
    for g in pres.generators:
        el = eng.generator(g.name)
        if pres.is_central(g.name) and g.degree > 0:
            assert el.is_zero() and not el.terms
        else:
            (c,) = el.terms.values()
            assert c.trunc is None and c == Scalar.one()


def test_homomorphism_on_random_pairs(sd_ops):
    # Delta(ab) = Delta(a) Delta(b) on random element pairs
    from hopfforge.tensors import tensor_mul
    eng = sd_ops.engine
    rng = random.Random(11)
    basis = [m for m in itertools.product((0, 1), (0, 1, 2), (0, 1), (0, 1, 2))
             if eng.monomial_degree(m) <= 3]
    for _ in range(20):
        a = PbwElement(eng, {rng.choice(basis): Scalar.one(),
                             rng.choice(basis): Scalar.h()})
        b = PbwElement(eng, {rng.choice(basis): Scalar.one()})
        lhs = sd_ops.coproduct(eng.multiply(a, b))
        rhs = tensor_mul(sd_ops.coproduct(a), sd_ops.coproduct(b))
        assert lhs == rhs


def test_sign_flip_mutation_breaks_axioms():
    text = emit_presentation(load_presentation("sd_line"))
    mutated = text.replace("{S,xi} = 2*sinh(h*T/2)", "{S,xi} = -2*sinh(h*T/2)")
    assert mutated != text
    r = verify_hopf(parse_presentation(mutated), Cutoffs(5, 8))
    assert r.status == "fail"


def test_coefficient_mutation_breaks_axioms():
    text = emit_presentation(load_presentation("brst_q"))
    mutated = text.replace("xi = xi (x) 1 + 1 (x) xi", "xi = xi (x) 1 - 1 (x) xi")
    assert mutated != text
    r = verify_hopf(parse_presentation(mutated), Cutoffs(5, 8))
    assert r.status == "fail"


@pytest.mark.parametrize("section, mutated, failure", [
    # S(T) = T: S({S,S}) = -2 S^2 = -2 sinh(hT)/sinh(h), but S(rhs) = +2 sinh(hT)/sinh(h)
    ("[antipode]\nS = -S\nT = -T", "[antipode]\nS = -S\nT = T",
     "antipode does not respect {S,S}"),
    # eps(T) = 1: eps({S,S}) = 2 eps(S)^2 = 0, but eps(rhs) = 2 sinh(h)/sinh(h) = 2
    ("[counit]\nS = 0\nT = 0", "[counit]\nS = 0\nT = 1",
     "counit does not respect {S,S}"),
])
def test_relation_checks_read_the_maps_on_both_sides(section, mutated, failure):
    # the images of the bracket are built from the images of its letters, so
    # a wrong map fails at the relation, before the generator axioms
    text = emit_presentation(load_presentation("ptsa_q"))
    assert section in text
    r = verify_hopf(parse_presentation(text.replace(section, mutated)), Cutoffs(6, 10))
    assert r.status == "fail"
    assert r.details == [failure]


def test_commuting_pairs_of_coproduct_terms_count_twice():
    # with h*S (x) S in Delta(T), the pair (h S (x) S, T^k (x) S) of Delta(T)
    # Delta(S) commutes on both legs with opposite Koszul signs, so it adds
    # its product twice to Delta(T)Delta(S) - Delta(S)Delta(T)
    text = emit_presentation(load_presentation("ptsa_q"))
    mutated = text.replace("T = T (x) 1 + 1 (x) T", "T = T (x) 1 + 1 (x) T + h*S (x) S")
    assert mutated != text
    r = verify_hopf(parse_presentation(mutated), Cutoffs(6, 10))
    assert r.status == "fail"
    assert r.details == ["coproduct does not respect [T,S]"]
    assert r.residual == "((-2)*h + 1/3*h^3 + (-7/180)*h^5 + O(h^7))*[T (x) S]"


def test_delta_tau_coefficient_mutation_is_hopf_invisible():
    # rescaling the xi (x) xi coefficient of Delta tau keeps every Hopf axiom
    # intact (xi^2 = 0 hides it); the duality suite is what detects it
    text = emit_presentation(load_presentation("brst_q"))
    mutated = text.replace("(h/sinh(h))*xi (x) xi", "(2*h/sinh(h))*xi (x) xi")
    assert mutated != text
    r = verify_hopf(parse_presentation(mutated), Cutoffs(5, 8))
    assert r.status == "pass"


def from_unit_fold(ops, mono):
    """Delta of a monomial as the plain left fold of tensor_mul from the unit."""
    from hopfforge.tensors import TensorElement, tensor_mul
    eng = ops.engine
    got = TensorElement.unit((eng, eng))
    for i, e in enumerate(mono):
        for _ in range(e):
            got = tensor_mul(got, ops.coproduct_gen(eng.gen_names[i]))
    return got


def _same_tensor(a, b):
    assert set(a.terms) == set(b.terms)
    for key, c in a.terms.items():
        d = b.terms[key]
        assert c.exponents() == d.exponents() and c.trunc == d.trunc, key
        assert all(c.coeff(k) == d.coeff(k) for k in c.exponents()), key
        assert (c._c, c._den, c._params) == (d._c, d._den, d._params), key


@pytest.mark.parametrize("cutoffs", [Cutoffs(4, 8), Cutoffs(6, 10)])
@pytest.mark.parametrize("name", ALL)
def test_prefix_coproduct_matches_the_from_unit_fold(name, cutoffs):
    # the cache holds different prefixes depending on the order of requests;
    # the engine, and so its product cache, is shared
    from hopfforge.pairing import _h_basis
    eng = Engine(load_presentation(name), cutoffs)
    ref_ops = HopfOps(eng)
    monos = _h_basis(eng, 6)
    want = {m: from_unit_fold(ref_ops, m) for m in monos}
    for order in (monos, monos[::-1]):
        ops = HopfOps(eng)
        for m in order:
            _same_tensor(ops.coproduct_mono(m), want[m])


@pytest.mark.parametrize("name", ALL)
def test_iterated_coproducts_store_no_zero_coefficient(name):
    # a coefficient whose terms all lie above h^N truncates to zero and is dropped
    from hopfforge.pairing import _h_basis
    eng = Engine(load_presentation(name), Cutoffs())
    ops = HopfOps(eng)
    for m in _h_basis(eng, 2):
        for side in ("left", "right"):
            three = ops.iterated_coproduct(PbwElement(eng, {m: Scalar.one()}), side)
            zeros = [key for key, c in three.terms.items() if c.is_zero()]
            assert not zeros, (m, side, zeros[:3])
