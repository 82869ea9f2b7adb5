import itertools
import random
import re
from fractions import Fraction as F

import pytest

from hopfforge.lang import parse_expr_text
from hopfforge.pbw import Cutoffs, Engine, PbwElement
from hopfforge.presentation import load_presentation, PresentationError
from hopfforge.scalars import Scalar, series_fn

from oracles import maclaurin


@pytest.fixture(scope="module")
def brst():
    return Engine(load_presentation("brst_q"), Cutoffs(6, 10))


@pytest.fixture(scope="module")
def sd():
    return Engine(load_presentation("sd_line"), Cutoffs(6, 10))


def coeffs_of(el, mono, upto):
    c = el.coefficient(mono)
    return [c.coeff(k).constant for k in range(upto + 1)]


# -------------------------------------------------------------- normal forms

def test_tau_xi_reorders_with_h_term(brst):
    # tau.xi = xi.tau + (h/2) xi in the literal scaling
    el = brst.normal_form((1, 0))  # word tau, xi with order xi < tau
    assert el.coefficient((1, 1)) == Scalar.one().truncate(6)
    assert el.coefficient((1, 0)) == (Scalar.h() * F(1, 2)).truncate(6)


def test_xi_squared_vanishes(brst):
    assert brst.multiply(brst.generator("xi"), brst.generator("xi")).is_zero()


def test_ss_expansion_matches_series_oracle():
    # S.S -> sinh(hT)/sinh(h) = T + (h^2/6)(T^3 - T) + O(h^4)
    eng = Engine(load_presentation("ptsa_q"), Cutoffs(6, 10))
    el = eng.multiply(eng.generator("S"), eng.generator("S"))
    n = eng.presentation.gen_index("T")

    def mono(k):
        return tuple(k if i == n else 0 for i in range(eng.n))

    assert el.coefficient(mono(1)).coeff(0).constant == 1
    assert el.coefficient(mono(1)).coeff(2).constant == F(-1, 6)
    assert el.coefficient(mono(3)).coeff(2).constant == F(1, 6)
    assert el.coefficient(mono(0)).is_zero()


def test_double_cross_relations(sd):
    S, xi, tau = sd.generator("S"), sd.generator("xi"), sd.generator("tau")
    # S.xi = -xi.S + 2 sinh(hT/2) = -xi.S + hT + h^3 T^3/24 + O(h^5)
    el = sd.multiply(S, xi)
    assert el.coefficient((1, 0, 1, 0)).coeff(0).constant == -1
    assert el.coefficient((0, 0, 0, 1)).coeff(1).constant == 1
    assert el.coefficient((0, 0, 0, 3)).coeff(3).constant == F(1, 24)
    # S.tau = tau.S + h S - (2h(1-h)/sinh h) xi cosh(hT/2)
    el2 = sd.multiply(S, tau)
    assert el2.coefficient((0, 1, 1, 0)) == Scalar.one().truncate(6)
    assert el2.coefficient((0, 0, 1, 0)) == Scalar.h().truncate(6)
    want = (Scalar.from_fraction(-2) * Scalar.h() * (Scalar.one() - Scalar.h())).div(
        series_fn("sinh", Scalar.h(), order=8)).truncate(6)
    assert el2.coefficient((1, 0, 0, 0)) == want


def test_identity_element(sd):
    x = sd.normal_form((2, 1, 0, 3))
    assert sd.multiply(sd.one(), x) == x
    assert sd.multiply(x, sd.one()) == x


# ----------------------------------------------------------- central series

def test_central_series_sinh_oracle(sd):
    el = sd.central_series("sinh", Scalar.h() * F(1, 2), "T") * 2
    # 2 sinh(hT/2) = hT + h^3T^3/24 + O(h^5)
    assert el.coefficient((0, 0, 0, 1)).coeff(1).constant == 2 * maclaurin("sinh", 1) / 2
    assert el.coefficient((0, 0, 0, 3)).coeff(3).constant == 2 * maclaurin("sinh", 3) / 8


def test_central_series_cosh_low_order(sd):
    eng2 = Engine(load_presentation("sd_line"), Cutoffs(2, 10))
    el = eng2.central_series("cosh", Scalar.h() * F(1, 2), "T")
    assert el.coefficient((0, 0, 0, 0)).coeff(0).constant == 1
    assert el.coefficient((0, 0, 0, 2)).coeff(2).constant == F(1, 8)
    assert el.coefficient((0, 0, 0, 4)).is_zero()


def test_central_series_exp_inverse(sd):
    a = sd.central_series("exp", Scalar.h() * F(1, 2), "T")
    b = sd.central_series("exp", Scalar.h() * F(-1, 2), "T")
    assert sd.multiply(a, b) == sd.one()


def test_series_on_non_central_generator_rejected(sd):
    with pytest.raises(PresentationError):
        sd.central_series("sinh", Scalar.h(), "S")


# ------------------------------------------------------------- associativity

def test_associativity_on_low_degree_basis(sd):
    rng = random.Random(7)
    basis = [m for m in itertools.product((0, 1), (0, 1, 2), (0, 1), (0, 1, 2))
             if sd.monomial_degree(m) <= 4]
    picks = [tuple(rng.choice(basis) for _ in range(3)) for _ in range(12)]
    for ma, mb, mc in picks:
        a, b, c = (PbwElement(sd, {m: Scalar.one()}) for m in (ma, mb, mc))
        left = sd.multiply(sd.multiply(a, b), c)
        right = sd.multiply(a, sd.multiply(b, c))
        assert (left - right).is_zero(), (ma, mb, mc)


def test_parity_additive(sd):
    S, xi = sd.generator("S"), sd.generator("xi")
    assert S.parity() == 1 and xi.parity() == 1
    assert sd.multiply(S, xi).parity() == 0


# ----------------------------------------------------------------- stability

def test_stability_audit_retained_coefficients():
    lo = Engine(load_presentation("sd_line"), Cutoffs(4, 8))
    hi = Engine(load_presentation("sd_line"), Cutoffs(5, 10))
    word = (2, 1, 2, 0)  # S tau S xi
    a, b = lo.normal_form(word), hi.normal_form(word)
    for m, c in a.terms.items():
        kept = b.coefficient(m).truncate(c.trunc)
        assert kept == c, m


def test_t_degree_monotonicity(sd):
    # no rule output lowers the T-exponent of the input word
    word = (2, 1, 0)  # S tau xi
    el = sd.normal_form(word + (3, 3))  # append T^2
    for m in el.terms:
        assert m[3] >= 2


# ----------------------------------------------------------------- confluence

@pytest.mark.parametrize("name", [
    "ptsa_q", "brst_q", "brst_q_alpha2", "sd_line", "h0_point", "d0_variety",
    "h1_point", "d1_variety", "variety_3d", "newquant",
])
def test_confluence_of_shipped_presentations(name):
    eng = Engine(load_presentation(name), Cutoffs(5, 8))
    ok, failures, checked = eng.check_confluence()
    assert ok, failures
    assert checked > 0


def test_literal_double_scaling_clash_detected():
    # the printed [tau,xi] = (h/2) xi clashes with the printed cross relations:
    # the S.tau.xi overlap leaves exactly h*sinh(hT/2)
    eng = Engine(load_presentation("sd_reference"), Cutoffs(6, 10))
    ok, failures, _ = eng.check_confluence()
    assert not ok
    words = {f[0] for f in failures}
    assert words == {("S", "tau", "xi")}
    diff = failures[0][1] - failures[0][2]
    residual = diff.coefficient((0, 0, 0, 1))
    assert residual.coeff(2).constant == F(1, 2)


def test_corrupted_sign_breaks_confluence():
    from hopfforge.presentation import parse_presentation, emit_presentation
    text = emit_presentation(load_presentation("sd_line"))
    bad = text.replace("[S,tau] = h*S", "[S,tau] = -h*S")
    assert bad != text
    eng = Engine(parse_presentation(bad), Cutoffs(5, 8))
    ok, failures, _ = eng.check_confluence()
    assert not ok
    assert ("S", "S", "tau") in {f[0] for f in failures}


POLE_IN_A_RULE = """
name pole
[generators]
S odd 1
tau even 1
[relations]
[S,tau] = (1/h)*S
{S,S} = 0
[coproduct]
S = S (x) 1 + 1 (x) S
tau = tau (x) 1 + 1 (x) tau
[counit]
S = 0
tau = 0
[antipode]
S = -S
tau = -tau
"""


def test_structure_constant_with_a_pole_is_refused(tmp_path, capsys):
    # the engine refuses the rule, so no later step sees a pole in a tail
    from hopfforge.cli import main
    from hopfforge.presentation import parse_presentation
    message = "structure constant for (tau,S) has a pole in h"
    with pytest.raises(PresentationError, match=re.escape(message)):
        Engine(parse_presentation(POLE_IN_A_RULE), Cutoffs(4, 6))
    path = tmp_path / "pole.hopf"
    path.write_text(POLE_IN_A_RULE)
    assert main(["check", "hopf", str(path)]) == 2
    out = capsys.readouterr()
    assert not out.out and message in out.err


# ----------------------------------------------------------------- evaluation

def test_expression_evaluation_deferred_division():
    eng = Engine(load_presentation("d1_variety"), Cutoffs(6, 8))
    el = eng.evaluate(parse_expr_text("2*(mu/theta)*sinh(theta*T/2)"))
    c1 = el.coefficient((0, 0, 0, 1))
    c3 = el.coefficient((0, 0, 0, 3))
    assert c1.coeff(0).terms == {(("mu", 1),): F(1)}
    assert c3.coeff(0).terms == {(("mu", 1), ("theta", 2)): F(1, 24)}


def test_a_series_of_a_word_above_w_is_its_constant_term():
    # the word prune of the evaluator's products drops T^11 at W = 10 before
    # the series sees it, so no argument error: exp gives its constant term 1
    # and sinh gives 0, as when every term of the series lies above W
    eng = Engine(load_presentation("ptsa_q"), Cutoffs(6, 10))
    got = eng.evaluate(parse_expr_text("exp(h*T^11)"))
    unit = (0,) * eng.n
    assert got.terms.keys() == {unit}
    assert repr(got.terms[unit]) == "1 + O(h^7)"
    assert eng.evaluate(parse_expr_text("sinh(h*T^11)")).is_zero()


def test_rewrite_is_cutoff_capped(sd):
    iT = 3
    el = sd.normal_form((iT,) * 12)  # central degree 12 exceeds W=10
    assert el.is_zero()
    el2 = sd.normal_form((2, 2))  # S*S rewrites below the cutoff, survives
    assert not el2.is_zero()


def test_multiply_rejects_an_element_of_another_engine(brst, sd):
    with pytest.raises(PresentationError, match="leg mismatch"):
        brst.multiply(brst.generator("xi"), sd.generator("xi"))
    with pytest.raises(PresentationError, match="leg mismatch"):
        sd.multiply(brst.generator("xi"), brst.generator("xi"))
