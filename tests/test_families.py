import re
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfforge import presentation
from hopfforge.families import (NotClosedForm, _h1_differences, at_h1, compare_limit_with,
                                differences, h1_engine, instantiate, structural_compare,
                                structure,
                                verify_alpha_arbitrariness, verify_deforming_field,
                                verify_family_relations, verify_h1_limit,
                                verify_newquant_consistency)
from hopfforge.lang import (Add, Div, HVar, Mul, Neg, Num, Param, Pow, ast_map,
                            parse_expr_text)
from hopfforge.pbw import Cutoffs, Engine
from hopfforge.presentation import load_presentation, parse_presentation
from hopfforge.scalars import Scalar
from hopfforge.tensors import tensor_of

CUT = Cutoffs(6, 10)


def test_sd_hp_at_line_point_equals_sd_line():
    bound = instantiate("sd_hp", {"p": "1-h", "alpha": 2})
    assert structural_compare(bound, load_presentation("sd_line"), CUT) == []


def test_variety_boundary_value_is_the_line():
    bound = instantiate("variety_3d", {"mu": 1, "theta": 1})
    assert structural_compare(bound, load_presentation("sd_line"), CUT) == []


def test_trivial_point_shared_by_both_varieties():
    p0 = instantiate("d0_variety", {"mu": 0, "theta": 0})
    p1 = instantiate("d1_variety", {"mu": 0, "theta": 0})
    assert structural_compare(p0, p1, CUT) == []
    eng = Engine(p0, CUT)
    for a in p0.gen_names():
        for b in p0.gen_names():
            assert eng.graded_commutator(a, b).is_zero()


def test_missing_binding_keeps_symbolic_parameter():
    bound = instantiate("d0_variety", {"mu": 1})
    assert bound.params == ("theta",)


def test_limit_h0_of_line_is_endpoint():
    r = compare_limit_with("sd_line", "h0_point", CUT)
    assert r.status == "pass", r.text()


def test_limit_h0_values():
    eng = Engine(load_presentation("sd_line"), CUT)
    limit = structure(eng, lambda c: c.substitute(h_to_zero=True))
    # {S,S} -> 2T, [tau,xi] -> 0, Delta tau -> ... + xi (x) xi
    iT = eng.presentation.gen_index("T")
    ss = limit["bracket (S,S)"]
    mono = tuple(1 if i == iT else 0 for i in range(eng.n))
    assert ss.coefficient(mono) == Scalar.from_fraction(2)
    assert limit["bracket (xi,tau)"].is_zero()
    ixi = eng.presentation.gen_index("xi")
    xi_m = tuple(1 if i == ixi else 0 for i in range(eng.n))
    assert limit["coproduct of tau"].coefficient((xi_m, xi_m)) == Scalar.one()


def test_limit_h0_pole_rejected():
    # a pole in a structure constant is refused before any limit is attempted
    from hopfforge.presentation import PresentationError
    bad = """
name bad
[generators]
T even 1
[relations]
[coproduct]
T = T (x) 1 + 1 (x) T + (1/sinh(h))*T (x) T
[counit]
T = 0
[antipode]
T = -T
"""
    with pytest.raises(PresentationError):
        structure(Engine(parse_presentation(bad), CUT), lambda c: c.substitute(h_to_zero=True))


def test_limit_h0_of_a_subalgebra_is_not_the_endpoint():
    # ptsa_q has only S and T: the endpoint's brackets and coproducts of xi
    # and tau have nothing to match, so they read as zero
    r = compare_limit_with("ptsa_q", "h0_point", CUT)
    assert r.status == "fail"
    assert r.residual == "bracket (tau,S) at h->0: ((-2) + O(h^7))*xi"


def test_deforming_field_matches_published_flow():
    r = verify_deforming_field(CUT)
    assert r.status == "pass", r.text()


def test_deforming_field_values():
    eng = Engine(load_presentation("variety_3d"), CUT)
    field = structure(eng, lambda c: Scalar.from_poly(c.coeff(1)))
    # {S,xi} first order: mu*T; [tau,xi] first order: -mu*xi (stored orientation)
    iT = eng.presentation.gen_index("T")
    t_m = tuple(1 if i == iT else 0 for i in range(eng.n))
    got = field["bracket (xi,S)"]
    assert got.coefficient(t_m) == Scalar.param("mu")
    # mu -> 0 kills every bracket perturbation
    brackets = [el for label, el in field.items() if label.startswith("bracket")]
    assert len(brackets) == 10
    for el in brackets:
        assert el.substitute({"mu": 0}).is_zero()


def test_structure_labels_in_generator_order():
    labels = list(structure(Engine(load_presentation("h0_point"), CUT)))
    assert labels[:4] == ["bracket (xi,xi)", "bracket (xi,tau)", "bracket (xi,S)",
                          "bracket (xi,T)"]
    assert labels[10:13] == ["coproduct of xi", "counit of xi", "antipode of xi"]
    assert len(labels) == 10 + 4 * 3


def test_differences_moves_by_name_and_reads_missing_as_zero():
    text = (presentation.data_dir() / "h0_point.hopf").read_text()
    order = "xi odd 1\ntau even 1\nS odd 1\nT even 1\n"
    assert order in text
    e1 = Engine(load_presentation("h0_point"), CUT)
    e2 = Engine(parse_presentation(
        text.replace(order, "T even 1\nS odd 1\ntau even 1\nxi odd 1\n")), CUT)
    assert e1.gen_names != e2.gen_names
    want = {
        "element": e1.generator("S"),
        "tensor": tensor_of(e1.generator("S"), e1.generator("T")),
        "scalar": Scalar.from_fraction(2),
        "missing": e1.generator("xi"),
    }
    # the same values on the other engine: only the missing label differs
    got = {"element": e2.generator("S"),
           "tensor": tensor_of(e2.generator("S"), e2.generator("T")),
           "scalar": Scalar.from_fraction(2)}
    assert differences(got, want, "here") == ["missing here: ((-1))*xi"]
    got = {"element": e2.generator("S") + e2.generator("T"),
           "tensor": tensor_of(e2.generator("T"), e2.generator("S")),
           "scalar": Scalar.one(),
           "missing": e2.generator("xi")}
    assert differences(got, want, "here") == [
        "element here: (1)*T",
        "tensor here: (1 + O(h^7))*[T (x) S]",
        "scalar here: (-1)",
    ]


def test_h1_limit_factorwise():
    r = verify_h1_limit(CUT)
    assert r.status == "pass", r.text()


def test_h1_limit_not_closed_form_reported():
    # without a vanishing (1-h) factor the sinh(1) denominator survives and the
    # expression is not closed-form evaluable at h=1
    teng = h1_engine(load_presentation("h1_point"), CUT)
    with pytest.raises(NotClosedForm):
        at_h1(teng, parse_expr_text("h*S - (2*h/sinh(h))*xi*cosh(h*T/2)"))
    with pytest.raises(NotClosedForm):
        at_h1(teng, parse_expr_text("xi/sinh(h)"))
    # a denominator that vanishes at h=1 has no value there, even over a
    # vanishing numerator or in a product with one: (1-h)/(1-h) is 1 near h=1
    for text in ("(1-h)/(1-h)", "(1-h)*((1-h)/(1-h))"):
        with pytest.raises(NotClosedForm):
            at_h1(teng, parse_expr_text(text))
    # only sinh(h) itself has a value at h = 1: any other series of a nonzero
    # constant is no closed form, and so is a sinh(1) left in a coefficient;
    # the message names the expression as written
    for text in ("exp(h)", "cosh(h)", "sinh(2*h)", "sinh(h)*xi"):
        with pytest.raises(NotClosedForm, match=re.escape(f"{text} at h=1")):
            at_h1(teng, parse_expr_text(text))
    # while the (1-h)-carrying factor evaluates to zero cleanly
    el = at_h1(teng, parse_expr_text("(2*h*(1-h)/sinh(h))*xi*cosh(h*T/2)"))
    assert el.is_zero()
    # and parameters stay symbolic at h = 1
    d1 = h1_engine(load_presentation("d1_variety"), CUT)
    assert at_h1(d1, parse_expr_text("mu*h*xi")) == d1.generator("xi").scale(Scalar.param("mu"))


@pytest.mark.parametrize("N,W", [(6, 10), (4, 8), (7, 12)])
def test_variety_3d_at_h1_is_d1_variety_with_symbolic_parameters(N, W):
    endpoint = Engine(load_presentation("d1_variety"), Cutoffs(N, W))
    assert _h1_differences(load_presentation("variety_3d"), endpoint) == []


def test_a_bound_family_is_compared_at_h1_with_its_bindings():
    # the widened engine binds the family's parameters, each taken at h = 1
    endpoint = Engine(load_presentation("h1_point"), CUT)
    assert _h1_differences(instantiate("variety_3d", {"mu": 1, "theta": 1}), endpoint) == []
    assert _h1_differences(instantiate("variety_3d", {"mu": 1, "theta": 2}), endpoint) == [
        "bracket (xi,S) at h=1: (1/8 + O(h^7))*T^3",
        "coproduct of S at h=1: (1/2 + O(h^7))*[T (x) S]"]
    # a binding that reads h is evaluated at h = 1 too: theta = 2 - h is 1 there
    assert _h1_differences(instantiate("variety_3d", {"mu": 1, "theta": "2 - h"}),
                           endpoint) == []


def test_the_h1_comparison_catches_a_mutated_d1_variety():
    # a hand-made mutant that no report catches through the other families
    old = "{S,xi} = 2*(mu/theta)*sinh(theta*T/2)"
    text = (DATA / "d1_variety.hopf").read_text()
    assert text.count(old) == 1
    mutant = parse_presentation(text.replace(old, "{S,xi} = 3*2*(mu/theta)*sinh(theta*T/2)"))
    assert _h1_differences(load_presentation("variety_3d"), Engine(mutant, CUT)) == [
        "bracket (xi,S) at h=1: ((-2*mu) + O(h^7))*T"]


def test_newquant_consistency():
    r = verify_newquant_consistency(CUT)
    assert r.status == "pass", r.text()


def test_theta_substitution_matches_newquant_structurally():
    v3 = load_presentation("variety_3d").bind({"theta": HVar()})
    assert structural_compare(v3, load_presentation("newquant"), CUT) == []


def test_alpha_stays_arbitrary():
    r = verify_alpha_arbitrariness(Cutoffs(5, 8))
    assert r.status == "pass"


@pytest.mark.parametrize("family,point", [
    ("sd_hp", {"p": F(1, 2), "alpha": 2}),
    ("d0_variety", {"mu": 1, "theta": F(1, 3)}),
    ("d1_variety", {"mu": 1, "theta": 2}),
    ("variety_3d", {"mu": F(2, 3), "theta": 1}),
    ("newquant", {"mu": 1}),
])
def test_rational_points_are_hopf(family, point):
    from hopfforge.hopf import verify_hopf
    pres = instantiate(family, point)
    r = verify_hopf(pres, Cutoffs(5, 8))
    assert r.status == "pass", r.text()


DATA = Path(presentation.__file__).parent / "data"
LINE = "sd_hp(p=1-h, alpha=2) == sd_line"
VARIETY = "variety_3d(mu=1, theta=1) == sd_line"


@pytest.mark.parametrize("family,old,new,failing", [
    ("sd_line", "{S,xi} = 2*sinh(h*T/2)", "{S,xi} = 2*sinh(h*T/2) + h*T",
     {LINE, VARIETY, "limit-h1"}),
    ("sd_line", "[tau,xi] = h*xi", "[tau,xi] = 2*h*xi", {LINE, VARIETY, "limit-h1"}),
    ("variety_3d", "{S,xi} = 2*(mu/theta)*sinh(h*theta*T/2)",
     "{S,xi} = 2*(mu/theta)*sinh(h*theta*T/2) + h*mu*theta*T",
     {VARIETY, "deforming-field", "newquant-consistency"}),
    ("newquant", "{S,xi} = 2*(mu/h)*sinh(h^2*T/2)", "{S,xi} = 2*(mu/h)*sinh(h^2*T/2) + h*T",
     {"newquant-consistency"}),
    ("h1_point", "{S,xi} = 2*sinh(T/2)", "{S,xi} = 2*sinh(T/2) + T", {"limit-h1"}),
    ("h0_point", "{S,S} = 2*T", "{S,S} = 3*T", {"limit-h0"}),
    # first-order entries that only a diagonal rescaling would map back
    ("d0_variety", "{S,S} = 2*mu*T", "{S,S} = 3*mu*T", {"newquant-consistency"}),
    ("d0_variety", "tau = tau (x) 1 + 1 (x) tau + theta*xi (x) xi",
     "tau = tau (x) 1 + 1 (x) tau - theta*xi (x) xi", {"newquant-consistency"}),
])
def test_family_checks_catch_a_one_line_mutation(tmp_path, monkeypatch, family, old, new,
                                                 failing):
    files = sorted(DATA.glob("*.hopf"))
    assert len(files) == 12
    for src in files:
        lines = src.read_text().splitlines(keepends=True)
        if src.stem == family:
            at = [i for i, line in enumerate(lines) if line.rstrip("\n") == old]
            assert len(at) == 1, (family, old)
            lines[at[0]] = new + "\n"
        (tmp_path / src.name).write_text("".join(lines))
    monkeypatch.setenv("HOPFFORGE_DATA_DIR", str(tmp_path))
    reports = verify_family_relations(Cutoffs(5, 8))
    assert len(reports) == 8
    failed = {r.target if r.check == "family-instantiation" else r.check
              for r in reports if r.status == "fail"}
    assert failed == failing
    assert all(r.status == "pass" for r in reports if r.status != "fail")


def test_structural_compare_reports_differences():
    p1 = load_presentation("sd_line")
    p2 = load_presentation("sd_reference")
    diffs = structural_compare(p1, p2, Cutoffs(4, 8))
    assert any("(xi,tau)" in d or "(tau,xi)" in d for d in diffs)


# ------------------------------------------- evaluation at h = 1, against sympy

H = sympy.Symbol("h")

# rational expressions in h, with no series function
rational_in_h = st.recursive(
    st.one_of(st.integers(-3, 3).map(lambda v: Num(F(v))), st.just(HVar())),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(Div, sub, sub)),
    max_leaves=10)


def to_sympy(node, poles: list):
    """The node as a sympy expression in h; appends to ``poles`` the first
    denominator sub-expression found that vanishes at h = 1."""
    if isinstance(node, Num):
        return sympy.Rational(node.value.numerator, node.value.denominator)
    if isinstance(node, HVar):
        return H
    if isinstance(node, Neg):
        return -to_sympy(node.arg, poles)
    if isinstance(node, Pow):
        return to_sympy(node.base, poles) ** node.exp
    if isinstance(node, Div):
        num, den = to_sympy(node.num, poles), to_sympy(node.den, poles)
        if not poles and den.subs(H, 1) == 0:
            poles.append(den)
        return num / den
    if isinstance(node, Add):
        return sympy.Add(*(to_sympy(t, poles) for t in node.terms))
    return sympy.Mul(*(to_sympy(f, poles) for f in node.factors))


@settings(max_examples=300, deadline=None)
@given(rational_in_h)
def test_h1_domain_matches_sympy_at_h_equal_1(node):
    teng = h1_engine(load_presentation("h1_point"), CUT)
    poles = []
    expr = to_sympy(node, poles)
    if poles:
        with pytest.raises(NotClosedForm):
            at_h1(teng, node)
        return
    want = expr.subs(H, 1)
    got = at_h1(teng, node)
    unit = (0,) * teng.n
    assert set(got.terms) <= {unit}
    c = got.terms.get(unit, Scalar.zero())
    assert c.exponents() in ([], [0])
    assert c.coeff(0).constant == F(int(want.p), int(want.q))


# ------------------------------------------------- binding after evaluation

def _substituted_first(family_id: str, point: dict):
    """The family with its parameters replaced in the expression trees before
    anything is evaluated: the reference a binding must agree with away from
    a singular point."""
    pres = load_presentation(family_id)

    def sub(node):
        return Num(F(point[node.name])) if isinstance(node, Param) and node.name in point else node

    return presentation.validate(replace(
        pres, params=tuple(p for p in pres.params if p not in point),
        relations=tuple(replace(r, rhs=ast_map(r.rhs, sub)) for r in pres.relations),
        **{which: tuple((g, ast_map(e, sub)) for g, e in getattr(pres, which))
           for which in ("coproduct", "counit", "antipode")}))


def test_binding_moves_the_names_and_rewrites_no_expression():
    pres = load_presentation("d1_variety")
    bound = instantiate("d1_variety", {"mu": 1, "theta": 0})
    assert bound.params == () and [n for n, _ in bound.bindings] == list(pres.params)
    assert (bound.relations, bound.coproduct) == (pres.relations, pres.coproduct)


def test_removable_singularity_takes_its_limit():
    # {S,xi} = 2*(mu/theta)*sinh(theta*T/2) tends to mu*T as theta -> 0
    cut = Cutoffs(6, 10)
    symbolic = Engine(load_presentation("d1_variety"), cut).graded_commutator("S", "xi")
    bound = Engine(instantiate("d1_variety", {"mu": 1, "theta": 0}), cut)
    got = bound.graded_commutator("S", "xi")
    assert got == symbolic.substitute({"mu": 1, "theta": 0}).moved_to(bound)
    assert got == bound.generator("T")


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["d1_variety", "variety_3d"]),
       mu=st.fractions(min_value=-3, max_value=3, max_denominator=4),
       theta=st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
def test_binding_agrees_with_substituting_first(family, mu, theta):
    cut = Cutoffs(4, 8)
    point = {"mu": mu, "theta": theta}
    bound = structure(Engine(instantiate(family, point), cut))
    reference = structure(Engine(_substituted_first(family, point), cut))
    assert differences(bound, reference, f"at {point}") == []


def test_pole_valued_binding_is_rejected():
    with pytest.raises(presentation.PresentationError, match="alpha"):
        Engine(instantiate("sd_hp", {"alpha": "1/h"}), CUT)
