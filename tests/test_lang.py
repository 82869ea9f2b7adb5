from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge.cli import main
from hopfforge.lang import (Add, Div, Gen, HVar, Mul, Neg, Num, ParseError, Pow,
                            SeriesCall, Tensor, expr_to_text, parse_expr_text)
from hopfforge.presentation import (
    NonCentralSeriesError, ParityMismatchError, PresentationError,
    UnknownGeneratorError, data_dir, emit_presentation, load_presentation,
    parse_presentation,
)

ALL_FILES = [
    "ptsa_q", "brst_q", "brst_q_alpha2", "sd_reference", "sd_hp", "sd_line",
    "h0_point", "d0_variety", "h1_point", "d1_variety", "variety_3d", "newquant",
]


# ------------------------------------------------------------------ expressions

def test_coproduct_expression_parses_to_two_leg_tensor_sum():
    node = parse_expr_text("exp(h*T/2) (x) S + S (x) exp(-h*T/2)")
    assert isinstance(node, Add) and len(node.terms) == 2
    t1, t2 = node.terms
    assert isinstance(t1, Tensor) and len(t1.legs) == 2
    assert isinstance(t1.legs[0], SeriesCall) and t1.legs[0].fn == "exp"
    assert isinstance(t2.legs[1], SeriesCall) and t2.legs[1].fn == "exp"
    assert t2.legs[1] == parse_expr_text("exp(-h*T/2)")


def test_brst_coproduct_tree():
    node = parse_expr_text("tau (x) 1 + 1 (x) tau + (h/sinh(h)) * xi (x) xi")
    assert isinstance(node, Add) and len(node.terms) == 3
    last = node.terms[2]
    assert isinstance(last, Tensor)
    assert isinstance(last.legs[0], Mul)


def test_zero_literal():
    assert parse_expr_text("0") == Num(F(0))


def test_precedence_tensor_binds_tighter_than_sum():
    node = parse_expr_text("a (x) b + c (x) d")
    assert isinstance(node, Add)
    assert all(isinstance(t, Tensor) for t in node.terms)


def test_power_operator():
    node = parse_expr_text("h^2*T/2")
    text = expr_to_text(node)
    assert parse_expr_text(text) == node


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_expr_text("2*(h +")
    assert "line" in str(e.value) or e.value.line is not None


@pytest.mark.parametrize("text", [
    "exp(h*T/2) (x) S + S (x) exp(-h*T/2)",
    "tau (x) 1 + 1 (x) tau + (h/sinh(h)) * xi (x) xi",
    "h*S - (2*h*(1-h)/sinh(h))*xi*cosh(h*T/2)",
    "2*(mu/theta)*sinh(h*theta*T)/sinh(h)",
    "-T",
    "1/2 - 3/4*h^3",
])
def test_expression_text_roundtrip(text):
    node = parse_expr_text(text)
    assert parse_expr_text(expr_to_text(node)) == node


def test_parenthesized_x_is_an_operand():
    # "(x)" is the tensor symbol only after an operand
    assert parse_expr_text("exp(x)") == SeriesCall("exp", Gen("x"))
    assert parse_expr_text("a (x) (x)") == Tensor((Gen("a"), Gen("x")))


def test_unary_minus_keeps_its_argument_whole():
    a, b = Gen("a"), Gen("b")
    for node in (Neg(Mul((a, b))), Neg(Div(a, b)), Neg(Tensor((a, b))),
                 Add((Neg(Mul((a, b))), b))):
        assert parse_expr_text(expr_to_text(node)) == node
    assert expr_to_text(Neg(Mul((a, b)))) == "-(a*b)"
    assert expr_to_text(Add((Neg(a), Neg(Mul((a, b)))))) == "-a - a*b"


# ---------------------------------------------------------------- presentations

@pytest.mark.parametrize("name", ALL_FILES)
def test_roundtrip_all_shipped_files(name):
    p = load_presentation(name)
    assert parse_presentation(emit_presentation(p)) == p


def test_ptsa_file_content():
    p = load_presentation("ptsa_q")
    assert [g.name for g in p.generators] == ["S", "T"]
    assert p.gen("S").parity == 1 and p.gen("T").parity == 0
    rel = p.bracket("S", "S")
    assert rel.kind == "anti"


def test_unknown_generator_rejected():
    text = """
name bad
[generators]
S odd 1
[relations]
{S,S} = xi
[coproduct]
S = S (x) 1 + 1 (x) S
[counit]
S = 0
[antipode]
S = -S
"""
    with pytest.raises(UnknownGeneratorError):
        parse_presentation(text)


def test_parity_mismatch_rejected():
    text = """
name bad
[generators]
S odd 1
T even 1
[relations]
[T,S] = T
[coproduct]
S = S (x) 1 + 1 (x) S
T = T (x) 1 + 1 (x) T
[counit]
S = 0
T = 0
[antipode]
S = -S
T = -T
"""
    with pytest.raises(ParityMismatchError):
        parse_presentation(text)


def test_series_on_non_central_generator_rejected():
    text = """
name bad
[generators]
S odd 1
T even 1
U even 1
[relations]
[T,S] = 0
[U,S] = S
[coproduct]
S = S (x) 1 + 1 (x) S
T = T (x) 1 + 1 (x) T
U = U (x) 1 + 1 (x) U
[counit]
S = 0
T = 0
U = 0
[antipode]
S = -S + sinh(h*U)*S
T = -T
U = -U
"""
    with pytest.raises(NonCentralSeriesError):
        parse_presentation(text)


def test_syntax_error_reports_line():
    text = "name x\n[generators]\nS odd one\n"
    with pytest.raises(ParseError) as e:
        parse_presentation(text)
    assert e.value.line == 3


def test_missing_structure_map_rejected():
    text = """
name bad
[generators]
T even 1
[coproduct]
T = T (x) 1 + 1 (x) T
[counit]
T = 0
[antipode]
"""
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_reserved_h_rejected():
    text = """
name bad
[generators]
h even 1
[coproduct]
h = h (x) 1
[counit]
h = 0
[antipode]
h = -h
"""
    with pytest.raises(PresentationError):
        parse_presentation(text)


def test_bind_parameters_to_expression():
    hp = load_presentation("sd_hp")
    bound = hp.bind({"p": "1-h", "alpha": 2}, name="sd_hp_at_line")
    line = load_presentation("sd_line")
    assert bound.params == ()
    # structural equality is checked at the engine level elsewhere; here the
    # bound file must at least validate and keep the generator list
    assert bound.gen_names() == line.gen_names()


def test_emit_rejects_a_bound_presentation():
    # the file format has no bindings: emitting would drop them
    bound = load_presentation("sd_hp").bind({"alpha": 2})
    with pytest.raises(PresentationError, match="alpha"):
        emit_presentation(bound)


def test_empty_relations_presentation_roundtrip():
    text = """
name freeish
[params]
[generators]
A even 1
[relations]
[coproduct]
A = A (x) 1 + 1 (x) A
[counit]
A = 0
[antipode]
A = -A
"""
    p = parse_presentation(text)
    assert parse_presentation(emit_presentation(p)) == p
    assert p.relations == ()


# --------------------------------------------------------- fuzzed round trips

NAMES = ("S", "T", "xi", "tau", "mu", "theta", "a1", "x")

# Trees in the parser's image: integer literals are non-negative (a minus is
# Neg, a fraction is Div), and a product never starts with a product, since
# the parser flattens a*b*c into one Mul.
def _product(factors):
    head, *rest = factors
    return Mul((head.factors if isinstance(head, Mul) else (head,)) + tuple(rest))


def _compound(sub):
    return st.one_of(
        st.builds(SeriesCall, st.sampled_from(["exp", "sinh", "cosh"]), sub),
        st.builds(Neg, sub),
        st.builds(Add, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.lists(sub, min_size=2, max_size=3).map(_product),
        st.builds(Div, sub, sub),
        st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(Tensor, st.lists(sub, min_size=2, max_size=3).map(tuple)))


parsed_trees = st.recursive(
    st.one_of(st.builds(Num, st.integers(0, 12).map(F)),
              st.builds(Gen, st.sampled_from(NAMES)),
              st.just(HVar())),
    _compound, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(parsed_trees)
def test_fuzzed_expression_roundtrip(node):
    assert parse_expr_text(expr_to_text(node)) == node


SNIPPETS = ("(", ")", "[", "]", "{", "}", ",", "=", "*", "/", "^", "-", "+", " (x) ",
            "h", "0", "1", "sinh(", "exp(", "odd", "even", "\n", "[relations]",
            "[generators]", "xi", "zz", "#", "name")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FILES), st.data())
def test_fuzzed_malformed_files_exit_two(tmp_path_factory, name, data):
    text = (data_dir() / f"{name}.hopf").read_text()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + data.draw(st.sampled_from(SNIPPETS + ("",))) + text[j:]
    try:
        parse_presentation(text)
        malformed = False
    except PresentationError:
        malformed = True
    path = tmp_path_factory.mktemp("fuzz") / "bad.hopf"
    path.write_text(text)
    # any exception escaping main is a traceback for the user
    code = main(["--h-order", "1", "--word-cutoff", "3", "check", "hopf", str(path)])
    assert code in (0, 1, 2)
    if malformed:
        assert code == 2
