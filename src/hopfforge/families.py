"""The parameterized families as first-class objects: instantiation, limits,
the flow field, and every stated inter-family relation.

Every check compares ``structure()`` extractions label by label with
``differences()``: the bracket of each generator pair, then each generator's
coproduct, counit and antipode, at a point, a limit or the first h-order.

The h -> 1 endpoint cannot be reached inside truncated series, so that check
rewrites sd_line's expressions before evaluating them (``at_h1``): h becomes
1, and sinh(h) a parameter that stands for the indeterminate sinh(1), so a
factor (1-h) is zero.  The engine's own Scalars do the arithmetic, with the
family's parameters symbolic.  A residual there is a polynomial in sinh(1)
and the parameters, and since sinh(1) is transcendental (Hermite, 1873: e
would be a root of x^2 - 2*sinh(1)*x - 1), it vanishes only as the zero
polynomial.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .bialgebra import compare_bialgebras, from_family
from .hopf import differences, structure, verify_hopf
from .lang import HVar, Node, Num, Param, SeriesCall, ast_map, expr_to_text
from .pbw import Cutoffs, Engine, shared_engine
from .presentation import HopfPresentation, PresentationError, load_presentation
from .report import PASS, VerificationReport
from .scalars import Scalar
from .tensors import evaluate_tensor, tensor_of

__all__ = ["FAMILY_IDS", "instantiate", "structure", "differences", "structural_compare",
           "compare_limit_with", "NotClosedForm", "h1_engine", "at_h1", "verify_h1_limit",
           "verify_deforming_field", "verify_newquant_consistency",
           "verify_alpha_arbitrariness", "verify_family_relations"]

FAMILY_IDS = ("sd_hp", "sd_line", "d0_variety", "d1_variety", "variety_3d",
              "newquant", "h0_point", "h1_point")

DEFAULTS = {"sd_hp": {"alpha": 2}}


def instantiate(family_id: str, bindings: dict | None = None,
                name: str | None = None) -> HopfPresentation:
    """Load a family file and bind parameters (expressions allowed)."""
    if family_id not in FAMILY_IDS:
        raise PresentationError(f"unknown family {family_id!r}")
    pres = load_presentation(family_id)
    merged = dict(DEFAULTS.get(family_id, {}))
    merged.update(bindings or {})
    if not merged:
        return pres
    return pres.bind(merged, name=name or f"{family_id}@bound")


# ------------------------------------------------------------------ comparison

def _brackets_and_coproducts(data: dict) -> dict:
    return {label: v for label, v in data.items()
            if label.startswith(("bracket", "coproduct"))}


def _judge(rep: VerificationReport, diffs: list, *passed: str) -> None:
    """Fail ``rep`` on the first of ``diffs`` and list them all, or give it
    the ``passed`` details."""
    if diffs:
        rep.fail(diffs[0])
    rep.details += diffs or passed


def structural_compare(p1: HopfPresentation, p2: HopfPresentation,
                       cutoffs: Cutoffs = Cutoffs()):
    """Engine-level equality of two presentations; returns list of differences."""
    if p1.gen_names() != p2.gen_names():
        return [f"generator lists differ: {p1.gen_names()} vs {p2.gen_names()}"]
    diffs = []
    if tuple(sorted(p1.params)) != tuple(sorted(p2.params)):
        diffs.append(f"parameter lists differ: {p1.params} vs {p2.params}")
    return diffs + differences(structure(shared_engine(p1, cutoffs)),
                               structure(shared_engine(p2, cutoffs)), "differs")


# ------------------------------------------------------------------- h -> 0

def compare_limit_with(family_id: str, target_id: str,
                       cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """A family's structure at h -> 0 versus a shipped h-free presentation."""
    with VerificationReport.timed("limit-h0", f"{family_id} -> {target_id}",
                                  cutoffs.as_dict()) as rep:
        pres = instantiate(family_id) if family_id in DEFAULTS else load_presentation(family_id)
        limit = structure(shared_engine(pres, cutoffs), lambda c: c.substitute(h_to_zero=True))
        target = structure(shared_engine(load_presentation(target_id), cutoffs))
        _judge(rep, differences(limit, target, "at h->0"),
               "all brackets and coproducts match the endpoint")
    return rep


# ------------------------------------------------------------- the flow field

def verify_deforming_field(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """The 3-dimensional variety's first-order field versus the published one."""
    with VerificationReport.timed("deforming-field", "variety_3d at h=0",
                                  cutoffs.as_dict()) as rep:
        eng = shared_engine(load_presentation("variety_3d"), cutoffs)
        field = structure(eng, lambda c: Scalar.from_poly(c.coeff(1)))
        mu = Scalar.param("mu")
        theta = Scalar.param("theta")
        g = eng.generator
        # zero but for the published terms; labels follow generator order
        # (xi < tau < S < T)
        want = {label: v.scale(0) for label, v in _brackets_and_coproducts(field).items()}
        want.update({
            "bracket (tau,S)": (g("S") + g("xi").scale(2)).scale(-mu),  # [tau,S] = -[S,tau]
            "bracket (xi,tau)": g("xi").scale(-mu),                     # [xi,tau] = -[tau,xi]
            "bracket (S,S)": g("T").scale(mu * (-2)),
            "bracket (xi,S)": g("T").scale(mu),                         # {xi,S} = {S,xi}
            "coproduct of S": (tensor_of(g("T"), g("S")) - tensor_of(g("S"), g("T")))
            .scale(theta * Fraction(1, 2)),
            "coproduct of tau": tensor_of(g("xi"), g("xi")).scale(-theta),
        })
        _judge(rep, differences(field, want, "at first order"),
               "field matches the published first-order flow term for term")
    return rep


# ----------------------------------------------------------------- h -> 1

class NotClosedForm(PresentationError):
    pass


SINH1 = "sinh(1)"  # a parameter name that no presentation file can declare


def h1_engine(endpoint: HopfPresentation, cutoffs: Cutoffs, bindings: tuple = ()) -> Engine:
    """An engine on ``endpoint`` with one more parameter, ``SINH1``, that
    stands for the indeterminate sinh(1), and with ``bindings``, a bound
    family's ((parameter, Node), ...), bound at h = 1: the engine ``at_h1``
    evaluates in."""
    at = tuple((name, ast_map(node, _h_to_1)) for name, node in bindings)
    return Engine(replace(endpoint, params=endpoint.params + (SINH1,),
                          bindings=endpoint.bindings + at), cutoffs)


def _h_to_1(node: Node) -> Node:
    if isinstance(node, HVar):
        return Num(Fraction(1))
    if node == SeriesCall("sinh", Num(Fraction(1))):
        return Param(SINH1)
    return node


def at_h1(engine: Engine, node: Node, legs: int | None = None):
    """The value of ``node`` at h = 1 in an ``h1_engine``, as a PbwElement, or
    a TensorElement with ``legs`` set.

    h becomes 1 and sinh(h) the parameter ``SINH1``, so a factor (1-h) is
    zero.  Any other series function of a nonzero constant, a division that
    is undefined at h = 1 and a sinh(1) left in the value raise NotClosedForm.
    """
    at = ast_map(node, _h_to_1)
    try:
        value = engine.evaluate(at) if legs is None else evaluate_tensor(engine, at, legs)
    except PresentationError as e:
        raise NotClosedForm(f"{expr_to_text(node)} at h=1: {e}") from None
    if any(SINH1 in c.names() for c in value.terms.values()):
        raise NotClosedForm(f"{expr_to_text(node)} at h=1: sinh(1) survives in a coefficient")
    return value


def _h1_differences(family: HopfPresentation, endpoint: Engine) -> list:
    """``family`` at h = 1, factor by factor, against ``endpoint``'s structure."""
    wide = h1_engine(endpoint.presentation, endpoint.cutoffs, family.bindings)
    want = _brackets_and_coproducts(structure(endpoint))
    got = {f"coproduct of {g}": at_h1(wide, family.structure_map("coproduct", g), 2)
           for g in endpoint.gen_names}
    for i, a in enumerate(endpoint.gen_names):
        for b in endpoint.gen_names[i:]:
            rel = family.bracket(a, b)
            if rel is not None:
                # compare in the orientation the relation was written in
                got[f"bracket ({a},{b})"] = at_h1(wide, rel.rhs)
                want[f"bracket ({a},{b})"] = endpoint.graded_commutator(rel.a, rel.b)
    return differences(got, want, "at h=1")


def verify_h1_limit(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """sd_line at h = 1, factor by factor, against the shipped endpoint."""
    with VerificationReport.timed("limit-h1", "sd_line -> h1_point", cutoffs.as_dict()) as rep:
        endpoint = shared_engine(load_presentation("h1_point"), cutoffs)
        _judge(rep, _h1_differences(load_presentation("sd_line"), endpoint),
               "every composition lands on the endpoint: factors carrying (1-h) "
               "vanish, factors carrying h become 1, series arguments h*T/2 become T/2")
    return rep


# ------------------------------------------------------------------- newquant

def verify_newquant_consistency(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    with VerificationReport.timed("newquant-consistency",
                                  "newquant vs variety_3d / d0_variety",
                                  cutoffs.as_dict()) as rep:
        # (a) theta -> h in the 3-dimensional variety reproduces the new quantization
        v3 = load_presentation("variety_3d").bind({"theta": HVar()}, name="variety_3d@theta=h")
        nq = load_presentation("newquant")
        diffs = structural_compare(v3, nq, cutoffs)
        # (b) first-order structures agree with the h->0 variety's
        if not diffs:
            b_nq = from_family("newquant", "mu", "h", h_mode="zero", cutoffs=cutoffs)
            b_d0 = from_family("d0_variety", "mu", "theta", h_mode="zero", cutoffs=cutoffs)
            cmp = compare_bialgebras(b_nq, b_d0)
            diffs = [] if cmp.status == PASS else [cmp.residual]
        # (c) mu -> 0 kills every bracket; coproducts stay those of the double form
        if not diffs:
            want = {label: v.scale(0) if label.startswith("bracket") else v for label, v
                    in _brackets_and_coproducts(structure(shared_engine(nq, cutoffs))).items()}
            flat = shared_engine(nq.bind({"mu": 0}, name="newquant@mu=0"), cutoffs)
            diffs = differences(structure(flat), want, "at mu=0")
        _judge(rep, diffs,
               "variety at theta = h equals the new quantization",
               "first-order structure equals the trivially quantized one (identity rescaling)",
               "mu -> 0 gives a supercommutative algebra with the "
               "group-like coproducts unchanged")
    return rep


def verify_alpha_arbitrariness(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """The rescaling parameter alpha stays symbolic: the axioms hold identically."""
    with VerificationReport.timed("alpha-arbitrariness", "sd_hp (symbolic alpha, p)",
                                  cutoffs.as_dict()) as rep:
        axioms = verify_hopf(load_presentation("sd_hp"), cutoffs)  # alpha, p both symbolic
        if axioms.status != PASS:
            rep.fail(axioms.residual)
        else:
            rep.details.append("Hopf axioms hold as polynomial identities in alpha and p "
                               "(every alpha admissible)")
    return rep


def verify_family_relations(cutoffs: Cutoffs = Cutoffs()):
    """The inter-family identities: boundary values and specializations."""
    reports = []
    sd_line = load_presentation("sd_line")
    trivial = {"mu": 0, "theta": 0}
    for lhs, rhs, target in (
            (instantiate("sd_hp", {"p": "1-h", "alpha": 2}), sd_line,
             "sd_hp(p=1-h, alpha=2) == sd_line"),
            (instantiate("variety_3d", {"mu": 1, "theta": 1}), sd_line,
             "variety_3d(mu=1, theta=1) == sd_line"),
            (instantiate("d0_variety", trivial), instantiate("d1_variety", trivial),
             "d0(0,0) == d1(0,0) (trivial point)")):
        with VerificationReport.timed("family-instantiation", target,
                                      cutoffs.as_dict()) as rep:
            _judge(rep, structural_compare(lhs, rhs, cutoffs))
        reports.append(rep)
    reports.append(compare_limit_with("sd_line", "h0_point", cutoffs))
    reports.append(verify_h1_limit(cutoffs))
    reports.append(verify_deforming_field(cutoffs))
    reports.append(verify_newquant_consistency(cutoffs))
    reports.append(verify_alpha_arbitrariness(cutoffs))
    return reports
