"""The parameterized families as first-class objects: instantiation, limits,
the flow field, and every stated inter-family relation.

Every check compares ``structure()`` extractions label by label with
``differences()``: the bracket of each generator pair, then each generator's
coproduct, counit and antipode, at a point, a limit or the first h-order.

The h -> 1 endpoint cannot be reached inside truncated series, so that check
evaluates sd_line's expressions with ``Engine._eval`` in the exact domain
``AtH1``: h becomes 1, sinh(h) the symbol sinh(1), and a factor (1-h) zero.
"""

from __future__ import annotations

from fractions import Fraction

from .bialgebra import compare_bialgebras, from_family
from .hopf import differences, structure, verify_hopf
from .lang import HVar
from .pbw import Cutoffs, shared_engine
from .presentation import HopfPresentation, PresentationError, load_presentation
from .report import PASS, VerificationReport
from .scalars import Scalar
from .tensors import evaluate_tensor, tensor_of

__all__ = ["FAMILY_IDS", "instantiate", "structure", "differences", "structural_compare",
           "compare_limit_with", "verify_h1_limit", "verify_deforming_field",
           "verify_newquant_consistency", "verify_alpha_arbitrariness",
           "verify_family_relations"]

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


class AtH1:
    """An exact value q * sinh(1)^p at h = 1, q rational: the coefficient
    domain in which ``Engine._eval`` takes an expression to h = 1.

    sinh(h) becomes the symbol sinh(1), and a factor (1-h) zero.  A series
    function of another nonzero value, a sum of two powers of sinh(1), a
    denominator that vanishes at h = 1 and a sinh(1) left in a final
    coefficient raise NotClosedForm.
    """

    __slots__ = ("q", "p")

    def __init__(self, q, p: int = 0):
        self.q = Fraction(q)
        self.p = p if q else 0

    @staticmethod
    def from_fraction(q) -> "AtH1":
        return AtH1(q)

    @staticmethod
    def h() -> "AtH1":
        return AtH1(1)

    @staticmethod
    def param(name: str):
        raise NotClosedForm(f"free parameter {name} at h=1")

    @staticmethod
    def series(fn: str, arg: "AtH1", order: int) -> "AtH1":
        if arg.p:
            raise NotClosedForm("series function of a sinh(1)-carrying argument")
        if not arg.q:
            return AtH1(0 if fn == "sinh" else 1)
        if fn == "sinh" and arg.q == 1:
            return AtH1(1, 1)
        raise NotClosedForm(f"{fn}({arg.q}) at h=1 is not rational")

    @staticmethod
    def from_scalar(s: Scalar) -> "AtH1":
        if s.exponents() not in ([], [0]) or s.names():
            raise NotClosedForm(f"coefficient {s!r} depends on h or a parameter at h=1")
        return AtH1(s.coeff(0).constant)

    def to_scalar(self, order: int) -> Scalar:
        if self.p:
            raise NotClosedForm(f"sinh(1)^{self.p} survives in a coefficient at h=1")
        return Scalar.from_fraction(self.q, trunc=order)

    def is_zero(self) -> bool:
        return not self.q

    def truncate(self, order) -> "AtH1":
        return self

    def __neg__(self) -> "AtH1":
        return AtH1(-self.q, self.p)

    def __add__(self, other: "AtH1") -> "AtH1":
        if self.q and other.q and self.p != other.p:
            raise NotClosedForm("sum mixes sinh(1) powers at h=1")
        return AtH1(self.q + other.q, self.p or other.p)

    def __mul__(self, other: "AtH1") -> "AtH1":
        return AtH1(self.q * other.q, self.p + other.p)

    def div(self, other: "AtH1") -> "AtH1":
        if not other.q:
            raise NotClosedForm("division by a factor vanishing at h=1")
        return AtH1(self.q / other.q, self.p - other.p)


def verify_h1_limit(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """sd_line at h = 1, factor by factor, against the shipped endpoint."""
    with VerificationReport.timed("limit-h1", "sd_line -> h1_point", cutoffs.as_dict()) as rep:
        line = load_presentation("sd_line")
        teng = shared_engine(load_presentation("h1_point"), cutoffs)
        want = _brackets_and_coproducts(structure(teng))
        got = {f"coproduct of {g}": evaluate_tensor(
            teng, line.structure_map("coproduct", g), domain=AtH1) for g in teng.gen_names}
        for i, a in enumerate(teng.gen_names):
            for b in teng.gen_names[i:]:
                rel = line.bracket(a, b)
                if rel is not None:
                    # compare in the orientation the relation was written in
                    got[f"bracket ({a},{b})"] = teng.evaluate(rel.rhs, AtH1)
                    want[f"bracket ({a},{b})"] = teng.graded_commutator(rel.a, rel.b)
        _judge(rep, differences(got, want, "at h=1"),
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
