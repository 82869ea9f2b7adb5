"""The parameterized families as first-class objects: instantiation, limits,
the flow field, and every stated inter-family relation.

The h -> 1 endpoint cannot be reached inside truncated series, so that check
evaluates sd_line's expressions with ``Engine._eval`` in the exact domain
``AtH1``: h becomes 1, sinh(h) the symbol sinh(1), and a factor (1-h) zero.
"""

from __future__ import annotations

from fractions import Fraction

from .bialgebra import compare_bialgebras, from_family
from .hopf import HopfOps, verify_hopf, _first_residual_element, _first_residual_tensor
from .lang import HVar
from .pbw import Cutoffs, Engine
from .presentation import HopfPresentation, PresentationError, load_presentation
from .report import FAIL, PASS, Timer, VerificationReport
from .scalars import Scalar
from .tensors import TensorElement, evaluate_tensor, tensor_of

__all__ = ["FAMILY_IDS", "instantiate", "structural_compare", "limit_h0",
           "deforming_field_at_0", "verify_h1_limit", "verify_newquant_consistency",
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

def structural_compare(p1: HopfPresentation, p2: HopfPresentation,
                       cutoffs: Cutoffs = Cutoffs()):
    """Engine-level equality of two presentations; returns list of differences."""
    diffs = []
    if p1.gen_names() != p2.gen_names():
        return [f"generator lists differ: {p1.gen_names()} vs {p2.gen_names()}"]
    if tuple(sorted(p1.params)) != tuple(sorted(p2.params)):
        diffs.append(f"parameter lists differ: {p1.params} vs {p2.params}")
    e1, e2 = Engine(p1, cutoffs), Engine(p2, cutoffs)
    ops1, ops2 = HopfOps(e1), HopfOps(e2)
    names = p1.gen_names()
    for i, a in enumerate(names):
        for b in names[i:]:
            d = e1.graded_commutator(a, b) - e2.graded_commutator(a, b).moved_to(e1)
            if not d.is_zero():
                diffs.append(f"bracket ({a},{b}) differs: {_first_residual_element(d)}")
    for g in names:
        d = ops1.coproduct_gen(g) - ops2.coproduct_gen(g).moved_to((e1, e1))
        if not d.is_zero():
            diffs.append(f"coproduct of {g} differs: {_first_residual_tensor(d)}")
        if not (ops1._eps[g] - ops2._eps[g]).is_zero():
            diffs.append(f"counit of {g} differs")
        da = ops1._anti[g] - ops2._anti[g].moved_to(e1)
        if not da.is_zero():
            diffs.append(f"antipode of {g} differs: {_first_residual_element(da)}")
    return diffs


# ------------------------------------------------------------------- h -> 0

def limit_h0(family_id: str, bindings: dict | None = None,
             cutoffs: Cutoffs = Cutoffs()):
    """Constant terms of all structure data at h -> 0, as comparison data."""
    pres = instantiate(family_id, bindings) if bindings or family_id in DEFAULTS \
        else load_presentation(family_id)
    eng = Engine(pres, cutoffs)
    ops = HopfOps(eng)
    names = pres.gen_names()
    brackets = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            brackets[(a, b)] = eng.graded_commutator(a, b).substitute(h_to_zero=True)
    coproducts = {g: ops.coproduct_gen(g).map_coeffs(
        lambda c: c.substitute(h_to_zero=True)) for g in names}
    antipodes = {g: ops._anti[g].substitute(h_to_zero=True) for g in names}
    return eng, brackets, coproducts, antipodes


def compare_limit_with(family_id: str, target_id: str,
                       cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """limit_h0(family) versus a shipped h-free presentation, element by element."""
    with Timer() as t:
        eng, brackets, coproducts, antipodes = limit_h0(family_id, cutoffs=cutoffs)
        target = load_presentation(target_id)
        teng = Engine(target, cutoffs)
        tops = HopfOps(teng)
        status, residual = PASS, None
        details = []
        for (a, b), el in brackets.items():
            want = teng.graded_commutator(a, b)
            d = el.moved_to(teng) - want
            if not d.is_zero():
                status = FAIL
                residual = f"bracket ({a},{b}) at h->0: {_first_residual_element(d)}"
                break
        if status == PASS:
            for g, tv in coproducts.items():
                want = tops.coproduct_gen(g)
                d = tv.moved_to((teng, teng)) - want
                if not d.is_zero():
                    status = FAIL
                    residual = f"coproduct of {g} at h->0: {_first_residual_tensor(d)}"
                    break
            else:
                details.append("all brackets and coproducts match the endpoint")
    return VerificationReport(
        check="limit-h0", target=f"{family_id} -> {target_id}",
        cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
        status=status, residual=residual, details=details, wall_time=t.elapsed)


# ------------------------------------------------------------- the flow field

def deforming_field_at_0(family_id: str = "variety_3d",
                         cutoffs: Cutoffs = Cutoffs()):
    """First h-derivative of every composition: bracket and coproduct parts."""
    pres = load_presentation(family_id)
    eng = Engine(pres, cutoffs)
    ops = HopfOps(eng)
    names = pres.gen_names()
    brackets = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            el = eng.graded_commutator(a, b).h_coefficient(1)
            if not el.is_zero():
                brackets[(a, b)] = el
    coproducts = {}
    for g in names:
        tv = ops.coproduct_gen(g).map_coeffs(lambda c: Scalar.from_poly(c.coeff(1)))
        if not tv.is_zero():
            coproducts[g] = tv
    return eng, brackets, coproducts


def verify_deforming_field(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """The 3-dimensional variety's first-order field versus the published one."""
    with Timer() as t:
        eng, brackets, coproducts = deforming_field_at_0("variety_3d", cutoffs)
        mu = Scalar.param("mu")
        theta = Scalar.param("theta")
        g = eng.generator
        # stored pair keys follow generator order (xi < tau < S < T)
        want = {
            ("tau", "S"): (g("S") + g("xi").scale(2)).scale(-mu),   # [tau,S] = -[S,tau]
            ("xi", "tau"): g("xi").scale(-mu),                      # [xi,tau] = -[tau,xi]
            ("S", "S"): g("T").scale(mu * (-2)),
            ("xi", "S"): g("T").scale(mu),                          # {xi,S} = {S,xi}
        }
        one = eng.one()
        ts = tensor_of(g("T"), g("S"))
        st = tensor_of(g("S"), g("T"))
        want_cop = {
            "S": (ts - st).scale(theta * Fraction(1, 2)),
            "tau": tensor_of(g("xi"), g("xi")).scale(-theta),
        }
        status, residual = PASS, None
        details = []
        mismatches = []
        for key in set(brackets) | set(want):
            got = brackets.get(key, eng.zero())
            exp = want.get(key, eng.zero())
            d = got - exp
            if not d.is_zero():
                mismatches.append(f"bracket {key}: {_first_residual_element(d)}")
        for gname in set(coproducts) | set(want_cop):
            got = coproducts.get(gname, TensorElement.zero((eng, eng)))
            exp = want_cop.get(gname, TensorElement.zero((eng, eng)))
            d = got - exp
            if not d.is_zero():
                mismatches.append(f"coproduct {gname}: {_first_residual_tensor(d)}")
        if mismatches:
            status = FAIL
            residual = mismatches[0]
            details = mismatches
        else:
            details.append("field matches the published first-order flow term for term")
    return VerificationReport(
        check="deforming-field", target="variety_3d at h=0",
        cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
        status=status, residual=residual, details=details, wall_time=t.elapsed)


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

    # a zero may be a factor such as (1-h) that vanishes at h = 1: 0/0 has no value
    exact_zeros = False

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
    with Timer() as t:
        line = load_presentation("sd_line")
        target = load_presentation("h1_point")
        teng = Engine(target, cutoffs)
        tops = HopfOps(teng)
        status, residual = PASS, None
        details = []
        names = line.gen_names()
        for i, a in enumerate(names):
            for b in names[i:]:
                rel = line.bracket(a, b)
                if rel is None:
                    got = teng.zero()
                    want = teng.graded_commutator(a, b)
                else:
                    # compare in the orientation the relation was written in
                    got = teng.evaluate(rel.rhs, AtH1)
                    want = teng.graded_commutator(rel.a, rel.b)
                d = got - want
                if not d.is_zero():
                    status = FAIL
                    residual = f"bracket ({a},{b}) at h=1: {_first_residual_element(d)}"
                    break
            if status == FAIL:
                break
        if status == PASS:
            for g in names:
                got = evaluate_tensor(teng, line.structure_map("coproduct", g), domain=AtH1)
                want = tops.coproduct_gen(g)
                d = got - want
                if not d.is_zero():
                    status = FAIL
                    residual = f"coproduct of {g} at h=1: {_first_residual_tensor(d)}"
                    break
            else:
                details.append("every composition lands on the endpoint: factors "
                               "carrying (1-h) vanish, factors carrying h become 1, "
                               "series arguments h*T/2 become T/2")
    return VerificationReport(
        check="limit-h1", target="sd_line -> h1_point",
        cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
        status=status, residual=residual, details=details, wall_time=t.elapsed)


# ------------------------------------------------------------------- newquant

def verify_newquant_consistency(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    with Timer() as t:
        status, residual = PASS, None
        details = []
        # (a) theta -> h in the 3-dimensional variety reproduces the new quantization
        v3 = load_presentation("variety_3d").bind({"theta": HVar()}, name="variety_3d@theta=h")
        nq = load_presentation("newquant")
        diffs = structural_compare(v3, nq, cutoffs)
        if diffs:
            status, residual = FAIL, diffs[0]
        else:
            details.append("variety at theta = h equals the new quantization")
        # (b) first-order structures agree with the h->0 variety's
        if status == PASS:
            b_nq = from_family("newquant", "mu", "h", h_mode="zero", cutoffs=cutoffs)
            b_d0 = from_family("d0_variety", "mu", "theta", h_mode="zero", cutoffs=cutoffs)
            cmp = compare_bialgebras(b_nq, b_d0)
            if cmp.status != PASS:
                status, residual = FAIL, cmp.residual
            else:
                details.append("first-order structure equals the trivially "
                               "quantized one (identity rescaling)")
        # (c) mu -> 0 kills every bracket; coproducts stay those of the double form
        if status == PASS:
            flat = nq.bind({"mu": 0}, name="newquant@mu=0")
            eng = Engine(flat, cutoffs)
            for i, a in enumerate(flat.gen_names()):
                for b in flat.gen_names()[i:]:
                    if not eng.graded_commutator(a, b).is_zero():
                        status = FAIL
                        residual = f"bracket ({a},{b}) survives at mu=0"
                        break
            ops_flat = HopfOps(eng)
            eng_nq = Engine(nq, cutoffs)
            ops_nq = HopfOps(eng_nq)
            for g in flat.gen_names():
                d = ops_flat.coproduct_gen(g).moved_to((eng_nq, eng_nq)) - ops_nq.coproduct_gen(g)
                if not d.is_zero():
                    status = FAIL
                    residual = f"coproduct of {g} changed at mu=0"
                    break
            if status == PASS:
                details.append("mu -> 0 gives a supercommutative algebra with the "
                               "group-like coproducts unchanged")
    return VerificationReport(
        check="newquant-consistency", target="newquant vs variety_3d / d0_variety",
        cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
        status=status, residual=residual, details=details, wall_time=t.elapsed)


def verify_alpha_arbitrariness(cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """The rescaling parameter alpha stays symbolic: the axioms hold identically."""
    with Timer() as t:
        pres = load_presentation("sd_hp")  # alpha, p both symbolic
        rep = verify_hopf(pres, cutoffs, audit=False)
        details = ["Hopf axioms hold as polynomial identities in alpha and p "
                   "(every alpha admissible)"] if rep.status == PASS else []
    return VerificationReport(
        check="alpha-arbitrariness", target="sd_hp (symbolic alpha, p)",
        cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
        status=rep.status, residual=rep.residual, details=details,
        wall_time=t.elapsed)


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
        with Timer() as t:
            diffs = structural_compare(lhs, rhs, cutoffs)
        reports.append(VerificationReport(
            check="family-instantiation", target=target,
            cutoffs={"N": cutoffs.h_order, "W": cutoffs.word_degree},
            status=PASS if not diffs else FAIL,
            residual=None if not diffs else diffs[0], wall_time=t.elapsed))
    reports.append(compare_limit_with("sd_line", "h0_point", cutoffs))
    reports.append(verify_h1_limit(cutoffs))
    reports.append(verify_deforming_field(cutoffs))
    reports.append(verify_newquant_consistency(cutoffs))
    reports.append(verify_alpha_arbitrariness(cutoffs))
    return reports
