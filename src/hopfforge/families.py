"""The parameterized families as first-class objects: instantiation, limits,
the flow field, and every stated inter-family relation.

The h -> 1 endpoint cannot be reached inside truncated series, so that check
walks the expression trees instead: pure polynomials in h evaluate exactly at
h = 1, sinh(h) survives only inside factors that a vanishing (1-h) kills, and
series arguments h*T/2 become exact rational T-series.
"""

from __future__ import annotations

from fractions import Fraction

from .bialgebra import compare_bialgebras, from_family
from .hopf import HopfOps, verify_hopf, _first_residual_element, _first_residual_tensor
from .lang import (Add, Div, Gen, HVar, Mul, Neg, Node, Num, Param, Pow,
                   SeriesCall, Tensor, ast_atoms, ast_map)
from .pbw import Cutoffs, Engine, PbwElement
from .presentation import HopfPresentation, PresentationError, load_presentation
from .report import FAIL, PASS, Timer, VerificationReport
from .scalars import Scalar
from .tensors import TensorElement

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
        from .tensors import tensor_of
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


def _h1_scalar(node: Node):
    """Value of a pure-scalar expression at h = 1 as (q, sinh(1)-power)."""
    if isinstance(node, Num):
        return node.value, 0
    if isinstance(node, HVar):
        return Fraction(1), 0
    if isinstance(node, Param):
        raise NotClosedForm(f"free parameter {node.name} at h=1")
    if isinstance(node, Neg):
        q, s = _h1_scalar(node.arg)
        return -q, s
    if isinstance(node, Pow):
        q, s = _h1_scalar(node.base)
        return q ** node.exp, s * node.exp
    if isinstance(node, Mul):
        q, s = Fraction(1), 0
        for f in node.factors:
            fq, fs = _h1_scalar(f)
            q, s = q * fq, s + fs
            if q == 0:
                return Fraction(0), 0
        return q, s
    if isinstance(node, Div):
        nq, ns = _h1_scalar(node.num)
        if nq == 0:
            return Fraction(0), 0
        dq, ds = _h1_scalar(node.den)
        if dq == 0:
            raise NotClosedForm("division by a factor vanishing at h=1")
        return nq / dq, ns - ds
    if isinstance(node, Add):
        vals = [_h1_scalar(tm) for tm in node.terms]
        vals = [(q, s) for q, s in vals if q != 0]
        if not vals:
            return Fraction(0), 0
        if len({s for _, s in vals}) > 1:
            raise NotClosedForm("sum mixes sinh(1) powers at h=1")
        return sum(q for q, _ in vals), vals[0][1]
    if isinstance(node, SeriesCall):
        # pure-h argument: sinh(0) = 0, exp(0) = cosh(0) = 1, sinh(1) symbolic
        q, s = _h1_scalar(node.arg)
        if s != 0:
            raise NotClosedForm("series function of a sinh(1)-carrying argument")
        if q == 0:
            return (Fraction(0), 0) if node.fn == "sinh" else (Fraction(1), 0)
        if node.fn == "sinh" and q == 1:
            return Fraction(1), -1
        raise NotClosedForm(f"{node.fn}({q}) at h=1 is not rational")
    raise NotClosedForm(f"cannot evaluate {node!r} at h=1")


def _is_scalar_ast(node: Node) -> bool:
    return not any(isinstance(a, (Gen, Tensor)) for a in ast_atoms(node))


def _subst_h1(node: Node) -> Node:
    return ast_map(node, lambda n: Num(Fraction(1)) if isinstance(n, HVar) else n)


def _flatten_mul(node: Node, inverted: bool = False):
    """Multiplicative atoms of nested products/quotients, order preserved."""
    if isinstance(node, Mul):
        out = []
        for f in node.factors:
            out.extend(_flatten_mul(f, inverted))
        return out
    if isinstance(node, Div):
        return _flatten_mul(node.num, inverted) + _flatten_mul(node.den, not inverted)
    return [(node, inverted)]


def _h1_element(eng: Engine, node: Node) -> PbwElement:
    """Evaluate a relation rhs at h = 1 in an h-free target engine."""
    if isinstance(node, Add):
        out = eng.zero()
        for tm in node.terms:
            out = out + _h1_element(eng, tm)
        return out
    if isinstance(node, Neg):
        return -_h1_element(eng, node.arg)
    if _is_scalar_ast(node):
        q, s = _h1_scalar(node)
        if q == 0:
            return eng.zero()
        if s != 0:
            raise NotClosedForm(f"sinh(1)^{-s} survives in a scalar term")
        return eng.one().scale(q)
    if isinstance(node, (Mul, Div)):
        scal_q, scal_s = Fraction(1), 0
        gen_factors = []
        for f, inverted in _flatten_mul(node):
            if _is_scalar_ast(f):
                q, s = _h1_scalar(f)
                if inverted:
                    if q == 0:
                        raise NotClosedForm("division by a factor vanishing at h=1")
                    scal_q /= q
                    scal_s -= s
                else:
                    scal_q *= q
                    scal_s += s
            else:
                if inverted:
                    raise NotClosedForm("division by a generator expression")
                gen_factors.append(f)
        if scal_q == 0:
            return eng.zero()
        if scal_s != 0:
            raise NotClosedForm("sinh(1) survives against a nonvanishing factor")
        out = eng.one().scale(scal_q)
        for f in gen_factors:
            out = eng.multiply(out, eng.evaluate(_subst_h1(f)))
        return out
    # bare generator or series factor
    return eng.evaluate(_subst_h1(node))


def _h1_tensor(eng: Engine, node: Node) -> TensorElement:
    if isinstance(node, Add):
        out = TensorElement.zero((eng, eng))
        for tm in node.terms:
            out = out + _h1_tensor(eng, tm)
        return out
    if isinstance(node, Neg):
        return -_h1_tensor(eng, node.arg)
    if isinstance(node, Tensor):
        from .tensors import tensor_of
        return tensor_of(*(_h1_element(eng, l) for l in node.legs))
    if isinstance(node, Mul):
        tensors = [f for f in node.factors if any(isinstance(a, Tensor) for a in ast_atoms(f))]
        scalars = [f for f in node.factors if f not in tensors]
        if len(tensors) != 1:
            raise NotClosedForm("expected scalar * tensor at h=1")
        q, s = Fraction(1), 0
        for f in scalars:
            fq, fs = _h1_scalar(f)
            q, s = q * fq, s + fs
        if q == 0:
            return TensorElement.zero((eng, eng))
        if s != 0:
            raise NotClosedForm("sinh(1) survives in a coproduct coefficient")
        return _h1_tensor(eng, tensors[0]).scale(q)
    raise NotClosedForm(f"cannot evaluate {node!r} as a tensor at h=1")


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
                    got = _h1_element(teng, rel.rhs)
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
                got = _h1_tensor(teng, line.structure_map("coproduct", g))
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
