"""Hopf structure maps extended from generators, and the axiom certifier.

The coproduct extends as an even algebra homomorphism into the Koszul-signed
tensor square, the counit as an algebra map to scalars, and the antipode as a
graded anti-homomorphism S(xy) = (-1)^{|x||y|} S(y) S(x).  Each is computed
on monomials and cached there; ``tensors.map_legs`` extends it linearly to
elements and to one leg of a tensor.  Both Delta and S of a monomial are one
product with the map of a shorter monomial: Delta(rest*g) = Delta(rest)
Delta(g) for the last letter g, and S(g*rest) = (-1)^{|g||rest|} S(rest) S(g)
for the first letter g, so S of a word is its letters' images multiplied
from the last letter to the first, with one sign per step.  verify_hopf checks,
at the working cutoffs: the maps respect every relation, coassociativity, the
counit axiom, the antipode axiom, and parity preservation.
"""

from __future__ import annotations

from functools import cached_property

from .pbw import Cutoffs, Engine, PbwElement, shared_engine
from .presentation import HopfPresentation, PresentationError
from .report import VerificationReport
from .scalars import Scalar
from .shared import Memo, shared
from .tensors import (TensorElement, evaluate_tensor, graded_commutator, leg_terms, map_legs,
                      tensor_mul)

__all__ = ["HopfOps", "shared_ops", "structure", "differences", "first_residual",
           "verify_hopf"]


class HopfOps:
    """Coproduct / counit / antipode for one presentation at fixed cutoffs."""

    def __init__(self, engine: Engine):
        self.engine = engine
        pres = engine.presentation
        self.presentation = pres
        self._delta = {}
        self._eps = {}
        self._anti = {}
        for name, node in pres.coproduct:
            self._delta[name] = evaluate_tensor(engine, node, legs=2)
        for name, node in pres.counit:
            self._eps[name] = engine.evaluate_scalar(node)
        for name, node in pres.antipode:
            self._anti[name] = engine.evaluate(node)
        self._assert_pole_free()
        unit = (0,) * engine.n
        self._delta_mono_cache = Memo(self._coproduct_of,
                                      {unit: TensorElement.unit((engine, engine))})
        self._anti_mono_cache = Memo(self._antipode_of, {unit: engine.one()})

    def _assert_pole_free(self):
        for name, t in self._delta.items():
            for c in t.terms.values():
                if c.pole_order > 0:
                    raise PresentationError(f"coproduct of {name} has a pole in h")
        for name, c in self._eps.items():
            if c.pole_order > 0:
                raise PresentationError(f"counit of {name} has a pole in h")
        for name, el in self._anti.items():
            for c in el.terms.values():
                if c.pole_order > 0:
                    raise PresentationError(f"antipode of {name} has a pole in h")

    # -- coproduct -------------------------------------------------------------
    def coproduct_gen(self, name: str) -> TensorElement:
        return self._delta[name]

    def coproduct_mono(self, mono) -> TensorElement:
        """Delta of a PBW monomial: the coproduct of its word without the last
        letter times the coproduct of that letter, cached per monomial (the
        unit for the empty word)."""
        return self._delta_mono_cache[mono]

    def _coproduct_of(self, mono) -> TensorElement:
        i = max(j for j, e in enumerate(mono) if e)
        prefix = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        return tensor_mul(self._delta_mono_cache[prefix], self._delta[self.engine.gen_names[i]])

    def coproduct(self, el: PbwElement) -> TensorElement:
        return map_legs(el, 0, 1, lambda m: self.coproduct_mono(m).terms, (self.engine,) * 2)

    def iterated_coproduct(self, el: PbwElement, side: str = "left") -> TensorElement:
        """(Delta (x) id) Delta or (id (x) Delta) Delta, as a 3-leg tensor."""
        two = self.coproduct(el)
        pos = 0 if side == "left" else 1
        return two.expand_leg(pos, self.coproduct_mono)

    # -- counit ----------------------------------------------------------------
    def counit_mono(self, mono) -> Scalar:
        out = Scalar.one()
        for i, e in enumerate(mono):
            for _ in range(e):
                out = out * self._eps[self.engine.gen_names[i]]
        return out

    def counit(self, el: PbwElement) -> Scalar:
        N = self.engine.cutoffs.h_order
        out = Scalar.zero(N)
        for m, c in el.terms.items():
            out = out + (self.counit_mono(m) * c).truncate(N)
        return out

    # -- antipode ----------------------------------------------------------------
    def antipode_mono(self, mono) -> PbwElement:
        """S of a PBW monomial g*rest, g its first letter: (-1)^{|g||rest|}
        S(rest) S(g), cached per monomial (the exact unit for the empty word)."""
        return self._anti_mono_cache[mono]

    def _antipode_of(self, mono) -> PbwElement:
        eng = self.engine
        i = next(j for j, e in enumerate(mono) if e)
        rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        got = eng.multiply(self._anti_mono_cache[rest], self._anti[eng.gen_names[i]])
        return -got if eng.parities[i] and eng.parity_of[rest] else got

    def antipode(self, el: PbwElement) -> PbwElement:
        return map_legs(el, 0, 1, lambda m: leg_terms(self.antipode_mono(m).terms), el.engines)

    def antipode_squared_is_identity(self) -> bool:
        eng = self.engine
        for name in eng.gen_names:
            g = eng.generator(name)
            if not (self.antipode(self.antipode(g)) - g).is_zero():
                return False
        return True

    @cached_property
    def _involutive(self) -> bool:
        return self.antipode_squared_is_identity()

    def antipode_inverse_mono(self, mono) -> PbwElement:
        """S^-1 on a monomial.  Every shipped antipode is an involution, so
        S^-1 = S; S^2 = id is checked once per HopfOps, on first use."""
        if not self._involutive:
            raise NotImplementedError(
                "antipode inverse beyond involutive antipodes is not implemented")
        return self.antipode_mono(mono)

    def antipode_inverse(self, el: PbwElement) -> PbwElement:
        return map_legs(el, 0, 1, lambda m: leg_terms(self.antipode_inverse_mono(m).terms),
                        el.engines)

    # -- helpers ------------------------------------------------------------------
    def counit_contract(self, t: TensorElement, pos: int) -> PbwElement:
        """(eps on leg pos) applied to a 2-leg tensor."""
        return map_legs(t, pos, 1, lambda m: {(): self.counit_mono(m)}, ())


@shared
def shared_ops(engine: Engine, /) -> HopfOps:
    """The process's HopfOps on ``engine`` (see ``shared``)."""
    return HopfOps(engine)


def structure(eng: Engine, coeff=None) -> dict:
    """The structure data of ``eng``'s presentation by label: the bracket of
    every generator pair in generator order, then each generator's coproduct,
    counit and antipode.  ``coeff``, when given, maps every coefficient."""
    ops = shared_ops(eng)
    names = eng.gen_names
    out = {f"bracket ({a},{b})": eng.graded_commutator(a, b)
           for i, a in enumerate(names) for b in names[i:]}
    for g in names:
        out[f"coproduct of {g}"] = ops.coproduct_gen(g)
        out[f"counit of {g}"] = ops._eps[g]
        out[f"antipode of {g}"] = ops._anti[g]
    if coeff is None:
        return out
    return {label: coeff(v) if isinstance(v, Scalar) else v.map_coeffs(coeff)
            for label, v in out.items()}


def differences(got: dict, want: dict, where: str) -> list:
    """One "<label> <where>: <first residual>" per label of ``want`` that
    ``got`` does not match.  ``got``'s elements are moved to ``want``'s
    engines by generator name, and a label ``got`` lacks reads as zero."""
    out = []
    for label, w in want.items():
        if isinstance(w, Scalar):
            target, residual = None, repr
        else:
            target = w.engines if isinstance(w, TensorElement) else w.engine
            residual = first_residual
        g = got.get(label)
        d = -w if g is None else (g if target is None else g.moved_to(target)) - w
        if not d.is_zero():
            out.append(f"{label} {where}: {residual(d)}")
    return out


def first_residual(el):
    """The first nonzero term of a PbwElement or TensorElement in key order,
    as "(c)*word" for one leg and "(c)*[w1 (x) w2 ...]" for more; None when
    every coefficient is zero."""
    for key in sorted(el.terms):
        c = el.terms[key]
        if not c.is_zero():
            words = [e.monomial_str(m) for e, m in zip(el.engines, el._legs(key))]
            return f"({c!r})*" + (words[0] if len(words) == 1 else f"[{' (x) '.join(words)}]")
    return None


def _run_axioms(pres: HopfPresentation, cutoffs: Cutoffs, details: list):
    """All axiom checks; appends what passed to ``details`` and returns the
    first failure as (description, residual), or None."""
    eng = shared_engine(pres, cutoffs)
    ops = shared_ops(eng)

    # (a)+(b): structure maps respect every relation [a,b]_s = ab - s ba = rhs,
    # s = (-1)^{|a||b|}: Delta and eps as algebra maps, S as an anti-homomorphism,
    # S([a,b]_s) = s (S(b)S(a) - s S(a)S(b))
    for rel in pres.relations:
        rhs = eng.evaluate_words(eng.relation_words[rel])
        name = f"{'{' if rel.kind == 'anti' else '['}{rel.a},{rel.b}{'}' if rel.kind == 'anti' else ']'}"
        ma, mb = _pair_mono(eng, rel, 0), _pair_mono(eng, rel, 1)
        sign = -1 if (pres.parity(rel.a) and pres.parity(rel.b)) else 1
        # Delta(a)Delta(b) - s Delta(b)Delta(a) = Delta(rhs), in one pass over
        # the pairs of coproduct terms (for {a,a} both are the one cached
        # Delta(a), a square)
        da, db = ops.coproduct_mono(ma), ops.coproduct_mono(mb)
        diff = graded_commutator(da, db, sign) - ops.coproduct(rhs)
        if not diff.is_zero():
            return (f"coproduct does not respect {name}", first_residual(diff))
        ea, eb = ops.counit_mono(ma), ops.counit_mono(mb)
        e_diff = ea * eb - eb * ea * sign - ops.counit(rhs)
        if not e_diff.is_zero():
            return (f"counit does not respect {name}", repr(e_diff))
        sa, sb = ops.antipode_mono(ma), ops.antipode_mono(mb)
        s_diff = graded_commutator(sb, sa, sign).scale(sign) - ops.antipode(rhs)
        if not s_diff.is_zero():
            return (f"antipode does not respect {name}", first_residual(s_diff))
    details.append(f"{len(pres.relations)} relations respected by all three maps")

    for name in pres.gen_names():
        g = eng.generator(name)
        # (c) coassociativity
        diff3 = ops.iterated_coproduct(g, "left") - ops.iterated_coproduct(g, "right")
        if not diff3.is_zero():
            return (f"coassociativity fails on {name}", first_residual(diff3))
        # (d) counit axiom
        two = ops.coproduct(g)
        left = ops.counit_contract(two, 0) - g
        right = ops.counit_contract(two, 1) - g
        if not left.is_zero() or not right.is_zero():
            res = first_residual(left if not left.is_zero() else right)
            return (f"counit axiom fails on {name}", res)
        # (e) antipode axiom
        want = eng.one().scale(ops.counit(g))
        lhs1 = two.apply_leg(0, ops.antipode_mono).multiply_legs() - want
        lhs2 = two.apply_leg(1, ops.antipode_mono).multiply_legs() - want
        if not lhs1.is_zero() or not lhs2.is_zero():
            res = first_residual(lhs1 if not lhs1.is_zero() else lhs2)
            return (f"antipode axiom fails on {name}", res)
        # (f) parity preservation
        if two.parity() not in (pres.parity(name), None):
            return (f"coproduct of {name} changes parity", None)
        if ops._anti[name].parity() not in (pres.parity(name), None):
            return (f"antipode of {name} changes parity", None)
    details.append("coassociativity, counit, antipode, parity checks on all generators")
    return None


def _pair_mono(eng: Engine, rel, which: int):
    name = rel.a if which == 0 else rel.b
    i = eng.presentation.gen_index(name)
    return tuple(1 if j == i else 0 for j in range(eng.n))


def verify_hopf(pres: HopfPresentation, cutoffs: Cutoffs = Cutoffs()) -> VerificationReport:
    """Certify the full Hopf-superalgebra axiom suite for a presentation."""
    with VerificationReport.timed("hopf-axioms", pres.name, cutoffs.as_dict()) as rep:
        failure = _run_axioms(pres, cutoffs, rep.details)
        if failure is not None:
            description, residual = failure
            rep.details.append(description)
            rep.fail(residual)
    return rep
