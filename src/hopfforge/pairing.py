"""The super Hopf pairing between the proper-time and BRST quantizations.

Seeded on generators (<T,tau> = <S,xi> = 1, all other generator pairs zero) and
extended through the pairing axioms

    <x y, f>  =  <x (x) y, Delta_K^(conv) f>
    <x, f g>  =  <Delta_H^(conv) x, f (x) g>

with the Koszul-signed evaluation <x1 (x) x2, f1 (x) f2> =
(-1)^{|x2||f1|} <x1,f1> <x2,f2>.  Whether either side carries the opposite
coproduct is a convention; calibrate() keeps the choices under which the
pairing actually descends to the quotient algebras, and the double module pins
the final choice by reproducing the published cross relations.

Sparse sums.  Most pairing values are zeros known to h^N, N = min(H, K)
h-order.  A term of a pairing sum is skipped when one of its factors is such a
zero (``pbw._droppable(v, N)``: exact, or known to at least h^N).  This is
exact: every other factor is pole-free (coproduct, counit, antipode and rule
coefficients by ``HopfOps._assert_pole_free``, and so every pairing value), so
the skipped product is itself a zero known to h^N, and adding it to an
accumulator whose ``trunc`` is at most N changes neither its coefficients nor
its ``trunc``.  A zero known only below h^N goes through the product.  Where a
sum also carries the coefficients of caller-supplied elements, the threshold
rises by their pole orders (``Pairing.pair_terms``).

Contracted rows.  <x, g f> for a generator g of K sums
(-1)^{|x2||g|} <x1, g> <x2, f> c over the terms c x1 (x) x2 of Delta_H^conv(x),
and every f shares the factors <x1, g> c.  So the pairing keeps, per (x, g),
the row of (x2, <x1, g> c, |x2|) over the terms whose <x1, g> is not skipped
(``Pairing.primal_row``), and per (a, f) for a generator a of H the mirror row
of (f2, <a, f1> c, |f1|) (``Pairing.dual_row``).  Both recursions and both
sides of the consistency check read these rows.  This is exact: the skip tests
on both factors are those of the full sum; exact multiplication is associative
and commutative, and so is the ``trunc`` rule min(ta + vb, tb + va) on these
pole-free factors.  A row holds the untruncated product, since the right-hand
sides of the consistency check are not truncated either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .hopf import HopfOps, shared_ops
from .pbw import Cutoffs, Engine, PbwElement, _droppable, shared_engine
from .presentation import load_presentation
from .report import FINDING, PASS, VerificationReport
from .scalars import Scalar, gauss_jordan
from .shared import shared
from .tensors import TensorElement

__all__ = ["PairingConvention", "Pairing", "shared_pairing", "calibrate", "standard_pair",
           "duality_conventions", "verify_duality"]

# the generator pairs of the standard pair that pair to 1
STANDARD_SEED = {("T", "tau"): 1, ("S", "xi"): 1}


@dataclass(frozen=True)
class PairingConvention:
    flip_dual_coproduct: bool = True
    flip_primal_coproduct: bool = False

    def describe(self) -> str:
        a = "Delta^op" if self.flip_dual_coproduct else "Delta"
        b = "Delta^op" if self.flip_primal_coproduct else "Delta"
        return f"<xy,f>=<x(x)y,{a}_K f>, <x,fg>=<{b}_H x,f(x)g>"


class Pairing:
    """Lazily computed pairing table between an algebra H and its dual K."""

    def __init__(self, h_ops: HopfOps, k_ops: HopfOps, seed: dict,
                 convention: PairingConvention = PairingConvention()):
        self.h_ops, self.k_ops = h_ops, k_ops
        self.H, self.K = h_ops.engine, k_ops.engine
        self.N = min(self.H.cutoffs.h_order, self.K.cutoffs.h_order)
        self.convention = convention
        self._seed = {}
        for (hg, kg), val in seed.items():
            hi = self.H.presentation.gen_index(hg)
            ki = self.K.presentation.gen_index(kg)
            self._seed[(hi, ki)] = Fraction(val)
        self._memo: dict = {}
        self._conv_coproducts: dict = {}
        self._primal_rows: dict = {}
        self._dual_rows: dict = {}

    # -- coproducts under the convention ------------------------------------------
    def primal_coproduct(self, mh) -> TensorElement:
        """Delta_H^conv of a monomial of H."""
        return self._conv_coproduct(self.h_ops, self.convention.flip_primal_coproduct, mh)

    def dual_coproduct(self, mk) -> TensorElement:
        """Delta_K^conv of a monomial of K."""
        return self._conv_coproduct(self.k_ops, self.convention.flip_dual_coproduct, mk)

    def _conv_coproduct(self, ops: HopfOps, flip: bool, mono) -> TensorElement:
        if not flip:
            return ops.coproduct_mono(mono)
        key = (ops, mono)
        got = self._conv_coproducts.get(key)
        if got is None:
            got = self._conv_coproducts[key] = ops.coproduct_mono(mono).flip_adjacent(0)
        return got

    # -- monomial pairing -----------------------------------------------------
    def pair_mono(self, mh, mk) -> Scalar:
        key = (tuple(mh), tuple(mk))
        got = self._memo.get(key)
        if got is None:
            got = self._pair_mono(key[0], key[1])
            self._memo[key] = got
        return got

    def _pair_mono(self, mh, mk) -> Scalar:
        H, K, N = self.H, self.K, self.N
        if H.monomial_parity(mh) != K.monomial_parity(mk):
            return Scalar.zero(N)
        lh, lk = sum(mh), sum(mk)
        if lh == 0:
            return self.k_ops.counit_mono(mk).truncate(N)
        if lk == 0:
            return self.h_ops.counit_mono(mh).truncate(N)
        if lh == 1 and lk == 1:
            hi = next(i for i, e in enumerate(mh) if e)
            ki = next(i for i, e in enumerate(mk) if e)
            return Scalar.from_fraction(self._seed.get((hi, ki), 0), trunc=N)
        if lk > 1:
            return self._split_dual(mh, mk)
        return self._split_primal(mh, mk)

    def _split_dual(self, mh, mk) -> Scalar:
        """<x, g * f'> via the primal coproduct on x."""
        word = self.K.monomial_to_word(mk)
        return self.pair_split_dual(mh, word[0], self.K.word_to_monomial(word[1:]), self.N)

    def _split_primal(self, mh, mk) -> Scalar:
        """<a * x', f> via the dual coproduct on f."""
        word = self.H.monomial_to_word(mh)
        return self.pair_split_primal(word[0], self.H.word_to_monomial(word[1:]), mk, self.N)

    # -- coproduct rows contracted on their first leg ------------------------------
    def primal_row(self, mh, g: int) -> list:
        """(x2, <x1, g> c, |x2|) over the terms c x1 (x) x2 of Delta_H^conv(mh)
        whose <x1, g> is not skipped; g is the index of a generator of K."""
        key = (tuple(mh), g)
        row = self._primal_rows.get(key)
        if row is None:
            g_mono = tuple(1 if j == g else 0 for j in range(self.K.n))
            row = []
            for (x1, x2), c in self.primal_coproduct(key[0]).terms.items():
                first = self.pair_mono(x1, g_mono)
                if not _droppable(first, self.N):
                    row.append((x2, first * c, self.H.parity_of[x2]))
            self._primal_rows[key] = row
        return row

    def dual_row(self, a: int, mk) -> list:
        """(f2, <a, f1> c, |f1|) over the terms c f1 (x) f2 of Delta_K^conv(mk)
        whose <a, f1> is not skipped; a is the index of a generator of H."""
        key = (a, tuple(mk))
        row = self._dual_rows.get(key)
        if row is None:
            a_mono = tuple(1 if j == a else 0 for j in range(self.H.n))
            row = []
            for (f1, f2), c in self.dual_coproduct(key[1]).terms.items():
                first = self.pair_mono(a_mono, f1)
                if not _droppable(first, self.N):
                    row.append((f2, first * c, self.K.parity_of[f1]))
            self._dual_rows[key] = row
        return row

    def pair_split_dual(self, mh, g: int, mk, order=None) -> Scalar:
        """<Delta_H^conv(mh), g (x) mk>, each term truncated at ``order``."""
        N, odd = self.N, self.K.parities[g]
        out = Scalar.zero(order)
        for x2, v, p2 in self.primal_row(mh, g):
            second = self.pair_mono(x2, mk)
            if not _droppable(second, N):
                t = v * second
                out = out + (-t if p2 and odd else t).truncate(order)
        return out

    def pair_split_primal(self, a: int, mh, mk, order=None) -> Scalar:
        """<a (x) mh, Delta_K^conv(mk)>, each term truncated at ``order``."""
        N, odd = self.N, self.H.parity_of[mh]
        out = Scalar.zero(order)
        for f2, v, p1 in self.dual_row(a, mk):
            second = self.pair_mono(mh, f2)
            if not _droppable(second, N):
                t = v * second
                out = out + (-t if p1 and odd else t).truncate(order)
        return out

    # -- element pairing --------------------------------------------------------
    def pair(self, x: PbwElement, f: PbwElement) -> Scalar:
        return self.pair_terms(x.terms, f.terms)

    def pair_terms(self, xterms: dict, fterms: dict) -> Scalar:
        """<x, f> for x, f given as {monomial: coefficient} of H and of K.  A
        zero pairing value is skipped from N plus the largest pole orders of
        the two coefficient maps."""
        N = self.N
        floor = N + sum(max((c.pole_order for c in terms.values()), default=0)
                        for terms in (xterms, fterms))
        out = Scalar.zero(N)
        for mh, ch in xterms.items():
            for mk, ck in fterms.items():
                v = self.pair_mono(mh, mk)
                if not _droppable(v, floor):
                    out = out + (v * ch * ck).truncate(N)
        return out


def _h_basis(engine: Engine, max_degree: int):
    ranges = []
    for g in engine.presentation.generators:
        top = 1 if g.parity else max_degree // max(1, g.degree)
        ranges.append(range(top + 1))
    out = []
    for mono in itertools.product(*ranges):
        if 0 < engine.monomial_degree(mono) <= max_degree or sum(mono) == 0:
            out.append(mono)
    return sorted(out, key=lambda m: (engine.monomial_degree(m), m))


@shared
def shared_pairing(h_ops: HopfOps, k_ops: HopfOps, convention: PairingConvention, /) -> Pairing:
    """The process's Pairing of ``h_ops`` and ``k_ops`` with STANDARD_SEED
    under ``convention`` (see ``shared``)."""
    return Pairing(h_ops, k_ops, STANDARD_SEED, convention)


def _standard_ops(cutoffs: Cutoffs, alpha2: bool):
    """HopfOps of ptsa_q and of brst_q in the duality (alpha2) or literal scaling."""
    k_name = "brst_q_alpha2" if alpha2 else "brst_q"
    return tuple(shared_ops(shared_engine(load_presentation(name), cutoffs))
                 for name in ("ptsa_q", k_name))


def standard_pair(cutoffs: Cutoffs = Cutoffs(), alpha2: bool = True,
                  convention: PairingConvention | None = None):
    """The Pairing of (ptsa_q, brst_q) in the duality (alpha2) or literal scaling."""
    h_ops, k_ops = _standard_ops(cutoffs, alpha2)
    return shared_pairing(h_ops, k_ops, convention or PairingConvention())


def _consistency_failures(p: Pairing, max_degree: int, limit: int = 1):
    """Adjointness of products and coproducts on basis pairs; first failures.

    The right-hand sides are the untruncated sums of the contracted rows; their
    skipped terms are zeros known to h^N, and the left-hand sides are known to
    at most h^N, so each difference, and its repr in a witness, is that of the
    full sum."""
    H, K = p.H, p.K
    one = Scalar.one()
    fails = []
    hb = _h_basis(H, max_degree)
    kb = _h_basis(K, max_degree)
    # product-side: <x*y, f> = <x (x) y, Delta_K^conv f> for generator x
    for a, xg in enumerate(H.gen_names):
        x = H.generator(xg)
        for my in hb:
            xy = H.multiply(x, PbwElement(H, {my: one}))
            for mf in kb:
                lhs = p.pair_terms(xy.terms, {mf: one})
                rhs = p.pair_split_primal(a, my, mf)
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{xg}*{H.monomial_str(my)}, {K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    # dual-side: <x, g*f> = <Delta_H^conv x, g (x) f> for generator g
    products: dict = {}  # g*f, the same for every x
    for mx in hb:
        for g, gg in enumerate(K.gen_names):
            for mf in kb:
                gf = products.get((g, mf))
                if gf is None:
                    gf = products[(g, mf)] = K.multiply(K.generator(gg), PbwElement(K, {mf: one}))
                lhs = p.pair_terms({mx: one}, gf.terms)
                rhs = p.pair_split_dual(mx, g, mf)
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{H.monomial_str(mx)}, {gg}*{K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    return fails


def calibrate(cutoffs: Cutoffs = Cutoffs(4, 8), alpha2: bool = True, max_degree: int = 3):
    """Try all four coproduct conventions; return those that are consistent.

    Only the pairing table depends on the convention, so the four pairings
    share one HopfOps per side."""
    h_ops, k_ops = _standard_ops(cutoffs, alpha2)
    good = []
    for fd in (True, False):
        for fp in (True, False):
            conv = PairingConvention(fd, fp)
            if not _consistency_failures(shared_pairing(h_ops, k_ops, conv),
                                         max_degree, limit=1):
                good.append(conv)
    return good


def duality_conventions(max_degree: int, alpha2: bool = True) -> list:
    """The consistent conventions verify_duality locks one of at max_degree,
    whatever its cutoffs: a re-run at other cutoffs may be handed them."""
    return calibrate(Cutoffs(4, max(8, max_degree + 2)), alpha2=alpha2)


def _certification_failure(p: Pairing, max_degree: int) -> str | None:
    """The first failure of the pairing's consistency, antipode and unit
    adjointness and block nondegeneracy up to max_degree, or None."""
    fails = _consistency_failures(p, max_degree, limit=1)
    if fails:
        return f"{fails[0][0]}: {fails[0][1]}"
    hb, kb = _h_basis(p.H, max_degree), _h_basis(p.K, max_degree)
    # antipode adjointness <S(x), f> = <x, S_K^-1(f)>
    for mx in hb:
        x = PbwElement(p.H, {mx: Scalar.one()})
        sx = p.h_ops.antipode(x)
        for mf in kb:
            f = PbwElement(p.K, {mf: Scalar.one()})
            diff = p.pair(sx, f) - p.pair(x, p.k_ops.antipode_inverse(f))
            if not diff.is_zero():
                return (f"antipode adjointness at ({p.H.monomial_str(mx)}, "
                        f"{p.K.monomial_str(mf)}): {diff!r}")
    # unit/counit adjointness
    for mf in kb:
        f = PbwElement(p.K, {mf: Scalar.one()})
        if not (p.pair(p.H.one(), f) - p.k_ops.counit(f)).is_zero():
            return f"unit adjointness at {p.K.monomial_str(mf)}"
    # block nondegeneracy at h-order 0
    for d in range(max_degree + 1):
        hd = [m for m in hb if p.H.monomial_degree(m) == d]
        kd = [m for m in kb if p.K.monomial_degree(m) == d]
        mat = [[Scalar.from_fraction(p.pair_mono(mh, mk).coeff(0).constant, 0)
                for mk in kd] for mh in hd]
        r = len(gauss_jordan(mat, 0))
        if r != len(hd) or len(hd) != len(kd):
            return f"pairing degenerate in degree {d}: rank {r} of {len(hd)}"
    return None


def verify_duality(cutoffs: Cutoffs = Cutoffs(), max_degree: int = 6,
                   alpha2: bool = True, conventions=None) -> VerificationReport:
    """Full duality certification for (ptsa_q, brst_q at the dual scaling);
    ``conventions`` defaults to ``duality_conventions(max_degree, alpha2)``."""
    with VerificationReport.timed(
            "duality", f"ptsa_q / {'brst_q_alpha2' if alpha2 else 'brst_q'}",
            {**cutoffs.as_dict(), "D": max_degree}) as rep:
        convs = conventions if conventions is not None else duality_conventions(max_degree, alpha2)
        if not convs:
            p = standard_pair(cutoffs, alpha2=alpha2)
            fails = _consistency_failures(p, 2, limit=1)
            witness = fails[0] if fails else ("", "")
            rep.target = p.K.presentation.name
            rep.fail(f"inconsistent extension at {witness[0]}: {witness[1]}")
            rep.details.append("no coproduct convention admits a rational pairing "
                               "with seed <T,tau> = <S,xi> = 1")
            return rep
        conv = convs[0]
        rep.details.append(f"locked convention: {conv.describe()}")
        if len(convs) > 1:
            rep.details.append(f"{len(convs)} conventions consistent; "
                               "double reconstruction picks one")
        p = standard_pair(cutoffs, alpha2=alpha2, convention=conv)
        failure = _certification_failure(p, max_degree)
        if failure is None:
            rep.details.append(f"nondegenerate in every degree block up to {max_degree}")
        else:
            rep.fail(failure)

        # derived normalization: <T^n, tau^m> = n! delta_nm; a broken
        # normalization turns a pass into a finding, never a failure
        iT = p.H.presentation.gen_index("T")
        itau = p.K.presentation.gen_index("tau")
        for n, m in itertools.product(range(max_degree + 1), repeat=2):
            mh = tuple(n if i == iT else 0 for i in range(p.H.n))
            mk = tuple(m if i == itau else 0 for i in range(p.K.n))
            want = Scalar.from_fraction(factorial(n) if n == m else 0)
            if not (p.pair_mono(mh, mk) - want).is_zero():
                if rep.status == PASS:
                    rep.status = FINDING
                break
        else:
            rep.details.append("derived normalization: <T^n, tau^m> = n! * delta_nm "
                               "(dual basis pairs (T^n/n!, tau^n), not both carrying 1/n!)")
    return rep
