"""The super Hopf pairing between the proper-time and BRST quantizations.

Seeded on generators (<T,tau> = <S,xi> = 1, all other generator pairs zero) and
extended through the pairing axioms

    <x y, f>  =  <x (x) y, Delta_K^(conv) f>
    <x, f g>  =  <Delta_H^(conv) x, f (x) g>

with the Koszul-signed evaluation <x1 (x) x2, f1 (x) f2> =
(-1)^{|x2||f1|} <x1,f1> <x2,f2>.  Whether either side carries the opposite
coproduct is a convention; calibrate() keeps the choices under which the
pairing actually descends to the quotient algebras, and the double module pins
the final choice by reproducing the published cross relations.  Those choices,
the lock, are kept per process for each pair of HopfOps and degree
(``shared_lock``), so a re-run of the duality check at bumped cutoffs finds
the lock its main run computed.  The pairing values, the flipped coproducts
and the contracted rows are ``shared.Memo`` tables of each Pairing.

Sparse sums.  Most pairing values are zeros known to h^N, N = min(H, K)
h-order.  A term of a pairing sum is skipped when one of its factors is such a
zero (``pbw._droppable(v, N)``: exact, or known to at least h^N).  This is
exact: every other factor is pole-free (coproduct, counit and antipode
coefficients by ``HopfOps._assert_pole_free``, rule coefficients by
``Engine._build_rules``, and so every pairing value), so the skipped product
is itself a zero known to h^N, and adding it to an accumulator whose ``trunc``
is at most N changes neither its coefficients nor its ``trunc``.  A zero
known only below h^N goes through the product.  Where a sum also carries the
coefficients of caller-supplied elements, the threshold rises by their pole
orders (``Pairing.pair_terms``); each such floor is computed once per
coefficient map (``_floor``).  The consistency and antipode adjointness checks
form a scalar only for an identity with a term that survives the skip: an
identity with none on either side is zero minus zero.

Contracted rows.  Each recursion step splits a monomial of one side by that
side's convention coproduct and pairs a generator g and a rest of the other
side with its legs.  On side 0 (H), <x, g f> sums (-1)^{|x2||g|} <x1, g>
<x2, f> c over the terms c x1 (x) x2 of Delta_H^conv(x); on side 1 (K),
<g x, f> sums (-1)^{|x||f1|} <g, f1> <x, f2> c over the terms c f1 (x) f2 of
Delta_K^conv(f).  Every rest shares the factors <y1, g> c, so the pairing
keeps one row of (y2, <y1, g> c) per (side, monomial, generator), over the
terms whose <y1, g> is not skipped (``Pairing._rows``).  ``Pairing.pair_split``
sums a row against a rest, for the recursion and for both halves of the
consistency check.  Rows hold no parity: a pairing across parities is zero and
so skipped, so a kept term has |x2| = |f| (side 0) or |f1| = |g| (side 1), and
every Koszul sign of a split is (-1)^{|g||rest|}, applied once to its sum.
This is exact: the skip tests on both factors are those of the full sum;
exact multiplication is associative and commutative, and so is the ``trunc``
rule min(ta + vb, tb + va) on these pole-free factors.  A row holds the
untruncated product, since the right-hand sides of the consistency check are
not truncated either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .hopf import HopfOps, shared_ops
from .pbw import Cutoffs, Engine, PbwElement, _droppable, shared_engine
from .presentation import load_presentation
from .report import PASS, VerificationReport
from .scalars import Scalar, gauss_jordan
from .shared import Memo, shared
from .tensors import TensorElement

__all__ = ["PairingConvention", "Pairing", "shared_pairing", "calibrate", "shared_lock",
           "standard_pair", "verify_duality"]

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
        # per side, 0 for H and 1 for K
        self._ops = (h_ops, k_ops)
        self._engines = (self.H, self.K)
        self._flips = (convention.flip_primal_coproduct, convention.flip_dual_coproduct)
        self._seed = {}
        for (hg, kg), val in seed.items():
            hi = self.H.presentation.gen_index(hg)
            ki = self.K.presentation.gen_index(kg)
            self._seed[(hi, ki)] = Fraction(val)
        # {(mh, mk): <mh, mk>}, {(side, mono): flipped coproduct} and
        # {(side, mono, g): row}
        self._memo = Memo(self._pair_mono)
        ops = self._ops
        self._flipped = Memo(lambda key: ops[key[0]].coproduct_mono(key[1]).flip_adjacent(0))
        self._rows = Memo(self._row)

    def coproduct(self, side: int, mono) -> TensorElement:
        """Delta^conv of a monomial of H (side 0) or of K (side 1)."""
        if not self._flips[side]:
            return self._ops[side].coproduct_mono(mono)
        return self._flipped[side, mono]

    # -- monomial pairing -----------------------------------------------------
    def pair_mono(self, mh, mk) -> Scalar:
        return self._memo[mh, mk]

    def _pair_mono(self, key) -> Scalar:
        (mh, mk), H, K, N = key, self.H, self.K, self.N
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
        """<x, g * f'> via Delta_H^conv on x."""
        word = self.K.monomial_to_word(mk)
        return self.pair_split(0, mh, word[0], self.K.word_to_monomial(word[1:]), self.N)

    def _split_primal(self, mh, mk) -> Scalar:
        """<a * x', f> via Delta_K^conv on f."""
        word = self.H.monomial_to_word(mh)
        return self.pair_split(1, mk, word[0], self.H.word_to_monomial(word[1:]), self.N)

    # -- coproduct rows contracted on their first leg ------------------------------
    def _row(self, key) -> list:
        """The row of key = (side, mono, g): (y2, <y1, g> c) over the terms
        c y1 (x) y2 of Delta^conv(mono) whose <y1, g> is not skipped; mono is
        on ``side``, g indexes a generator of the other side."""
        side, mono, g = key
        g_mono = self._engines[1 - side].word_to_monomial((g,))
        row = []
        for (y1, y2), c in self.coproduct(side, mono).terms.items():
            first = self.pair_mono(y1, g_mono) if side == 0 else self.pair_mono(g_mono, y1)
            if not _droppable(first, self.N):
                row.append((y2, first * c))
        return row

    def pair_split(self, side: int, mono, g: int, rest, order=None) -> Scalar:
        """<Delta_H^conv(mono), g (x) rest> on side 0, <g (x) rest,
        Delta_K^conv(mono)> on side 1, each term truncated at ``order``; g and
        rest are on the other side.  The Koszul sign of every term that is not
        skipped is (-1)^{|g||rest|}, so it is applied once, to the sum."""
        N, other = self.N, self._engines[1 - side]
        out = Scalar.zero(order)
        for y2, v in self._rows[side, mono, g]:
            second = self.pair_mono(y2, rest) if side == 0 else self.pair_mono(rest, y2)
            if not _droppable(second, N):
                out = out + (v * second).truncate(order)
        return -out if other.parities[g] and other.parity_of[rest] else out

    def split_survives(self, side: int, mono, g: int, rest) -> bool:
        """Whether a term of ``pair_split(side, mono, g, rest)`` is not
        skipped.  Its pairing values up to the first such term are computed."""
        pair, N = self.pair_mono, self.N
        row = self._rows[side, mono, g]
        if side == 0:
            return any(not _droppable(pair(y2, rest), N) for y2, _ in row)
        return any(not _droppable(pair(rest, y2), N) for y2, _ in row)

    # -- element pairing --------------------------------------------------------
    def pair(self, x: PbwElement, f: PbwElement) -> Scalar:
        return self.pair_terms(x.terms, f.terms)

    def pair_terms(self, xterms: dict, fterms: dict, floor=None) -> Scalar:
        """<x, f> for x, f given as {monomial: coefficient} of H and of K.  A
        zero pairing value is skipped from ``floor``, by default N plus the
        largest pole orders of the two coefficient maps (``_floor``)."""
        N = self.N
        if floor is None:
            floor = _floor(N, xterms, fterms)
        out = Scalar.zero(N)
        for mh, ch in xterms.items():
            for mk, ck in fterms.items():
                v = self.pair_mono(mh, mk)
                if not _droppable(v, floor):
                    out = out + (v * ch * ck).truncate(N)
        return out


def _floor(N: int, *term_maps) -> int:
    """N plus the largest pole order of each {monomial: coefficient} map: the
    skip floor of a pairing sum that carries their coefficients."""
    return N + sum(max((c.pole_order for c in terms.values()), default=0)
                   for terms in term_maps)


def _survives(p: Pairing, xterms: dict, fterms: dict, floor: int) -> bool:
    """Whether a term of ``p.pair_terms(xterms, fterms, floor)`` is not
    skipped.  Its pairing values up to the first such term are computed."""
    pair = p.pair_mono
    return any(not _droppable(pair(mh, mk), floor) for mh in xterms for mk in fterms)


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
    full sum.  An equation with no term that survives the skip on either side
    is zero minus zero, and is not formed; every pairing value of its sums is
    still computed, so the pairing's memo is that of the full check."""
    H, K, N = p.H, p.K, p.N
    one = Scalar.one()
    fails = []
    hb = _h_basis(H, max_degree)
    kb = _h_basis(K, max_degree)
    # product side: <a*y, f> = <a (x) y, Delta_K^conv f> for generator a
    for a, ag in enumerate(H.gen_names):
        ma = H.word_to_monomial((a,))
        for my in hb:
            ay = H.product(ma, my)
            floor = _floor(N, ay)
            for mf in kb:
                f = {mf: one}
                if not (_survives(p, ay, f, floor) or p.split_survives(1, mf, a, my)):
                    continue
                diff = p.pair_terms(ay, f, floor) - p.pair_split(1, mf, a, my)
                if not diff.is_zero():
                    fails.append((f"<{ag}*{H.monomial_str(my)}, {K.monomial_str(mf)}>",
                                  repr(diff)))
                    if len(fails) >= limit:
                        return fails
    # dual side: <x, g*f> = <Delta_H^conv x, g (x) f> for generator g
    gens = [(g, gg, K.word_to_monomial((g,))) for g, gg in enumerate(K.gen_names)]
    # {(g, f): (g*f, its skip floor)}
    products = Memo(lambda key: (gf := K.product(*key), _floor(N, gf)))
    for mx in hb:
        x = {mx: one}
        for g, gg, mg in gens:
            for mf in kb:
                gf, floor = products[mg, mf]
                if not (_survives(p, x, gf, floor) or p.split_survives(0, mx, g, mf)):
                    continue
                diff = p.pair_terms(x, gf, floor) - p.pair_split(0, mx, g, mf)
                if not diff.is_zero():
                    fails.append((f"<{H.monomial_str(mx)}, {gg}*{K.monomial_str(mf)}>",
                                  repr(diff)))
                    if len(fails) >= limit:
                        return fails
    return fails


def calibrate(cutoffs: Cutoffs = Cutoffs(4, 8), alpha2: bool = True, max_degree: int = 3):
    """The coproduct conventions, of all four, that are consistent, as a list:
    the process's lock for the standard pair at ``cutoffs`` (``shared_lock``)."""
    return list(shared_lock(*_standard_ops(cutoffs, alpha2), max_degree))


@shared
def shared_lock(h_ops: HopfOps, k_ops: HopfOps, max_degree: int, /) -> tuple:
    """The conventions under which the pairing of ``h_ops`` and ``k_ops`` is
    consistent up to ``max_degree`` (see ``shared``).  Only the pairing table
    depends on the convention, so the four pairings share one HopfOps per
    side."""
    conventions = [PairingConvention(fd, fp) for fd in (True, False) for fp in (True, False)]
    return tuple(conv for conv in conventions if not _consistency_failures(
        shared_pairing(h_ops, k_ops, conv), max_degree, limit=1))


def _certification_failure(p: Pairing, max_degree: int) -> str | None:
    """The first failure of the pairing's consistency, antipode and unit
    adjointness and block nondegeneracy up to max_degree, or None."""
    fails = _consistency_failures(p, max_degree, limit=1)
    if fails:
        return f"{fails[0][0]}: {fails[0][1]}"
    N, one = p.N, Scalar.one()
    hb, kb = _h_basis(p.H, max_degree), _h_basis(p.K, max_degree)
    # antipode adjointness <S(x), f> = <x, S_K^-1(f)>, S_K^-1(f) and each skip
    # floor built once; an equation with no surviving term is not formed
    fs = [PbwElement(p.K, {mf: one}) for mf in kb]
    s_inv_fs = [(s_inv.terms, _floor(N, s_inv.terms))
                for s_inv in map(p.k_ops.antipode_inverse, fs)]
    for mx in hb:
        x = {mx: one}
        sx = p.h_ops.antipode(PbwElement(p.H, x)).terms
        sx_floor = _floor(N, sx)
        for mf, f, (s_inv_f, floor) in zip(kb, fs, s_inv_fs):
            if not (_survives(p, sx, f.terms, sx_floor) or _survives(p, x, s_inv_f, floor)):
                continue
            diff = p.pair_terms(sx, f.terms, sx_floor) - p.pair_terms(x, s_inv_f, floor)
            if not diff.is_zero():
                return (f"antipode adjointness at ({p.H.monomial_str(mx)}, "
                        f"{p.K.monomial_str(mf)}): {diff!r}")
    # unit/counit adjointness
    for mf, f in zip(kb, fs):
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
                   alpha2: bool = True) -> VerificationReport:
    """Full duality certification for (ptsa_q, brst_q at the dual scaling).

    The convention is locked at Cutoffs(4, max(8, max_degree + 2)) and degree
    3, whatever the check's own cutoffs, so a re-run at bumped cutoffs finds
    the same lock kept (``calibrate``)."""
    with VerificationReport.timed(
            "duality", f"ptsa_q / {'brst_q_alpha2' if alpha2 else 'brst_q'}",
            {**cutoffs.as_dict(), "D": max_degree}) as rep:
        convs = calibrate(Cutoffs(4, max(8, max_degree + 2)), alpha2)
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

        # derived normalization: <T^n, tau^m> = n! delta_nm
        iT = p.H.presentation.gen_index("T")
        itau = p.K.presentation.gen_index("tau")
        for n, m in itertools.product(range(max_degree + 1), repeat=2):
            mh = tuple(n if i == iT else 0 for i in range(p.H.n))
            mk = tuple(m if i == itau else 0 for i in range(p.K.n))
            want = Scalar.from_fraction(factorial(n) if n == m else 0)
            diff = p.pair_mono(mh, mk) - want
            if not diff.is_zero():
                if rep.status == PASS:
                    rep.fail(f"normalization at (T^{n}, tau^{m}): {diff!r}")
                break
        else:
            rep.details.append("derived normalization: <T^n, tau^m> = n! * delta_nm "
                               "(dual basis pairs (T^n/n!, tau^n), not both carrying 1/n!)")
    return rep
