"""PBW normal forms for presented superalgebras by oriented rewriting.

Monomials are exponent vectors over the presentation's generator order (odd
generators capped at exponent 1); a word is normal when its letters are
nondecreasing in that order and no odd letter repeats.  Relations orient as
rules moving later-ordered letters rightward:

    g_i g_j  ->  (-1)^{|i||j|} g_j g_i  +  bracket tail      (i > j)
    g g      ->  {g,g}/2                                      (g odd)

All computation lives in the quotient by (h^(N+1)) plus word degree > W; terms
beyond the cutoffs are dropped.

Rules apply leftmost-first, and that strategy normalizes a prefix completely
before it touches the next letter.  So a word's normal form is a fold: its
longest normal prefix, then each further letter g applied to every term c*m
by the right multiplication m*g modulo h^(k+1), k = N - valuation(c).  Right
multiplications are memoized per engine, one entry per (m, g) at the highest
order computed, and the fold reproduces one-rule-at-a-time reduction exactly,
confluent presentation or not.  Each computed product asserts that the
termination measure (h-order k, non-central word degree, inversion count) of
m*g lies below that of the product that needs it; rule tails are validated at
build time to make that measure sound (pole-free coefficients, and h-free
tail terms must drop non-central degree).

Each engine also fixes an integer generator weight that rewriting never
lowers (see ``Engine._find_weight``).  A key of total degree <= D weighs at
most the integer part of D * max(w_i/d_i), so ``LinearCombination.window``
and the windowed tensor product drop, exactly, what cannot reach degree <= D
under further products, comparing integers only.

A monomial's parity, weight and central degree are pure functions of it, so
each engine memoizes them (``parity_of``, ``weight_of``, ``central_degree_of``:
dicts filled on first lookup).  The product cache holds one entry per (ma, mb):
the terms of the normal form of ma*mb, both as a {monomial: coefficient} dict
(``Engine.product``) and as (monomial, coefficient, central degree, unit)
tuples (``Engine.product_terms``), which tensor products read.  The unit
flag is ``Scalar.is_unit(N)``: the coefficient is the exact 1 or
1 + O(h^(t+1)) with t >= N, so a pole-free coefficient times it, truncated
at h^N, is unchanged.  Normal-form coefficients are pole-free (rule tails
are checked to be), so most leg coefficients are such units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .lang import (Add, Div, Gen, HVar, Mul, Neg, Node, Num, Param, Pow, SeriesCall, Tensor,
                   expr_to_text)
from .presentation import EVEN, ODD, HopfPresentation, PresentationError
from .scalars import Scalar, ScalarError, _series_coeff
from .shared import shared

__all__ = ["Cutoffs", "RewriteError", "LinearCombination", "PbwElement", "Engine",
           "shared_engine"]

class RewriteError(RuntimeError):
    pass


@dataclass(frozen=True)
class Cutoffs:
    h_order: int = 6   # N: drop h-exponents above this
    word_degree: int = 10  # W: drop monomials of filtration degree above this

    def bumped(self) -> "Cutoffs":
        """The cutoffs a stability audit re-runs at."""
        return Cutoffs(self.h_order + 1, self.word_degree + 2)

    def as_dict(self) -> dict:
        """The cutoffs as a report states them."""
        return {"N": self.h_order, "W": self.word_degree}


class LinearCombination:
    """Finite Scalar-linear combination of keys, one PBW monomial per engine.

    The linear algebra that PBW elements and tensors share.  A subclass gives
    its ``engines``, says how its key packs the monomials (``_legs``/``_key``),
    how it is built (``_new``), how it multiplies and how it prints.
    """

    __slots__ = ("terms",)

    @property
    def h_order(self) -> int:
        return min(e.cutoffs.h_order for e in self.engines)

    def parity_of_key(self, key) -> int:
        return sum(e.parity_of[m] for e, m in zip(self.engines, self._legs(key))) % 2

    def degree_of_key(self, key) -> int:
        return sum(e.monomial_degree(m) for e, m in zip(self.engines, self._legs(key)))

    def weight_of_key(self, key) -> int:
        return sum(e.weight_of[m] for e, m in zip(self.engines, self._legs(key)))

    def weight_bound(self, max_degree: int) -> int:
        """The largest weight a key of total degree <= max_degree can have: the
        integer part of max_degree * max(w_i/d_i), exact since weights are
        integers."""
        return math.floor(max_degree * max(e.weight_ratio for e in self.engines))

    def window(self, max_degree: int):
        """The keys within the weight bound of max_degree.  Products and the
        engine's coproduct never lower weight, so under them a dropped key
        contributes only above total degree max_degree."""
        bound = self.weight_bound(max_degree)
        return self._new({k: c for k, c in self.terms.items()
                          if self.weight_of_key(k) <= bound})

    def _check_space(self, other):
        # tuples of engines compare by identity, leg count included
        if type(other) is not type(self) or other.engines != self.engines:
            raise PresentationError("leg mismatch")

    # -- linear structure ----------------------------------------------------
    def _merge(self, items):
        """terms[k] += c in place for each (k, c), dropping a key whose sum is zero."""
        terms = self.terms
        for k, c in items:
            prev = terms.get(k)
            s = c if prev is None else prev + c
            if s.is_zero():
                terms.pop(k, None)
            else:
                terms[k] = s

    def __add__(self, other):
        self._check_space(other)
        out = self._new(dict(self.terms))
        out._merge(other.terms.items())
        return out

    def add_scaled(self, other, c):
        """self += other * c in place, the same terms and ``trunc`` as the
        fold ``self + other.scale(c)`` without copying: each product is
        truncated at the h-order and a zero product is skipped."""
        self._check_space(other)
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_fraction(c)
        N = self.h_order
        scaled = ((k, (v * c).truncate(N)) for k, v in other.terms.items())
        self._merge((k, s) for k, s in scaled if not s.is_zero())

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Scalar.from_fraction(c)
        N = self.h_order
        return self.map_coeffs(lambda coeff: (coeff * c).truncate(N))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def coefficient(self, key) -> Scalar:
        key = self._key(tuple(tuple(m) for m in self._legs(key)))
        return self.terms.get(key, Scalar.zero())

    def map_coeffs(self, fn):
        out = {}
        for k, c in self.terms.items():
            s = fn(c)
            if not s.is_zero():
                out[k] = s
        return self._new(out)

    def parity(self):
        """0, 1, None for zero, or "mixed"."""
        seen = {self.parity_of_key(k) for k, c in self.terms.items() if not c.is_zero()}
        if not seen:
            return None
        return seen.pop() if len(seen) == 1 else "mixed"

    def truncate_degree(self, max_degree: int):
        """View with keys above the total filtration degree removed."""
        return self._new({k: c for k, c in self.terms.items()
                          if self.degree_of_key(k) <= max_degree})

    def moved_to(self, target):
        """The same combination over ``target`` (an engine, or a tuple of
        engines for a tensor), each leg's generators matched by name."""
        engines = target if isinstance(target, tuple) else (target,)
        if len(engines) != len(self.engines):
            raise PresentationError("leg mismatch")
        moves = [(dst.index_map(src), dst.n) for src, dst in zip(self.engines, engines)]
        terms = {}
        for k, c in self.terms.items():
            legs = []
            for m, (index, n) in zip(self._legs(k), moves):
                out = [0] * n
                for i, e in zip(index, m):
                    out[i] = e
                legs.append(tuple(out))
            terms[self._key(tuple(legs))] = c
        return type(self)(target, terms)


class PbwElement(LinearCombination):
    """Finite Scalar-linear combination of PBW monomials."""

    __slots__ = ("engine",)

    def __init__(self, engine: "Engine", terms: dict | None = None):
        self.engine = engine
        self.terms = terms or {}

    @property
    def engines(self) -> tuple:
        return (self.engine,)

    def _new(self, terms) -> "PbwElement":
        return PbwElement(self.engine, terms)

    @staticmethod
    def _legs(key):
        return (key,)

    @staticmethod
    def _key(legs):
        return legs[0]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return self.engine.multiply(self, other)

    def substitute(self, bindings=None, h_to_zero=False):
        return self.map_coeffs(lambda c: c.substitute(bindings, h_to_zero))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            word = self.engine.monomial_str(m)
            cs = repr(c)
            if " + " in cs or cs.startswith("-"):
                cs = f"({cs})"
            bits.append(f"{cs}*{word}" if word != "1" else cs)
        return " + ".join(bits)


class Engine:
    """Rewriting engine for one presentation at fixed cutoffs."""

    def __init__(self, presentation: HopfPresentation, cutoffs: Cutoffs = Cutoffs()):
        self.presentation = presentation
        self.cutoffs = cutoffs
        self.gen_names = presentation.gen_names()
        self.parities = tuple(g.parity for g in presentation.generators)
        self.degrees = tuple(g.degree for g in presentation.generators)
        self.n = len(self.gen_names)
        self.central = tuple(presentation.is_central(g.name) for g in presentation.generators)
        # expressions are evaluated with h-order headroom so that divisions by
        # powers of h (and by sinh(h)) still deliver full precision at h_order
        self._eval_order = cutoffs.h_order + 3
        # bound parameters stay symbolic in _eval, and _words substitutes their
        # values; a pole would bring terms dropped above h^N into the orders
        # that a coefficient claims to know
        self._bound = {}
        for name, node in presentation.bindings:
            value = self.evaluate_scalar(node)
            if value.pole_order:
                raise PresentationError(f"cannot bind {name}={expr_to_text(node)}: "
                                        "the value has a pole in h")
            self._bound[name] = value
        self._rules: dict = {}
        self._product_cache: dict = {}
        self._right_cache: dict = {}
        self._index_maps: dict = {}
        # pure functions of a monomial, memoized: {monomial: invariant}
        odd = tuple(p == ODD for p in self.parities)
        central = tuple(d if c else 0 for d, c in zip(self.degrees, self.central))
        self.parity_of = _Memo(lambda m: sum(itertools.compress(m, odd)) % 2)
        self.central_degree_of = _Memo(lambda m: sum(map(mul, m, central)))
        self._build_rules()
        self.weight = self._find_weight()
        self.weight_of = _Memo(lambda m: sum(map(mul, m, self.weight)))
        self.weight_ratio = max((Fraction(w, d) for w, d in zip(self.weight, self.degrees) if d),
                                default=Fraction(0))

    # -- monomial helpers ----------------------------------------------------
    def one(self) -> PbwElement:
        return PbwElement(self, {(0,) * self.n: Scalar.one()})

    def zero(self) -> PbwElement:
        return PbwElement(self, {})

    def generator(self, name: str) -> PbwElement:
        i = self.presentation.gen_index(name)
        # the prune of normal_form: a central generator above the degree
        # cutoff is zero in the quotient
        if self.word_degree_central((i,)) > self.cutoffs.word_degree:
            return self.zero()
        mono = tuple(1 if j == i else 0 for j in range(self.n))
        return PbwElement(self, {mono: Scalar.one()})

    def index_map(self, src: "Engine") -> tuple:
        """Position in this engine of each generator of ``src``, by name;
        a name this engine lacks raises UnknownGeneratorError."""
        got = self._index_maps.get(src)
        if got is None:
            got = tuple(self.presentation.gen_index(g) for g in src.gen_names)
            self._index_maps[src] = got
        return got

    def monomial_parity(self, mono) -> int:
        return self.parity_of[mono]

    def monomial_degree(self, mono) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def word_degree_noncentral(self, word) -> int:
        return sum(self.degrees[i] for i in word if not self.central[i])

    def word_degree_central(self, word) -> int:
        return sum(self.degrees[i] for i in word if self.central[i])

    def monomial_degree_central(self, mono) -> int:
        return self.central_degree_of[mono]

    def monomial_degree_noncentral(self, mono) -> int:
        return sum(e * d for e, d, c in zip(mono, self.degrees, self.central) if not c)

    def monomial_to_word(self, mono):
        out = []
        for i, e in enumerate(mono):
            out.extend([i] * e)
        return tuple(out)

    def word_to_monomial(self, word):
        mono = [0] * self.n
        for i in word:
            mono[i] += 1
        return tuple(mono)

    def monomial_str(self, mono) -> str:
        bits = []
        for name, e in zip(self.gen_names, mono):
            if e == 1:
                bits.append(name)
            elif e > 1:
                bits.append(f"{name}^{e}")
        return "*".join(bits) if bits else "1"

    # -- rules ---------------------------------------------------------------
    def _build_rules(self):
        pres = self.presentation
        # each relation's words as written, before a rule's sign and halving;
        # the Hopf axiom checks normalize them (``evaluate_words``)
        self.relation_words = {rel: self._words(rel.rhs) for rel in pres.relations}
        declared = {}
        for rel in pres.relations:
            ia, ib = pres.gen_index(rel.a), pres.gen_index(rel.b)
            declared[(ia, ib)] = rel
        for i in range(self.n):
            for j in range(self.n):
                if i < j:
                    continue
                if i == j and self.parities[i] == EVEN:
                    continue
                sign = -1 if (self.parities[i] == ODD and self.parities[j] == ODD) else 1
                rel = declared.get((i, j)) or declared.get((j, i))
                if rel is None:
                    tail = {}
                elif (pres.gen_index(rel.a), pres.gen_index(rel.b)) == (i, j):
                    # rel: g_i g_j - sign g_j g_i = rhs
                    tail = self.relation_words[rel]
                else:
                    # rel: g_j g_i - sign g_i g_j = rhs  =>  tail = -sign * rhs
                    tail = {w: c * (-sign) for w, c in self.relation_words[rel].items()}
                if i == j:
                    # odd square: 2 g^2 = {g,g}  =>  g g -> rhs/2, no swap term
                    tail = {w: c * Fraction(1, 2) for w, c in tail.items()}
                    self._rules[(i, j)] = (None, tail)
                else:
                    self._rules[(i, j)] = (sign, tail)
        # soundness: tails must be PBW-normal, pole-free, and compatible with
        # the termination measure (h-free tail terms drop non-central degree)
        for (i, j), (_, tail) in self._rules.items():
            pair_deg = self.word_degree_noncentral((i, j))
            for word, c in tail.items():
                if self._first_descent(word) is not None:
                    raise PresentationError(
                        f"relation tail for ({self.gen_names[i]},{self.gen_names[j]}) "
                        f"is not in PBW normal form")
                if c.pole_order > 0:
                    raise PresentationError(
                        f"structure constant for ({self.gen_names[i]},{self.gen_names[j]}) "
                        f"has a pole in h")
                v = c.valuation()
                if (v is None or v == 0) and self.word_degree_noncentral(word) >= pair_deg:
                    raise PresentationError(
                        f"cannot orient relation ({self.gen_names[i]},{self.gen_names[j]}) "
                        f"terminatingly: h-free tail term does not drop degree")

    # -- filtration weight -----------------------------------------------------
    def _find_weight(self) -> tuple:
        """The generator weight w with 0 <= w_i <= d_i that rewriting never
        lowers: the valid one of largest sum, ties to the lexicographically
        largest.

        Valid means every tail word of every rule weighs at least the pair it
        replaces, and every term of each generator's coproduct weighs at least
        the generator.  Then a normal form weighs at least its word, a product
        at least the sum of its factors and a coproduct image at least its
        monomial; truncation only drops terms.  The zero weight is always
        valid, and under it nothing is ever pruned.
        """
        zero = (0,) * self.n
        unit = {g: zero[:i] + (1,) + zero[i + 1:] for i, g in enumerate(self.gen_names)}

        def support(node) -> set:
            """Exponent vectors such that every word of the node's expansion
            (a tensor's legs concatenated) is at least one of them, entrywise.
            Coefficients are not evaluated: a cancellation only removes words."""
            if isinstance(node, Gen):
                return {unit.get(node.name, zero)}  # a parameter is a scalar
            if isinstance(node, Num):
                return {zero} if node.value else set()
            if isinstance(node, Add):
                return set().union(*map(support, node.terms))
            if isinstance(node, Neg):
                return support(node.arg)
            if isinstance(node, Div):  # the denominator is a scalar
                return support(node.num)
            if isinstance(node, SeriesCall):
                # exp and cosh start with the empty word; sinh is odd, so each
                # of its words holds the argument at least once
                return support(node.arg) if node.fn == "sinh" else {zero}
            if isinstance(node, Mul):
                factors = node.factors
            elif isinstance(node, Tensor):
                factors = node.legs
            elif isinstance(node, Pow):
                factors = (node.base,) * node.exp
            else:
                return {zero}  # h or a parameter
            out = {zero}
            for low in map(support, factors):
                if low != {zero}:
                    out = {tuple(map(add, x, y)) for x in out for y in low}
            return out

        lows = set()  # w is valid iff w . v >= 0 for every v here
        for (i, j), (_, tail) in self._rules.items():
            up = self.word_to_monomial((i, j))
            lows.update(tuple(map(sub, self.word_to_monomial(word), up)) for word in tail)
        for name, node in self.presentation.coproduct:
            lows.update(tuple(map(sub, low, unit[name])) for low in support(node))
        lows = [v for v in lows if min(v) < 0]
        box = itertools.product(*(range(d, -1, -1) for d in self.degrees))
        # the sort is stable, so the box's descending lex order breaks ties
        return next(w for w in sorted(box, key=sum, reverse=True)
                    if all(sum(map(mul, w, v)) >= 0 for v in lows))

    def _first_descent(self, word):
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a > b or (a == b and self.parities[a] == ODD):
                return k
        return None

    # -- normal form ---------------------------------------------------------
    def normal_form(self, word, coeff: Scalar | None = None) -> PbwElement:
        """PBW-ordered combination equal to the word in the quotient algebra:
        its longest normal prefix, times each further letter in turn."""
        N, W = self.cutoffs.h_order, self.cutoffs.word_degree
        coeff = Scalar.one().truncate(N) if coeff is None else coeff.truncate(N)
        if _droppable(coeff, N):
            return self.zero()
        # central letters never disappear under rewriting, so this prune is
        # exact: such a word cannot contribute below the degree cutoff
        if self.word_degree_central(word) > W:
            return self.zero()
        k = self._first_descent(word)
        cut = len(word) if k is None else k + 1
        terms = {self.word_to_monomial(word[:cut]): coeff}
        for g in word[cut:]:
            terms = self._times_letter(terms, g, N, None)
        return PbwElement(self, _clean(terms))

    def _times_letter(self, terms: dict, g: int, order: int, parent):
        """The normal form of terms*g modulo h^(order+1).

        A term whose monomial takes g without a descent only gains the letter;
        the others go through ``_right`` at the order their coefficient's
        valuation leaves.  ``parent`` is the measure of the right
        multiplication asking, None at the top level.
        """
        W = self.cutoffs.word_degree
        out: dict = {}
        for m, c in terms.items():
            if _droppable(c, order):
                continue
            last = self._last_letter(m)
            if last is None or last < g or (last == g and self.parities[g] == EVEN):
                m2 = m[:g] + (m[g] + 1,) + m[g + 1:]
                if self.central[g] and self.monomial_degree_central(m2) > W:
                    continue
                _accumulate(out, m2, c)
                continue
            v = c.valuation()
            if v is None:
                v = c.trunc + 1  # zero known to O(h^(t+1)), t < order
            _, products = self._right(m, last, g, order - v, parent)
            for m2, r in products.items():
                x = (c * r).truncate(order)
                if not _droppable(x, order):
                    _accumulate(out, m2, x)
        return out

    def _right(self, m, last: int, g: int, k: int, parent):
        """(order, terms): the normal form of m*g modulo h^(k+1).

        m is normal with last letter ``last``, and (last, g) is a descent.
        One cache entry per (m, g) holds the highest order computed; a lower
        order reuses it, since callers truncate.  Every computation asserts
        the termination measure (order, non-central degree, inversions) of
        m*g below its caller's, so the recursion is well-founded.
        """
        key = (m, g)
        entry = self._right_cache.get(key)
        if entry is not None and entry[0] >= k:
            return entry
        degree = self.monomial_degree_noncentral(m) + (0 if self.central[g] else self.degrees[g])
        # m is normal, so the inversions of m*g are the letters of m above g
        measure = (k, degree, sum(m[g + 1:]))
        if parent is not None and not measure < parent:
            raise RewriteError(
                f"termination measure did not decrease: {self.monomial_to_word(m) + (g,)} "
                f"({parent} -> {measure})")
        sign, tail = self._rules[(last, g)]
        rest = m[:last] + (m[last] - 1,) + m[last + 1:]
        out = {}
        if sign is not None:
            one = Scalar.one().truncate(k)
            out = self._times_letter({rest: one if sign == 1 else -one}, g, k, measure)
            out = self._times_letter(out, last, k, measure)
        for tw, tc in tail.items():
            terms = {rest: tc.truncate(k)}
            for x in tw:
                terms = self._times_letter(terms, x, k, measure)
            for mono, c in terms.items():
                _accumulate(out, mono, c)
        entry = (k, {mono: c for mono, c in out.items() if not _droppable(c, k)})
        self._right_cache[key] = entry
        return entry

    def _last_letter(self, m):
        for i in range(self.n - 1, -1, -1):
            if m[i]:
                return i
        return None

    def _fill_product(self, ma, mb) -> tuple:
        """Compute and cache the entry for ma*mb: the terms {monomial:
        coefficient} of its normal form, and the same terms as (monomial,
        coefficient, central degree, unit) tuples."""
        terms = self.normal_form(self.monomial_to_word(ma) + self.monomial_to_word(mb)).terms
        central, N = self.central_degree_of, self.cutoffs.h_order
        entry = self._product_cache[(ma, mb)] = (
            terms, tuple((m, c, central[m], c.is_unit(N)) for m, c in terms.items()))
        return entry

    def product(self, ma, mb) -> dict:
        """The terms {monomial: coefficient} of the normal form of ma*mb,
        memoized per (ma, mb).  Shared with the cache: do not mutate."""
        return (self._product_cache.get((ma, mb)) or self._fill_product(ma, mb))[0]

    def product_terms(self, ma, mb) -> tuple:
        """The same terms as (monomial, coefficient, central degree, unit)
        tuples, from the same cache entry; unit is ``c.is_unit(N)``."""
        return (self._product_cache.get((ma, mb)) or self._fill_product(ma, mb))[1]

    def multiply(self, a: PbwElement, b: PbwElement) -> PbwElement:
        if a.engine is not self or b.engine is not self:
            raise PresentationError("leg mismatch")
        N = self.cutoffs.h_order
        out = self.zero()
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                c = (ca * cb).truncate(N)
                if not _droppable(c, N):
                    out.add_scaled(PbwElement(self, self.product(ma, mb)), c)
        return out

    def graded_commutator(self, a: str, b: str) -> PbwElement:
        """ab - (-1)^{|a||b|} ba for two generators, by name."""
        ga, gb = self.generator(a), self.generator(b)
        sign = -1 if self.presentation.parity(a) and self.presentation.parity(b) else 1
        return self.multiply(ga, gb) - self.multiply(gb, ga).scale(sign)

    # -- central series ------------------------------------------------------
    def central_series(self, fn: str, coeff: Scalar, gen_name: str, order=None) -> PbwElement:
        """sum_k c_k (coeff^k) g^k for the Maclaurin coefficients c_k of fn.

        ``order`` is the h-order to carry; expression evaluation passes the
        margin order so that later divisions keep full precision.
        """
        if not self.presentation.is_central(gen_name):
            raise PresentationError(f"series function on non-central generator {gen_name!r}")
        i = self.presentation.gen_index(gen_name)
        if order is None:
            order = self.cutoffs.h_order
        W = self.cutoffs.word_degree
        coeff = coeff.truncate(order)
        v = coeff.valuation()
        if v is not None and v < 0:
            raise ScalarError(f"{fn} of a coefficient with a pole in h")
        # the generator is central, so its powers are bounded by the central
        # degree cutoff; an h factor in the coefficient bounds them further
        kmax = W // max(1, self.degrees[i])
        if v is not None and v > 0:
            kmax = min(kmax, order // v)
        terms = {}
        power = Scalar.one().truncate(order)
        c0 = _series_coeff(fn, 0)
        if c0:
            terms[(0,) * self.n] = Scalar.from_fraction(c0, trunc=order)
        for k in range(1, kmax + 1):
            power = (power * coeff).truncate(order)
            ck = _series_coeff(fn, k)
            if not ck or power.is_zero():
                continue
            mono = tuple(k if j == i else 0 for j in range(self.n))
            terms[mono] = power * ck
        return PbwElement(self, _clean(terms))

    # -- expression evaluation ------------------------------------------------
    def evaluate(self, node: Node, domain=Scalar) -> PbwElement:
        """Evaluate an algebra-level expression AST to a PbwElement over ``domain``."""
        return self.evaluate_words(self._words(node, domain))

    def evaluate_words(self, words: dict) -> PbwElement:
        """The sum of the normal forms of c*w over ``words``' (w, c)."""
        out = self.zero()
        for w, c in words.items():
            out = out + self.normal_form(w, c)
        return out

    def evaluate_scalar(self, node: Node) -> Scalar:
        words = self._words(node)
        if words.keys() - {()}:
            raise PresentationError("expected a scalar expression")
        return words.get((), Scalar.zero(self.cutoffs.h_order))

    def _words(self, node: Node, domain=Scalar, legs=None) -> dict:
        """The expression's words (tensor keys with ``legs``), not normalized,
        with nonzero Scalar coefficients at h-order N, evaluated with the bound
        parameters symbolic and then substituted.  An expression the series
        arithmetic rejects, such as sinh(2) or 0/0, is bad input."""
        try:
            raw, den = self._eval(node, domain, legs)
            if den is not None:
                raw = {w: c.div(den) for w, c in raw.items()}
        except ScalarError as e:
            raise PresentationError(f"cannot evaluate {expr_to_text(node)}: {e}") from None
        N = self.cutoffs.h_order
        return _clean({w: c.to_scalar(N).substitute(self._bound) for w, c in raw.items()})

    def _eval(self, node: Node, dom, legs):
        """Evaluate to (key -> coefficient, deferred denominator or None).

        Keys are raw words.  With ``legs`` set, a Tensor node of that many legs
        may appear in sums, in products with scalars and over scalars; its legs
        are normalized once, and its keys are tuples of monomials.  The domain
        ``dom`` is Scalar (truncated h-series) or a class with Scalar's
        from_fraction, h, param, series and from_scalar, whose values have +,
        -, *, div, is_zero, truncate and to_scalar.  Every parameter, bound or
        not, is a symbol here, and a zero denominator is an error: 0*(0/0) too.
        """
        N = self._eval_order
        if isinstance(node, Num):
            return ({(): dom.from_fraction(node.value)} if node.value else {}), None
        if isinstance(node, HVar):
            return {(): dom.h()}, None
        if isinstance(node, (Param, Gen)) and (node.name in self.presentation.params
                                               or node.name in self._bound):
            return {(): dom.param(node.name)}, None
        if isinstance(node, Param):
            raise PresentationError(f"unbound parameter {node.name!r}")
        if isinstance(node, Gen):
            return {(self.presentation.gen_index(node.name),): dom.from_fraction(1)}, None
        if isinstance(node, Neg):
            raw, den = self._eval(node.arg, dom, legs)
            return {w: -c for w, c in raw.items()}, den
        if isinstance(node, Add):
            total: dict = {}
            total_den = None
            for t in node.terms:
                raw, den = self._eval(t, dom, legs)
                if den is not None:
                    # fold invertible denominators immediately, defer the rest
                    try:
                        raw = {w: c.div(den) for w, c in raw.items()}
                        den = None
                    except ScalarError:
                        pass
                # over the common denominator total_den * den
                if total_den is not None:
                    raw = {w: c * total_den for w, c in raw.items()}
                if den is not None:
                    total = {w: c * den for w, c in total.items()}
                    total_den = den if total_den is None else total_den * den
                for w, c in raw.items():
                    prev = total.get(w)
                    total[w] = c if prev is None else prev + c
            return _clean(total), total_den
        if isinstance(node, (Mul, Pow)):
            if isinstance(node, Mul):
                factors = [self._eval(f, dom, legs) for f in node.factors]
            else:
                # a power's base is evaluated once, even when the exponent is 0
                factors = [self._eval(node.base, dom, None)] * node.exp
            raw: dict = {(): dom.from_fraction(1)}
            den, tensors = None, []
            for fraw, fden in factors:
                if fden is not None:
                    den = fden if den is None else den * fden
                if legs and any(w and type(w[0]) is tuple for w in fraw):
                    tensors.append(fraw)
                else:
                    raw = self._raw_mul(raw, fraw)
            if tensors:
                scal = _as_scalar(raw, dom)
                if scal is None or len(tensors) > 1:
                    raise PresentationError("expected scalar * tensor")
                raw = _clean({k: (c * scal).truncate(N) for k, c in tensors[0].items()})
            return raw, den
        if isinstance(node, Div):
            nraw, nden = self._eval(node.num, dom, legs)
            draw, dden = self._eval(node.den, dom, None)
            dscalar = _as_scalar(draw, dom)
            if dscalar is None:
                raise PresentationError("division by a non-scalar expression")
            if dscalar.is_zero():
                dscalar.div(dscalar)  # the domain's division-by-zero error
            if dden is not None:
                # (a/d1) / (b/d2) = a d2 / (d1 b)
                nraw = {w: c * dden for w, c in nraw.items()}
            den = dscalar if nden is None else nden * dscalar
            return nraw, den
        if isinstance(node, SeriesCall):
            araw, aden = self._eval(node.arg, dom, None)
            scal = _as_scalar(araw, dom)
            if scal is not None:
                if aden is not None:
                    scal = scal.div(aden)
                return {(): dom.series(node.fn, scal, N)}, None
            gens = {w for w in araw if w}
            if len(gens) != 1 or len(next(iter(gens))) != 1 or araw.get(()) not in (None,):
                raise PresentationError(
                    "series argument must be a scalar multiple of one central generator")
            (gi,) = next(iter(gens))
            coeff = araw[(gi,)]
            if aden is not None:
                coeff = coeff.div(aden)
            el = self.central_series(node.fn, coeff.to_scalar(N), self.gen_names[gi], order=N)
            return {self.monomial_to_word(m): dom.from_scalar(c) for m, c in el.terms.items()}, None
        if isinstance(node, Tensor):
            if legs is None:
                raise PresentationError("tensor expression where an algebra element was expected")
            if len(node.legs) != legs:
                raise PresentationError(f"expected a {legs}-leg tensor")
            from .tensors import tensor_of  # tensors imports this module
            t = tensor_of(*(self.evaluate(leg, dom) for leg in node.legs))
            return {k: dom.from_scalar(c) for k, c in t.terms.items()}, None
        raise TypeError(node)

    def _raw_mul(self, a: dict, b: dict) -> dict:
        N = self._eval_order
        W = self.cutoffs.word_degree
        out: dict = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                w = wa + wb
                if self.word_degree_central(w) > W:
                    continue
                c = (ca * cb).truncate(N)
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return _clean(out)

    # -- confluence ----------------------------------------------------------
    def _rewrite_once(self, word, pos):
        """One rule application at pos; returns list of (coeff, word)."""
        sign, tail = self._rules[(word[pos], word[pos + 1])]
        prefix, suffix = word[:pos], word[pos + 2:]
        out = []
        if sign is not None:
            out.append((Scalar.from_fraction(sign), prefix + (word[pos + 1], word[pos]) + suffix))
        for tw, tc in tail.items():
            out.append((tc, prefix + tw + suffix))
        return out

    def check_confluence(self):
        """Resolve every length-3 overlap ambiguity both ways; list the failures.

        Returns (ok, failures, checked): failures are (word, left nf, right
        nf), and checked counts the overlaps resolved.
        """
        reducible = set(self._rules.keys())
        failures = []
        checked = 0
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if (i, j) not in reducible or (j, k) not in reducible:
                        continue
                    word = (i, j, k)
                    checked += 1
                    left = self.zero()
                    for c, w in self._rewrite_once(word, 0):
                        left = left + self.normal_form(w, c)
                    right = self.zero()
                    for c, w in self._rewrite_once(word, 1):
                        right = right + self.normal_form(w, c)
                    if not (left - right).is_zero():
                        failures.append((tuple(self.gen_names[x] for x in word), left, right))
        return (not failures, failures, checked)


@shared
def shared_engine(presentation: HopfPresentation, cutoffs: Cutoffs, /) -> Engine:
    """The process's Engine on ``presentation`` at ``cutoffs`` (see ``shared``)."""
    return Engine(presentation, cutoffs)


class _Memo(dict):
    """{key: fn(key)}, each value computed on its first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _clean(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if not c.is_zero()}


def _accumulate(out: dict, m, c):
    prev = out.get(m)
    out[m] = c if prev is None else prev + c


def _droppable(c, N: int) -> bool:
    """A coefficient carries no information at or below h^N."""
    if not c.is_zero():
        return False
    return c.trunc is None or c.trunc >= N


def _as_scalar(raw: dict, dom):
    for w, c in raw.items():
        if w and not c.is_zero():
            return None
    return raw.get((), dom.from_fraction(0))
