"""2- and 3-leg graded tensor products of PBW elements with Koszul signs.

Multiplication is legwise with the sign (-1)^(sum_{i<j} |y_i||x_j|) for
(x_1 (x) ... (x) x_n)(y_1 (x) ... (x) y_n); the graded flip carries
(-1)^{|x||y|}.  Legs may belong to different presentations (different engines).

Every leg map (``apply_leg``, ``expand_leg``, ``multiply_legs``, and the
Hopf maps of ``hopf`` on elements) is one kernel, ``map_legs``, the one place
where they truncate, prune keys above W and drop zeros.  The flip and the
unit-leg insertion only move keys, so they keep loops of their own.

Products and leg maps read each monomial's parity, weight and central degree
from its engine's memos, and ``tensor_mul`` reads each leg product as the
(monomial, coefficient, central degree, unit) tuples of the engine's product
cache entry, so no leg list is rebuilt per key pair.  Most leg coefficients
are units, the exact 1 or 1 + O(h^(t+1)) with t >= N.  When a pair's
coefficient has no pole, ``tensor_mul`` passes the running coefficient through
a unit leg unchanged: times a unit it would be truncated at t + valuation,
at or above N, and the result is truncated at N anyway.  With a pole it
multiplies, since that truncation falls below N.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem, mul

from .lang import Node, expr_to_text
from .pbw import Engine, LinearCombination, PbwElement, _clean, _droppable
from .presentation import PresentationError
from .scalars import Scalar

__all__ = ["TensorElement", "map_legs", "leg_terms", "tensor_of", "evaluate_tensor",
           "exp_tensor"]


class TensorElement(LinearCombination):
    """Finite Scalar-linear combination of tuples of PBW monomials, one per leg."""

    __slots__ = ("engines",)

    def __init__(self, engines, terms=None):
        self.engines = tuple(engines)
        self.terms = terms or {}

    def _new(self, terms) -> "TensorElement":
        return TensorElement(self.engines, terms)

    @staticmethod
    def _legs(key):
        return key

    @staticmethod
    def _key(legs):
        return legs

    @property
    def legs(self) -> int:
        return len(self.engines)

    @staticmethod
    def zero(engines) -> "TensorElement":
        return TensorElement(engines)

    @staticmethod
    def unit(engines) -> "TensorElement":
        key = tuple((0,) * e.n for e in engines)
        return TensorElement(engines, {key: Scalar.one()})

    def min_degree(self):
        degs = [self.degree_of_key(k) for k, c in self.terms.items() if not c.is_zero()]
        return min(degs, default=None)

    # -- multiplication --------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return tensor_mul(self, other)

    __rmul__ = LinearCombination.scale

    # -- leg operations ----------------------------------------------------------
    def flip_adjacent(self, pos: int) -> "TensorElement":
        """Graded flip of legs pos, pos+1 inside an n-leg tensor."""
        engines = list(self.engines)
        engines[pos], engines[pos + 1] = engines[pos + 1], engines[pos]
        out: dict = {}
        for key, c in self.terms.items():
            pa = self.engines[pos].parity_of[key[pos]]
            pb = self.engines[pos + 1].parity_of[key[pos + 1]]
            nk = list(key)
            nk[pos], nk[pos + 1] = nk[pos + 1], nk[pos]
            nk = tuple(nk)
            s = -c if (pa and pb) else c
            prev = out.get(nk)
            out[nk] = s if prev is None else prev + s
        return TensorElement(tuple(engines), out)

    def insert_unit_leg(self, pos: int, engine: Engine) -> "TensorElement":
        """R -> R_{13}-style embedding: insert the unit in a new leg at pos."""
        unit = (0,) * engine.n
        engines = self.engines[:pos] + (engine,) + self.engines[pos:]
        out = {}
        for key, c in self.terms.items():
            out[key[:pos] + (unit,) + key[pos:]] = c
        return TensorElement(engines, out)

    def apply_leg(self, pos: int, fn) -> "TensorElement":
        """Apply an even linear map (monomial -> PbwElement) to one leg."""
        return map_legs(self, pos, 1, lambda m: leg_terms(fn(m).terms), self.engines[pos:pos + 1])

    def multiply_legs(self, pos: int = 0):
        """The multiplication map (no sign) on legs pos, pos+1 of one engine:
        one leg fewer, and a PbwElement when a single leg is left."""
        eng = self.engines[pos]
        if self.engines[pos + 1] is not eng:
            raise PresentationError("leg mismatch")
        return map_legs(self, pos, 2, lambda a, b: leg_terms(eng.product(a, b)), (eng,))

    def expand_leg(self, pos: int, fn) -> "TensorElement":
        """Replace leg pos by the two legs of fn(monomial), an even map into the
        leg's engine's tensor square; used for coproduct leg application."""
        return map_legs(self, pos, 1, lambda m: fn(m).terms, self.engines[pos:pos + 1] * 2)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            word = " (x) ".join(e.monomial_str(m) for e, m in zip(self.engines, key))
            bits.append(f"({c!r})*[{word}]")
        return " + ".join(bits)


def map_legs(el, pos: int, width: int, image, engines):
    """The linear extension of a map on legs pos .. pos+width-1 of ``el``, a
    PbwElement or a TensorElement: each key's legs there are replaced by each
    key of ``image(*those legs)``, a {legs tuple: coefficient} dict over
    ``engines``, with the key's coefficient times the image's.

    The sum is the fold ``out + image.scale(c)`` that ``add_scaled`` makes:
    each product is truncated at N and a zero product is skipped, a key whose
    total central degree exceeds W is dropped (it lies in the quotiented
    ideal), and ``_merge`` drops a zero sum.  With one leg left the result is
    a PbwElement.
    """
    end = pos + width
    inner = [e.central_degree_of for e in engines]
    outer = [e.central_degree_of for e in el.engines[:pos] + el.engines[end:]]
    engines = el.engines[:pos] + tuple(engines) + el.engines[end:]
    out = PbwElement(engines[0]) if len(engines) == 1 else TensorElement(engines)
    N = out.h_order
    W = min(e.cutoffs.word_degree for e in engines)
    legs_of, key_of = el._legs, out._key

    def terms():
        for k, c in el.terms.items():
            legs = legs_of(k)
            head, tail = legs[:pos], legs[end:]
            room = W - sum(map(getitem, outer, head + tail))
            for ik, ic in image(*legs[pos:end]).items():
                if sum(map(getitem, inner, ik)) > room:
                    continue
                s = (ic * c).truncate(N)
                if not s.is_zero():
                    yield key_of(head + ik + tail), s

    out._merge(terms())
    return out


def leg_terms(terms: dict) -> dict:
    """{monomial: coefficient} keyed by one-leg tuples, as ``map_legs`` reads an image."""
    return {(m,): c for m, c in terms.items()}


def tensor_mul(a: TensorElement, b: TensorElement, max_degree: int | None = None
               ) -> TensorElement:
    """Legwise product with the Koszul sign; each leg product is read from its
    engine's product cache as (monomial, coefficient, central degree, unit)
    tuples, a pair with an empty leg product is skipped, and a unit leg is
    skipped when the pair's coefficient has no pole (see the module docstring).

    With ``max_degree`` D, the product's window of D (``LinearCombination.window``):
    rewriting never lowers weight, so only pairs of keys whose weights sum to
    at most the integer bound of D are visited.  A key of ``a`` above the
    bound is dropped, and each other key of ``a`` meets, in ``b``'s order,
    just the keys of ``b`` that fit in its room.  The pairs reach the sum in
    the order of the full product, so the result is the full product's
    window, keys, coefficients, ``trunc`` and order alike.
    """
    if a.legs != b.legs or any(x is not y for x, y in zip(a.engines, b.engines)):
        raise PresentationError("tensor leg mismatch")
    engines = a.engines
    n = len(engines)
    N = min(e.cutoffs.h_order for e in engines)
    W = min(e.cutoffs.word_degree for e in engines)
    parity = [e.parity_of for e in engines]
    products = [e.product_terms for e in engines]

    def parities(key):
        return [p[m] for p, m in zip(parity, key)]

    b_items = [(kb, cb, parities(kb)) for kb, cb in b.terms.items()]
    if max_degree is None:
        rows = [(ka, ca, b_items) for ka, ca in a.terms.items()]
    else:
        # fits[r]: the keys of b that weigh at most r, in b's order
        bound, weight = a.weight_bound(max_degree), a.weight_of_key
        b_weights = [weight(kb) for kb in b.terms]
        fits = [[x for x, w in zip(b_items, b_weights) if w <= r] for r in range(bound + 1)]
        rows = [(ka, ca, fits[bound - w]) for ka, ca in a.terms.items()
                if (w := weight(ka)) <= bound]
    acc: dict = {}
    for ka, ca, row in rows:
        # the Koszul sign of a pair is (-1)^(sum_i |b_i| after_a[i]), where
        # after_a[i] = sum_{j>i} |a_j|
        pa = parities(ka)
        after_a = [sum(pa[i + 1:]) for i in range(n)]
        for kb, cb, pb in row:
            # a pair with an empty leg product (S*S where {S,S} = 0) adds
            # nothing, so its coefficients are not multiplied
            legs = [prod(x, y) for prod, x, y in zip(products, ka, kb)]
            if not all(legs):
                continue
            c = (ca * cb).truncate(N)
            if sum(map(mul, pb, after_a)) % 2:
                c = -c
            if not _droppable(c, N):
                v = c.valuation()
                _distribute(acc, legs, 0, (), c, 0, N, W, v is None or v >= 0)
    out = TensorElement(engines, _clean(acc))
    return out if max_degree is None else out.window(max_degree)


def _distribute(acc, legs, i, key, coeff, central, N, W, skip_units):
    """Accumulate the outer product of legs[i:] times coeff into acc under
    the partial key of legs[:i]; each leg is a sequence of (monomial,
    coefficient, central degree, unit) tuples.

    With ``skip_units`` (coeff has no pole, and leg coefficients have none),
    coeff passes a unit leg unchanged: the product would differ only above
    h^N, and the sum is truncated at N.  Keys whose total central degree
    exceeds W live in the tensor-square image of the engine's central-degree
    ideal and are quotiented away.  Central degrees are not negative, so a
    partial key above W is not extended.
    """
    last = i == len(legs) - 1
    for m, mc, d, unit in legs[i]:
        d += central
        if d > W:
            continue
        x = coeff if unit and skip_units else coeff * mc
        if _droppable(x, N):
            continue
        if last:
            x = x.truncate(N)
            k = key + (m,)
            prev = acc.get(k)
            acc[k] = x if prev is None else prev + x
        else:
            _distribute(acc, legs, i + 1, key + (m,), x, d, N, W, skip_units)


def tensor_of(*elements: PbwElement) -> TensorElement:
    """Pure tensor of algebra elements (no signs: this is not a product)."""
    engines = tuple(el.engine for el in elements)
    acc: dict = {}
    N = min(e.cutoffs.h_order for e in engines)
    W = min(e.cutoffs.word_degree for e in engines)
    # a coefficient of an element may have a pole, so every leg multiplies
    legs = [[(m, c, el.engine.central_degree_of[m], False) for m, c in el.terms.items()]
            for el in elements]
    _distribute(acc, legs, 0, (), Scalar.one(), 0, N, W, False)
    return TensorElement(engines, _clean(acc))


def exp_tensor(x: TensorElement, degree_cutoff: int, max_degree: int | None = None
               ) -> TensorElement:
    """sum_{n<=degree_cutoff} x^n / n! for an even, filtration-positive x.

    With ``max_degree`` D, the window of D of that sum: each power is a
    windowed ``tensor_mul``, which is the window of the full power, and a
    window is taken key by key, so the sum of the windowed powers is the
    window of the full sum, keys, coefficients and ``trunc`` alike.
    """
    if x.parity() not in (0, None):
        raise PresentationError("exp of a tensor that is not even")
    md = x.min_degree()
    if md is not None and md < 1:
        raise PresentationError("exp of a tensor with a filtration-degree-0 term")
    out = TensorElement.unit(x.engines)
    power = TensorElement.unit(x.engines)
    fact = Fraction(1)
    for n in range(1, degree_cutoff + 1):
        power = tensor_mul(power, x, max_degree)
        fact = fact / n
        if power.is_zero():
            break
        out.add_scaled(power, fact)
    return out if max_degree is None else out.window(max_degree)


def evaluate_tensor(engine: Engine, node: Node, legs: int = 2, domain=Scalar) -> TensorElement:
    """Evaluate a coproduct-style expression, scalar multiples of ``legs``-leg
    tensors over one engine, with coefficients in ``domain`` (``Engine._eval``)."""
    terms = engine._words(node, domain, legs)
    if not all(k and type(k[0]) is tuple for k in terms):
        raise PresentationError(f"cannot evaluate {expr_to_text(node)} as a {legs}-leg tensor")
    return TensorElement((engine,) * legs, terms)
