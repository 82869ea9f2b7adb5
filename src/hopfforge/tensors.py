"""Graded tensor products of PBW elements with Koszul signs.

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
cache entry, so no leg list is rebuilt per key pair.  Most coefficients,
of legs and of terms, are units, the exact 1 or 1 + O(h^(t+1)) with t >= N.
Times a unit, a pole-free coefficient would be truncated at t + valuation,
at or above N, and the result is truncated at N anyway; so a unit term
gives a pair the other coefficient truncated at N, and a pole-free pair
coefficient passes a unit leg unchanged.  With a pole they multiply, since
that truncation falls below N.

``tensor_mul`` and ``graded_commutator`` take two PbwElements or two
TensorElements over the same engines, read keys through ``_legs`` as
``map_legs`` does, and return an element of the operands' kind: a PbwElement
is the one-leg case, and ``Engine.multiply`` is its ``tensor_mul``.  Both
share one pair loop (``_sum_pairs``), which adds w times the legwise product
of each pair of keys it is given, w an integer weight that carries the
Koszul sign; it is the one place where a product drops a zero.  It walks
the legs with one loop written out for each of one, two and three legs, so
a term that a skip rule decides, a unit, a key above W or an empty leg
product, costs no call and forms no Scalar.
``graded_commutator(a, b, sign)`` is a*b - sign*b*a in one pass that visits
each pair {x of a, y of b} once, the pairs i <= j when ``a is b``.  When on
every leg the two monomials are equal or one of them is central (every letter
a central generator, the unit included: ``Engine.central_of``), the leg
products are the same in both orders, since central letters move by rules
with empty tails; then y*x = eps*x*y, where eps, the ratio of the two Koszul
signs, is +-1, and the pair adds (1 - sign*eps)*x*y: nothing, or one product
of weight 2.  Other pairs form both products.  One sum equals the difference
of the two products, tensor_mul(a, b) - tensor_mul(b, a).scale(sign), in
keys, coefficients and ``trunc`` when every contribution is truncated at h^N
(the difference drops a key whose sum in one product is zero, and with it
that sum's ``trunc``).  So the one pass is taken when every coefficient of a
and b is pole-free and known to h^N (one check per call); otherwise the
commutator is that difference.
"""

from __future__ import annotations

from fractions import Fraction
from operator import getitem, mul

from .lang import Node, expr_to_text
from .pbw import Engine, LinearCombination, PbwElement, _clean, _droppable
from .presentation import PresentationError
from .scalars import Scalar

__all__ = ["TensorElement", "map_legs", "leg_terms", "tensor_mul", "graded_commutator",
           "tensor_of", "evaluate_tensor", "exp_tensor"]


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
        products = eng._product_cache
        return map_legs(self, pos, 2, lambda a, b: {(m,): c for m, c, _, _ in products[a, b]},
                        (eng,))

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

    Products are summed as ``_sum_pairs`` sums them: each is truncated at N
    and skipped only when it is a zero known to h^N (``pbw._droppable``), so
    a zero known below h^N keeps its key's place and lowers that key's
    ``trunc``; a key whose total central degree exceeds W is dropped (it lies
    in the quotiented ideal), and a key whose sum is zero is dropped once, at
    the end.  With one leg left the result is a PbwElement.
    """
    end = pos + width
    inner = [e.central_degree_of for e in engines]
    outer = [e.central_degree_of for e in el.engines[:pos] + el.engines[end:]]
    engines = el.engines[:pos] + tuple(engines) + el.engines[end:]
    out = PbwElement(engines[0]) if len(engines) == 1 else TensorElement(engines)
    N = out.h_order
    W = min(e.cutoffs.word_degree for e in engines)
    legs_of, key_of = el._legs, out._key
    acc: dict = {}
    get = acc.get
    for k, c in el.terms.items():
        legs = legs_of(k)
        head, tail = legs[:pos], legs[end:]
        room = W - sum(map(getitem, outer, head + tail))
        for ik, ic in image(*legs[pos:end]).items():
            if sum(map(getitem, inner, ik)) > room:
                continue
            s = (ic * c).truncate(N)
            if s.trunc >= N and s.is_zero():
                continue
            key = key_of(head + ik + tail)
            prev = get(key)
            acc[key] = s if prev is None else prev + s
    return out._new({k: c for k, c in acc.items() if not c.is_zero()})


def leg_terms(terms: dict) -> dict:
    """{monomial: coefficient} keyed by one-leg tuples, as ``map_legs`` reads an image."""
    return {(m,): c for m, c in terms.items()}


def tensor_mul(a, b, max_degree: int | None = None):
    """Legwise product with the Koszul sign of two PbwElements or two
    TensorElements, an element of their kind; each leg product is read from its
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
    a._check_space(b)
    n, N, legs_of = len(a.engines), a.h_order, a._legs
    parities = _parities(a.engines)
    b_items = [(lb := legs_of(kb), _coef(cb, N), n > 1 and parities(lb))
               for kb, cb in b.terms.items()]
    if max_degree is None:
        rows = [(legs_of(ka), ca, b_items) for ka, ca in a.terms.items()]
    else:
        # fits[r]: the keys of b that weigh at most r, in b's order
        bound, weight = a.weight_bound(max_degree), a.weight_of_key
        b_weights = [weight(kb) for kb in b.terms]
        fits = [[x for x, w in zip(b_items, b_weights) if w <= r] for r in range(bound + 1)]
        rows = [(legs_of(ka), ca, fits[bound - w]) for ka, ca in a.terms.items()
                if (w := weight(ka)) <= bound]

    def pairs():
        # the Koszul sign (-1)^(sum_i |y_i| after_x[i]) is +1 for one leg and
        # when x is even past its first leg, and (-1)^|y_1| for two legs
        for la, ca, row in rows:
            xa = _coef(ca, N)
            if n == 1 or not any(parities(la)[1:]):
                for lb, xb, _ in row:
                    yield la, lb, xa, xb, 1
            elif n == 2:
                for lb, xb, pb in row:
                    yield la, lb, xa, xb, -1 if pb[0] else 1
            else:
                after = _after(parities(la))
                for lb, xb, pb in row:
                    yield la, lb, xa, xb, _koszul(pb, after)

    out = _sum_pairs(a, pairs())
    return out if max_degree is None else out.window(max_degree)


def graded_commutator(a, b, sign: int):
    """a*b - sign*b*a for two PbwElements or two TensorElements, an element
    of their kind, in one pass over the pairs of terms {x of a, y of b},
    each visited once (the pairs i <= j when ``a is b``); a pair whose legs
    commute adds (1 - sign*eps)*x*y (see the module docstring).  When a
    coefficient of a or b has a pole or is not known to h^N, the result is
    tensor_mul(a, b) - tensor_mul(b, a).scale(sign).  Either way it equals
    that difference in keys, coefficients and ``trunc``; only the order of
    keys may differ.
    """
    a._check_space(b)
    N = a.h_order
    if not (_known_to(a, N) and _known_to(b, N)):
        return tensor_mul(a, b) - tensor_mul(b, a).scale(sign)
    parities = _parities(a.engines)
    central = [e.central_of for e in a.engines]

    def items(t):
        out = []
        for k, c in t.terms.items():
            legs = t._legs(k)
            p = parities(legs)
            out.append((legs, _coef(c, N), p, _after(p), [z[m] for z, m in zip(central, legs)]))
        return out

    xs = items(a)
    square = a is b
    ys = xs if square else items(b)

    def pairs():
        for i, (kx, cx, px, after_x, zx) in enumerate(xs):
            for j, (ky, cy, py, after_y, zy) in enumerate(ys[i:] if square else ys):
                # the weights of x*y and y*x: in a square, x_i x_j and x_j x_i
                # both come from a*a and from sign*a*a
                w_xy, w_yx = (1 - sign, 1 - sign) if square and j else (1, -sign)
                s_xy, s_yx = _koszul(py, after_x), _koszul(px, after_y)
                if all(mx == my or cen_x or cen_y
                       for mx, my, cen_x, cen_y in zip(kx, ky, zx, zy)):
                    w = (w_xy + w_yx * s_xy * s_yx) * s_xy
                    if w:
                        yield kx, ky, cx, cy, w
                    continue
                if w_xy:
                    yield kx, ky, cx, cy, w_xy * s_xy
                if w_yx:
                    yield ky, kx, cy, cx, w_yx * s_yx

    return _sum_pairs(a, pairs())


def _parities(engines):
    parity = [e.parity_of for e in engines]
    return lambda key: [p[m] for p, m in zip(parity, key)]


def _after(p):
    """after[i] = sum_{j>i} p[j]"""
    return [sum(p[i + 1:]) for i in range(len(p))]


def _koszul(py, after_x) -> int:
    """The Koszul sign of (x_1 (x) ... (x) x_n)(y_1 (x) ... (x) y_n),
    (-1)^(sum_i |y_i| after_x[i])."""
    return -1 if sum(map(mul, py, after_x)) % 2 else 1


def _known_to(t, N: int) -> bool:
    """Every coefficient is pole-free and known to h^N."""
    return all((c.trunc is None or c.trunc >= N) and not c.pole_order for c in t.terms.values())


def _coef(c, N: int) -> tuple:
    """(c, c truncated at N, whether c is a unit to h^N, whether c is
    pole-free), as a pair reads a coefficient: a unit times a pole-free
    factor, truncated at N, is that factor truncated at N (``Scalar.is_unit``)."""
    if c.is_unit(N):
        return c, c.truncate(N), True, True
    v = c.valuation()
    return c, c.truncate(N), False, v is None or v >= 0


def _sum_pairs(a, pairs):
    """The sum of w*cx*cy*(x_1 y_1 (x) ... (x) x_n y_n) over the pairs
    (x, y, ``_coef(cx, N)``, ``_coef(cy, N)``, w) of ``pairs``, x and y legs tuples,
    each coefficient with its ``_coef`` flags, and w a nonzero integer, as an
    element of ``a``'s kind over its engines.

    The pair coefficient is cx*cy truncated at N, read off without a product
    when one factor is a unit and the other pole-free; a zero known to h^N
    ends the pair, and then w multiplies it.  Each leg product is a sequence
    of (monomial, coefficient, central degree, unit) tuples, and every leg
    product of a pair is read before an empty one ends it.  One loop per leg
    count 1, 2 and 3 (``_distribute`` for more) walks their outer product:
    a partial key whose central degree exceeds W is not extended, a
    pole-free coefficient passes a unit leg with no product, no drop test
    and no truncation (it is already kept and truncated at N), and through
    any other leg it is multiplied, dropped when it is a zero known to h^N,
    and on the last leg truncated at N.  A leaf that this truncation makes
    zero still enters the sum, where it fixes its key's place; a zero sum is
    dropped at the end.
    """
    engines = a.engines
    n = len(engines)
    N = min(e.cutoffs.h_order for e in engines)
    W = min(e.cutoffs.word_degree for e in engines)
    products = [e._product_cache for e in engines]
    p1, p2, p3 = (products + [None, None])[:3]
    acc: dict = {}
    get = acc.get
    for kx, ky, (cx, tx, ux, fx), (cy, ty, uy, fy), w in pairs:
        # a pair with an empty leg product (S*S where {S,S} = 0) adds
        # nothing, so its coefficients are not multiplied
        if n == 1:
            l1 = p1[kx[0], ky[0]]
            if not l1:
                continue
        elif n == 2:
            l1, l2 = p1[kx[0], ky[0]], p2[kx[1], ky[1]]
            if not (l1 and l2):
                continue
        elif n == 3:
            l1, l2, l3 = p1[kx[0], ky[0]], p2[kx[1], ky[1]], p3[kx[2], ky[2]]
            if not (l1 and l2 and l3):
                continue
        else:
            legs = [prod[x, y] for prod, x, y in zip(products, kx, ky)]
            if not all(legs):
                continue
        if ux and fy:
            c = ty
        elif uy and fx:
            c = tx
        else:
            c = (cx * cy).truncate(N)
        if c.trunc >= N and c.is_zero():
            continue
        if w != 1:
            c = -c if w == -1 else c * w
        skip = fx and fy or (v := c.valuation()) is None or v >= 0
        if n == 1:
            # the normal form already drops a word above W
            for m, mc, _, u in l1:
                if u and skip:
                    x = c
                else:
                    x = c * mc
                    if x.trunc >= N and x.is_zero():
                        continue
                    x = x.truncate(N)
                prev = get(m)
                acc[m] = x if prev is None else prev + x
        elif n == 2:
            for m1, c1, d1, u1 in l1:
                if d1 > W:
                    continue
                if u1 and skip:
                    x1, t1 = c, True
                else:
                    x1, t1 = c * c1, False
                    if x1.trunc >= N and x1.is_zero():
                        continue
                room = W - d1
                for m2, c2, d2, u2 in l2:
                    if d2 > room:
                        continue
                    if u2 and skip:
                        x = x1 if t1 else x1.truncate(N)
                    else:
                        x = x1 * c2
                        if x.trunc >= N and x.is_zero():
                            continue
                        x = x.truncate(N)
                    k = (m1, m2)
                    prev = get(k)
                    acc[k] = x if prev is None else prev + x
        elif n == 3:
            for m1, c1, d1, u1 in l1:
                if d1 > W:
                    continue
                if u1 and skip:
                    x1, t1 = c, True
                else:
                    x1, t1 = c * c1, False
                    if x1.trunc >= N and x1.is_zero():
                        continue
                for m2, c2, d2, u2 in l2:
                    d12 = d1 + d2
                    if d12 > W:
                        continue
                    if u2 and skip:
                        x2, t2 = x1, t1
                    else:
                        x2, t2 = x1 * c2, False
                        if x2.trunc >= N and x2.is_zero():
                            continue
                    room = W - d12
                    for m3, c3, d3, u3 in l3:
                        if d3 > room:
                            continue
                        if u3 and skip:
                            x = x2 if t2 else x2.truncate(N)
                        else:
                            x = x2 * c3
                            if x.trunc >= N and x.is_zero():
                                continue
                            x = x.truncate(N)
                        k = (m1, m2, m3)
                        prev = get(k)
                        acc[k] = x if prev is None else prev + x
        else:
            _distribute(acc, legs, 0, (), c, 0, N, W, skip)
    if n == 1:
        key_of = a._key
        return a._new({key_of((m,)): c for m, c in acc.items() if not c.is_zero()})
    return a._new({k: c for k, c in acc.items() if not c.is_zero()})


def _distribute(acc, legs, i, key, coeff, central, N, W, skip_units):
    """Accumulate the outer product of legs[i:] times coeff into acc under
    the partial key of legs[:i], as the loops of ``_sum_pairs`` do for up to
    three legs; ``tensor_of`` and products of more than three legs use it.

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
        out = out + power.scale(fact)
    return out if max_degree is None else out.window(max_degree)


def evaluate_tensor(engine: Engine, node: Node, legs: int = 2) -> TensorElement:
    """Evaluate a coproduct-style expression, scalar multiples of ``legs``-leg
    tensors over one engine (``Engine._eval``)."""
    terms = engine._words(node, legs)
    if not all(k and type(k[0]) is tuple for k in terms):
        raise PresentationError(f"cannot evaluate {expr_to_text(node)} as a {legs}-leg tensor")
    return TensorElement((engine,) * legs, terms)
