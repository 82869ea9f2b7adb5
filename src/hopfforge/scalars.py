"""Exact coefficient arithmetic: rationals, parameter polynomials, truncated Laurent series.

Every structure constant in the kernel is a ``Scalar``: a Laurent series in the single
deformation variable ``h``, truncated at a known order, whose coefficients are
multivariate polynomials over Q in named parameters (mu, theta, p, alpha, ...).
Parameters are exact indeterminates, never floats.

Precision bookkeeping: ``trunc`` is the largest h-exponent whose coefficient is
known; ``None`` means the value is exact (a Laurent polynomial).  Multiplication
and division propagate precision through valuations, so pole factors such as
1/sinh(h) cannot silently launder unknown coefficients into the known range.

A Scalar holds integer numerators over one common denominator, in one of two
forms chosen from its value:

- integer form, when no coefficient carries a parameter: ``{exponent: int}``;
- parameter form otherwise: ``{(exponent, monomial): int}``, where a monomial
  is a sorted tuple of (parameter name, positive exponent) and at least one
  stored monomial is not the empty one.

Both forms keep the denominator > 0, gcd(denominator, all numerators) = 1, no
zero numerator and no stored exponent above ``trunc``; each operation reduces
its result by one gcd.  An operation with a parameter-form operand reads the
other operand's exponents as (exponent, ()) keys; a result whose parameters
cancel or are truncated away is stored in integer form again.  Monomial
products are memoized.

A unit, stored as {0: 1} over 1 (the exact 1 and every 1 + O(h^(t+1))), is
always in integer form, and a product with it is the other factor truncated
at the product's usual trunc, with no numerator work: leg coefficients of
normal forms are mostly such units.  ``is_unit(N)`` tells a unit whose
product with a pole-free factor is that factor to h^N, which tensor products
then skip.  A product of two one-term integer-form factors, the next most
common, forms one numerator over the product of the denominators and
reduces it by one gcd.  Division runs one pseudo-division on the (exponent,
monomial) numerators of both forms, with one gcd at the end.  Only
this module reads the storage: other code uses ``coeff(k)``, ``coeffs`` and
``exponents()``.  Scalars are immutable and may share storage (``truncate``
can return ``self``).

``ParamPoly`` (a polynomial over Q with Fraction coefficients) is the public
coefficient type.  A Scalar builds ParamPolys only to hand them out or to read
them in: ``Scalar(coeffs, trunc)``, ``coeff(k)``/``coeffs`` (and so ``repr``)
and ``substitute``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .shared import Memo

__all__ = ["ScalarError", "ParamPoly", "Scalar", "series_fn", "gauss_jordan"]

Q0 = Fraction(0)
Q1 = Fraction(1)

# key of a parameter monomial: sorted tuple of (parameter name, positive exponent)
PPKey = tuple



class ScalarError(ArithmeticError):
    """Raised for invalid scalar operations (bad division, bad series argument)."""


def _mono_product(key) -> PPKey:
    a, b = key
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


# the memo of _mono_mul: a pure function of monomials in the few parameters
# of the loaded presentations, at the low degrees truncation leaves
_MONO_PRODUCTS = Memo(_mono_product)


def _mono_mul(a: PPKey, b: PPKey) -> PPKey:
    """The product of two parameter monomials, memoized."""
    if not a:
        return b
    if not b:
        return a
    return _MONO_PRODUCTS[a, b]


class ParamPoly:
    """Polynomial over Q in named parameters; no zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    @staticmethod
    def const(q) -> "ParamPoly":
        q = Fraction(q)
        return ParamPoly({(): q} if q else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "ParamPoly":
        if exp == 0:
            return ParamPoly.const(1)
        return ParamPoly({((name, exp),): Q1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not k for k in self.terms)

    @property
    def constant(self) -> Fraction:
        return self.terms.get((), Q0)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Q0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return ParamPoly(out)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return ParamPoly()
            return ParamPoly({k: v * q for k, v in self.terms.items()})
        out: dict = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = _mono_mul(ka, kb)
                s = out.get(k, Q0) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return ParamPoly(out)

    __rmul__ = __mul__

    def substitute(self, bindings: dict) -> "Scalar":
        """Replace parameters by Fractions or Scalars; unbound names stay symbolic."""
        total = Scalar.zero()
        for key, q in self.terms.items():
            factor = Scalar.from_fraction(q)
            residual: dict = {}
            for name, e in key:
                if name in bindings:
                    val = bindings[name]
                    val = val if isinstance(val, Scalar) else Scalar.from_fraction(Fraction(val))
                    factor = factor * val.pow(e)
                else:
                    residual[name] = e
            if residual:
                factor = factor * Scalar.from_poly(ParamPoly({tuple(sorted(residual.items())): Q1}))
            total = total + factor
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(e for _, e in k), k)):
            q = self.terms[key]
            mono = "*".join(f"{n}^{e}" if e > 1 else n for n, e in key)
            if mono:
                bits.append(f"{q}*{mono}" if q != 1 else mono)
            else:
                bits.append(str(q))
        return " + ".join(bits)


def _minsum(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _addcap(t, v):
    return None if t is None else t + v


_new = object.__new__


def _make(c: dict, den: int, trunc, params: bool = False) -> "Scalar":
    """Scalar with stored numerators c over den as they are."""
    s = _new(Scalar)
    s._c = c
    s._den = den
    s._params = params
    s.trunc = trunc
    return s


def _reduced(num: dict, den: int, trunc) -> "Scalar":
    """Integer form of num/den (nonzero numerators, den > 0), divided by their gcd."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    return _make(num, den, trunc)


def _from_terms(num: dict, den: int, trunc) -> "Scalar":
    """num/den for parameter-form numerators (nonzero, den > 0), divided by
    their gcd; in integer form when no parameter is left."""
    if not any(m for _, m in num):
        return _reduced({k: v for (k, _), v in num.items()}, den, trunc)
    s = _reduced(num, den, trunc)
    s._params = True
    return s


def _terms(s: "Scalar") -> dict:
    """The numerators of s keyed by (exponent, monomial)."""
    return s._c if s._params else {(k, ()): v for k, v in s._c.items()}


def _product(a: dict, b: dict, t) -> dict:
    """The nonzero numerators of the product of two parameter-form numerator
    maps, exponents above t (None: no bound) dropped."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # a monomial times a fixed one is injective: no two keys collide
        ((kb, mb), y), = b.items()
        return {(ka + kb, _mono_mul(ma, mb)): x * y for (ka, ma), x in a.items()
                if t is None or ka + kb <= t}
    out: dict = {}
    get = out.get
    for (ka, ma), x in a.items():
        for (kb, mb), y in b.items():
            k = ka + kb
            if t is None or k <= t:
                key = (k, _mono_mul(ma, mb))
                out[key] = get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _quotient(a: "Scalar", b: "Scalar", va: int, vb: int, n_max: int):
    """(numerators, denominator): the quotient a/b at exponents up to
    va - vb + n_max, keyed by (exponent, monomial), not yet reduced.

    One pseudo-division on the numerators: each step cancels the remainder's
    lead term (its lowest h-exponent, and there its largest monomial) against
    b's lead term at vb, first scaling the remainder when b's lead numerator
    does not divide the remainder's.  Monomials are ranked by total degree,
    then lexicographically with earlier names ranking higher: a monomial
    order, so a step finds no divisible lead exactly when the quotient does
    not exist.  Exponents above va + n_max are never formed.
    """
    top = va + n_max
    A, B = _terms(a), _terms(b)
    names = sorted({n for _, m in (*A, *B) for n, _ in m})
    rem: dict = {}  # exponent -> {monomial: numerator}
    for (k, m), x in A.items():
        if k <= top:
            rem.setdefault(k, {})[m] = x

    def rank(m):
        d = dict(m)
        return sum(d.values()), [d.get(n, 0) for n in names]

    lead = max((m for k, m in B if k == vb), key=rank)
    v = B[(vb, lead)]
    found = []  # (key, numerator, scale of the remainder when found)
    scale = 1
    for e in range(va, top + 1):
        row = rem.get(e)
        while row:
            m = max(row, key=rank) if len(row) > 1 else next(iter(row))
            c = row[m]
            qm = m
            if lead:
                d = dict(m)
                for n, x in lead:
                    if d.get(n, 0) < x:
                        raise ScalarError("non-invertible leading coefficient in division")
                    d[n] -= x
                qm = tuple((n, x) for n, x in d.items() if x)
            if c % v:
                f = abs(v) // gcd(c, v)
                for r in rem.values():
                    for k in r:
                        r[k] *= f
                scale *= f
                c *= f
            t = c // v
            found.append(((e - vb, qm), t, scale))
            for (kb, mb), y in B.items():
                k = e - vb + kb
                if k <= top:
                    r = rem.setdefault(k, {})
                    mk = _mono_mul(qm, mb)
                    x = r.get(mk, 0) - t * y
                    if x:
                        r[mk] = x
                    else:
                        del r[mk]
        rem.pop(e, None)
    db = b._den
    return {k: t * db * (scale // s) for k, t, s in found}, a._den * scale


class Scalar:
    """Truncated Laurent series in h; see the module docstring for the two forms.

    ``Scalar(coeffs, trunc)`` takes ``{h-exponent: ParamPoly}`` and stores it in
    integer form when no coefficient carries a parameter.  trunc = largest known
    exponent (None = exact); stored exponents never exceed it.
    """

    __slots__ = ("_c", "_den", "_params", "trunc")

    def __init__(self, coeffs: dict | None = None, trunc=None):
        qs = {(k, m): q for k, p in (coeffs or {}).items() if trunc is None or k <= trunc
              for m, q in p.terms.items() if q}
        den = lcm(*(q.denominator for q in qs.values()))
        s = _from_terms({km: q.numerator * (den // q.denominator) for km, q in qs.items()},
                        den, trunc)
        self._c, self._den, self._params, self.trunc = s._c, s._den, s._params, trunc

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(trunc=None) -> "Scalar":
        return _make({}, 1, trunc)

    @staticmethod
    def one() -> "Scalar":
        return _make({0: 1}, 1, None)

    @staticmethod
    def from_fraction(q, trunc=None) -> "Scalar":
        if not q or trunc is not None and trunc < 0:
            return _make({}, 1, trunc)
        if type(q) is int:
            return _make({0: q}, 1, trunc)
        q = Fraction(q)
        return _make({0: q.numerator}, q.denominator, trunc)

    @staticmethod
    def from_poly(p: ParamPoly, trunc=None) -> "Scalar":
        return Scalar({0: p}, trunc)

    @staticmethod
    def h(exp: int = 1) -> "Scalar":
        return _make({exp: 1}, 1, None)

    @staticmethod
    def param(name: str) -> "Scalar":
        return _make({(0, ((name, 1),)): 1}, 1, None, True)

    # -- structure ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._c

    def valuation(self):
        """Lowest stored h-exponent; None for the zero value."""
        if not self._c:
            return None
        if self._params:
            return min(k for k, _ in self._c)
        return min(self._c)

    @property
    def pole_order(self) -> int:
        v = self.valuation()
        return max(0, -v) if v is not None else 0

    def exponents(self) -> list:
        """The h-exponents with a nonzero coefficient, ascending."""
        if self._params:
            return sorted({k for k, _ in self._c})
        return sorted(self._c)

    def coeff(self, k: int) -> ParamPoly:
        """The coefficient of h^k (zero when not stored)."""
        den = self._den
        if self._params:
            return ParamPoly({m: Fraction(n, den) for (e, m), n in self._c.items() if e == k})
        n = self._c.get(k)
        return ParamPoly({(): Fraction(n, den)}) if n else ParamPoly()

    @property
    def coeffs(self) -> dict:
        """{h-exponent: ParamPoly} for every stored coefficient, as a new dict."""
        den = self._den
        if not self._params:
            return {k: ParamPoly({(): Fraction(n, den)}) for k, n in self._c.items()}
        out: dict = {}
        for (k, m), n in self._c.items():
            out.setdefault(k, {})[m] = Fraction(n, den)
        return {k: ParamPoly(t) for k, t in out.items()}

    def names(self) -> set:
        if not self._params:
            return set()
        return {name for _, m in self._c for name, _ in m}

    def is_unit(self, order: int) -> bool:
        """Whether this is the exact 1 or 1 + O(h^(t+1)) with t >= order.  A
        pole-free x times such a unit, truncated at order, is x truncated at
        order: the product truncates at t + valuation(x) >= order."""
        c = self._c
        return (self._den == 1 and len(c) == 1 and c.get(0) == 1
                and (self.trunc is None or self.trunc >= order))

    def truncate(self, order) -> "Scalar":
        t = self.trunc
        if order is None or (t is not None and t <= order):
            return self
        c, params = self._c, self._params
        exps = [k for k, _ in c] if params else c
        if exps and max(exps) > order:
            kept = {k: v for k, v in c.items() if (k[0] if params else k) <= order}
            return (_from_terms if params else _reduced)(kept, self._den, order)
        return _make(c, self._den, order, params)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        ta, tb = self.trunc, other.trunc
        t = _minsum(ta, tb)
        da, db = self._den, other._den
        params = self._params or other._params
        if params:
            a, b = _terms(self), _terms(other)
        else:
            a, b = self._c, other._c
        if da == db:
            out = dict(a)
            for k, v in b.items():
                s = out.get(k, 0) + v
                if s:
                    out[k] = s
                else:
                    del out[k]
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            da *= ma
            out = {k: v * ma for k, v in a.items()}
            for k, v in b.items():
                s = out.get(k, 0) + v * mb
                if s:
                    out[k] = s
                else:
                    del out[k]
        if t is not None and (ta != t or tb != t):
            out = {k: v for k, v in out.items() if (k[0] if params else k) <= t}
        return (_from_terms if params else _reduced)(out, da, t)

    def __neg__(self) -> "Scalar":
        return _make({k: -v for k, v in self._c.items()}, self._den, self.trunc, self._params)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if isinstance(other, ParamPoly):
                other = Scalar.from_poly(other)
            else:
                other = Scalar.from_fraction(other)
        a, b = self._c, other._c
        ta, tb = self.trunc, other.trunc
        if not a or not b:
            # zero times anything: an exact zero gives an exact zero; a zero
            # known to O(h^(t+1)) shifts by the other factor's valuation
            if not a and ta is None or not b and tb is None:
                return _make({}, 1, None)
            if not a and not b:
                return _make({}, 1, ta + tb + 1)
            if not a:
                return _make({}, 1, ta + other.valuation())
            return _make({}, 1, tb + self.valuation())
        da, db = self._den, other._den
        # times a unit 1 + O(h^(tu+1)) (exact when tu is None), stored as {0: 1}
        # over 1 in either form: the other factor at the product's trunc
        # min(tx, tu + vx), which truncate(tu + vx) gives
        if len(b) == 1 and db == 1 and b.get(0) == 1:
            return self if tb is None else self.truncate(tb + self.valuation())
        if len(a) == 1 and da == 1 and a.get(0) == 1:
            return other if ta is None else other.truncate(ta + other.valuation())
        params = self._params or other._params
        if len(a) == 1 and len(b) == 1 and not params:
            # one term times one term: one numerator over da*db, one gcd; as
            # ka <= ta and kb <= tb, the exponent ka + kb never passes t
            (ka, x), = a.items()
            (kb, y), = b.items()
            if ta is None:
                t = None if tb is None else tb + ka
            else:
                t = ta + kb if tb is None else min(ta + kb, tb + ka)
            x *= y
            den = da * db
            if den != 1:
                g = gcd(x, den)
                if g != 1:
                    x //= g
                    den //= g
            return _make({ka + kb: x}, den, t)
        va, vb = (self.valuation(), other.valuation()) if params else (min(a), min(b))
        if ta is None:
            t = None if tb is None else tb + va
        else:
            t = ta + vb if tb is None else min(ta + vb, tb + va)
        if params:
            return _from_terms(_product(_terms(self), _terms(other), t), da * db, t)
        if len(b) == 1:
            (kb, y), = b.items()
            out = {ka + kb: x * y for ka, x in a.items() if t is None or ka + kb <= t}
        elif len(a) == 1:
            (ka, x), = a.items()
            out = {ka + kb: x * y for kb, y in b.items() if t is None or ka + kb <= t}
        else:
            out = {}
            get = out.get
            for ka, x in a.items():
                for kb, y in b.items():
                    k = ka + kb
                    if t is None or k <= t:
                        out[k] = get(k, 0) + x * y
            out = {k: v for k, v in out.items() if v}
        return _reduced(out, da * db, t)

    __rmul__ = __mul__

    def pow(self, n: int) -> "Scalar":
        if n < 0:
            raise ScalarError("negative scalar power; use div")
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    def div(self, other: "Scalar") -> "Scalar":
        """Laurent long division, exact at every coefficient step (``_quotient``).

        Succeeds whenever each step divides exactly in the parameter ring: unit
        (rational) leading coefficients always work; a parameter-polynomial
        leading coefficient works when the quotient genuinely exists (mu*h/mu,
        (mu^2 - theta^2)/(mu - theta)).  Anything needing the inverse of a
        non-constant parameter polynomial raises ScalarError.
        """
        if other.is_zero():
            raise ScalarError("division by zero")
        if self.is_zero():
            # O(h^(t+1)) over a divisor of valuation vb is O(h^(t+1-vb))
            return Scalar.zero(_addcap(self.trunc, -other.valuation()))
        va, vb = self.valuation(), other.valuation()
        both_exact = self.trunc is None and other.trunc is None
        if both_exact:
            rel_prec = _SERIES_DEFAULT_GUARD
        else:
            rel_prec = min(t - v for t, v in ((self.trunc, va), (other.trunc, vb))
                           if t is not None)
        # quotient q = sum_n q_n h^(va - vb + n) solves q * other = self
        shift = va - vb
        num, den = _quotient(self, other, va, vb, rel_prec)
        if both_exact:
            check = _from_terms(num, den, None)
            if (check * other - self).is_zero():
                return check
            return _from_terms(num, den, _SERIES_DEFAULT_GUARD + shift)
        return _from_terms(num, den, rel_prec + shift)

    __truediv__ = div

    def inverse(self) -> "Scalar":
        return Scalar.one().div(self)

    # -- comparisons --------------------------------------------------------
    def __eq__(self, other: "Scalar") -> bool:
        """Equality of all coefficients on the common known range."""
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Scalar is not hashable")

    # -- substitution -------------------------------------------------------
    def substitute(self, bindings: dict | None = None, h_to_zero: bool = False) -> "Scalar":
        """Bind parameters to Fractions/Scalars; optionally take the h -> 0 value.

        h substitution is only allowed to 0 (the constant term); anything else is
        lossy on a truncated series and is rejected by design.
        """
        total = self
        if self._params and bindings:
            total = Scalar.zero(self.trunc)
            for k, poly in self.coeffs.items():
                total = total + Scalar.h(k) * poly.substitute(bindings)
        if h_to_zero:
            if total.pole_order > 0:
                raise ScalarError("pole at h = 0")
            return Scalar.from_poly(total.coeff(0))
        return total

    def __repr__(self):
        if not self._c:
            return "0" + ("" if self.trunc is None else f" + O(h^{self.trunc + 1})")
        bits = []
        for k in self.exponents():
            p = self.coeff(k)
            ps = repr(p)
            if len(p.terms) > 1 or (ps.startswith("-")):
                ps = f"({ps})"
            if k == 0:
                bits.append(ps)
            else:
                hpow = "h" if k == 1 else f"h^{k}"
                bits.append(hpow if ps == "1" else f"{ps}*{hpow}")
        s = " + ".join(bits)
        if self.trunc is not None:
            s += f" + O(h^{self.trunc + 1})"
        return s


# guard order used when inverting an exact series (result is transcendental);
# callers that need more precision must truncate their inputs explicitly
_SERIES_DEFAULT_GUARD = 24


def _series_coeff(name: str, k: int) -> Fraction:
    if name == "exp":
        return Fraction(1, factorial(k))
    if name == "sinh":
        return Fraction(1, factorial(k)) if k % 2 == 1 else Q0
    if name == "cosh":
        return Fraction(1, factorial(k)) if k % 2 == 0 else Q0
    raise ScalarError(f"unknown series function {name!r}")


def series_fn(name: str, arg: Scalar, order=None) -> Scalar:
    """Maclaurin composition exp/sinh/cosh(arg), truncated.

    The argument must have no pole and no constant term, so the composition is
    well defined order by order.  ``order`` defaults to the argument's own
    truncation order and must be given for exact arguments.
    """
    if name not in ("exp", "sinh", "cosh"):
        raise ScalarError(f"unknown series function {name!r}")
    if arg.is_zero():
        base = _series_coeff(name, 0)
        return Scalar.from_fraction(base, trunc=order if order is not None else arg.trunc)
    v = arg.valuation()
    if v < 0:
        raise ScalarError(f"{name} of an argument with a pole in h")
    if v == 0:
        raise ScalarError(f"{name} of an argument with nonzero constant term")
    if order is None:
        order = arg.trunc
    if order is None:
        raise ScalarError("series of an exact argument needs an explicit truncation order")
    arg = arg.truncate(order)
    out = Scalar.from_fraction(_series_coeff(name, 0), trunc=order)
    power = Scalar.one().truncate(order)
    for k in range(1, order // v + 1):
        power = (power * arg).truncate(order)
        c = _series_coeff(name, k)
        if c:
            out = out + power * c
    return out.truncate(order)


def gauss_jordan(rows, order=None) -> list:
    """Reduce a matrix of Scalars in place to reduced row echelon form.

    Columns are scanned left to right.  A column's pivot is the first entry at
    or below the current row whose leading h-coefficient is a nonzero rational,
    so that the entry is invertible; columns without one are skipped.  Pivot
    rows are scaled to 1, and every row update is truncated at h-order
    ``order``.  Returns the pivot columns; their number is the rank.

    Most entries of a matrix [G | 1] are zero, and a zero entry forms no
    product.  Times the pivot's inverse inv, a zero known to O(h^(t+1)) is
    a zero known to t + v(inv), and an exact zero stays exact, before the
    truncation at ``order``.  A row entry a minus f times a zero known to
    O(h^(t+1)) is a truncated at t + v(f), or at ``order`` when that is
    lower: where that product is known.
    """
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()
                    and rows[i][col].coeff(rows[i][col].valuation()).is_constant()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        v = inv.valuation()
        rows[r] = [(x * inv).truncate(order) if x._c else
                   _make({}, 1, _minsum(_addcap(x.trunc, v), order)) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and not f.is_zero():
                v = f.valuation()
                rows[i] = [a - (f * b).truncate(order) if b._c else
                           a.truncate(_minsum(_addcap(b.trunc, v), order))
                           for a, b in zip(row, rows[r])]
        pivots.append(col)
    return pivots
