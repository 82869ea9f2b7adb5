from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfforge.scalars import ParamPoly, Scalar, ScalarError, series_fn

from oracles import maclaurin, ser_div, sinh_coeffs

N = 8


def h():
    return Scalar.h()


def sinh_h(order=N):
    return series_fn("sinh", h(), order=order)


def as_coeff_list(s, n):
    return [s.coeff(k).constant for k in range(n + 1)]


# ---------------------------------------------------------------- mul / add

def test_polynomial_identity():
    one = Scalar.one()
    assert (one + h()) * (one - h()) == one - h() * h()


def test_laurent_cancellation():
    assert Scalar.h(-1) * h() == Scalar.one()


def test_parameter_bookkeeping():
    mu, th = Scalar.param("mu"), Scalar.param("theta")
    prod = (mu * h()) * (th * h())
    assert prod == Scalar.h(2) * ParamPoly.var("mu") * ParamPoly.var("theta")


# ---------------------------------------------------------------------- div

def test_h_over_sinh_matches_long_division_oracle():
    # oracle: long division of [0,1] by sinh coefficients, shifted by one
    expected = ser_div([F(1)], sinh_coeffs(N)[1:], N - 1)
    # frozen values from the oracle
    assert expected[:6] == [F(1), F(0), F(-1, 6), F(0), F(7, 360), F(0)]
    got = h().truncate(N) / sinh_h()
    assert as_coeff_list(got, N - 2) == expected[: N - 1]


def test_sinh_over_sinh():
    assert sinh_h() / sinh_h() == Scalar.one().truncate(N - 2)


def test_inverse_sinh_has_simple_pole():
    inv = Scalar.one() / sinh_h()
    assert inv.pole_order == 1
    assert inv.coeff(-1).constant == 1
    assert inv.coeff(1).constant == F(-1, 6)
    assert inv.coeff(3).constant == F(7, 360)


def test_division_by_zero_rejected():
    with pytest.raises(ScalarError):
        Scalar.one().div(Scalar.zero())


def test_truncated_zero_over_h_loses_precision():
    # 0 + O(h^2) stands for c*h^2 + ...; divided by h it is known only to O(h^1)
    zero = Scalar.zero(1)
    assert zero.div(h()).trunc == 0
    assert zero.div(sinh_h()).trunc == 0
    assert zero.div(Scalar.h(-1)).trunc == 2
    assert Scalar.zero().div(h()).trunc is None


def test_non_invertible_leading_coefficient_rejected():
    th = Scalar.param("theta")
    with pytest.raises(ScalarError):
        Scalar.one().div(th)


def test_exact_division_by_parameter_polynomial():
    mu, th = Scalar.param("mu"), Scalar.param("theta")
    assert (mu * th).div(th) == mu
    assert (mu * th + th * th).div(th) == mu + th
    assert ((mu + th) * h()).div(mu + th) == h()
    for top, bottom in ((mu, th), (mu * mu + th, mu + th)):
        with pytest.raises(ScalarError, match="non-invertible"):
            top.div(bottom)


def test_division_lead_terms_follow_a_monomial_order():
    # these quotients exist; a lead-term rule that is not a monomial order
    # (theta above mu in degree 1, yet mu^2 above mu*theta) rejects them
    mu, th = Scalar.param("mu"), Scalar.param("theta")
    assert (mu * mu - th * th).div(mu - th) == mu + th
    assert (th * th - mu * mu).div(th - mu) == mu + th
    quotient = ((mu * mu - th * th) * h()).div((mu - th) * sinh_h())
    assert quotient == (mu + th) * (h().truncate(N) / sinh_h())


# ---------------------------------------------------------------- series_fn

def test_sinh_maclaurin():
    s = sinh_h()
    assert as_coeff_list(s, 7) == sinh_coeffs(7)


def test_cosh_of_zero():
    assert series_fn("cosh", Scalar.zero(), order=4) == Scalar.one().truncate(4)


def test_exp_inverse_pair():
    e = series_fn("exp", h() * F(1, 2), order=N)
    em = series_fn("exp", -(h() * F(1, 2)), order=N)
    assert e * em == Scalar.one().truncate(N)


def test_series_rejects_pole_and_constant_term():
    with pytest.raises(ScalarError):
        series_fn("sinh", Scalar.h(-1), order=4)
    with pytest.raises(ScalarError):
        series_fn("exp", Scalar.one() + h(), order=4)


def test_series_functional_identities():
    c = series_fn("cosh", h(), order=N)
    s = sinh_h()
    assert c * c - s * s == Scalar.one().truncate(N - 1)
    s2 = series_fn("sinh", h() * 2, order=N)
    assert s2 == (s * c * 2).truncate(N)


# -------------------------------------------------------------- substitution

def test_substitute_p_then_normalize():
    p = Scalar.param("p")
    expr = p * (h().truncate(N) / sinh_h())
    got = expr.substitute({"p": Scalar.one() - h()})
    direct = (h().truncate(N) / sinh_h()) * (Scalar.one() - h())
    assert got == direct


def test_substitute_h_to_zero():
    s = Scalar.one() - h() * h() * F(1, 6)
    assert s.substitute(h_to_zero=True) == Scalar.one()
    mu = Scalar.param("mu")
    assert (mu * Scalar.param("theta") * h()).substitute({"mu": 0}) == Scalar.zero()


def test_substitute_pole_at_zero_rejected():
    with pytest.raises(ScalarError):
        (Scalar.one() / sinh_h()).substitute(h_to_zero=True)


def test_substitute_parameter_by_series_variable():
    th = Scalar.param("theta")
    s = th * th * h()
    assert s.substitute({"theta": h()}) == Scalar.h(3)


# ---------------------------------------------------- ring axioms (property)

small_fracs = st.builds(F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))


@st.composite
def scalars(draw):
    coeffs = {}
    for k in draw(st.lists(st.integers(min_value=-1, max_value=4), max_size=3)):
        poly = ParamPoly.const(draw(small_fracs))
        if draw(st.booleans()):
            poly = poly * ParamPoly.var("mu")
        if not poly.is_zero():
            coeffs[k] = poly
    return Scalar(coeffs, trunc=draw(st.sampled_from([None, 5, 6])))


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_div_mul_roundtrip(a):
    b = Scalar.one() + h() * Scalar.param("mu") - h() * h() * F(2, 3)
    assert (a * b).div(b) == a.truncate(None if a.trunc is None else a.trunc)


def test_truncation_coherence():
    # computing at order N+2 and truncating to N equals computing at order N
    hi = series_fn("sinh", h(), order=N + 2)
    lo = series_fn("sinh", h(), order=N)
    assert hi.truncate(N) == lo
    q_hi = h().truncate(N + 2) / series_fn("sinh", h(), order=N + 2)
    q_lo = h().truncate(N) / series_fn("sinh", h(), order=N)
    assert q_hi.truncate(q_lo.trunc) == q_lo


# ------------------------------------------------ precision soundness (property)
#
# A Scalar with trunc t stands for every series whose coefficients agree with it
# up to h^t.  So an expression evaluated once on its inputs as drawn and once on
# inputs completed by arbitrary coefficients above their trunc must agree at
# every exponent up to the first result's trunc, and so must the independent
# oracle evaluation of the zero completion.

ORACLE_ORDER = 40  # oracle values are exact far beyond any trunc drawn here


@st.composite
def truncated_inputs(draw):
    """(as drawn, completed above trunc) pairs of parameter-free Scalars."""
    out = []
    for _ in range(3):
        t = draw(st.integers(1, 5))
        low = {k: ParamPoly.const(draw(small_fracs)) for k in range(draw(st.integers(0, 1)), t + 1)}
        high = {k: ParamPoly.const(draw(small_fracs)) for k in range(t + 1, t + 4)}
        low = {k: p for k, p in low.items() if not p.is_zero()}
        out.append((Scalar(low, t), Scalar({**low, **{k: p for k, p in high.items()
                                                      if not p.is_zero()}}, t + 3)))
    return out


poles = st.one_of(st.tuples(st.just("hpow"), st.integers(1, 2)),
                  st.tuples(st.just("sinh_h"), st.integers(3, 8)))
leaves = st.one_of(st.tuples(st.just("in"), st.integers(0, 2)),
                   st.tuples(st.just("hpow"), st.integers(0, 2)),
                   st.tuples(st.just("sinh_h"), st.integers(3, 8)),
                   st.tuples(st.just("const"), small_fracs))
expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub),
        st.tuples(st.just("div"), sub, poles),  # division by sinh(h) and by powers of h
        st.tuples(st.just("series"), st.sampled_from(["exp", "sinh", "cosh"]), sub)),
    max_leaves=6)


def evaluate(node, inputs):
    op = node[0]
    if op == "in":
        return inputs[node[1]]
    if op == "hpow":
        return Scalar.h(node[1])
    if op == "sinh_h":
        return series_fn("sinh", Scalar.h(), order=node[1])
    if op == "const":
        return Scalar.from_fraction(node[1])
    if op == "series":
        return series_fn(node[1], evaluate(node[2], inputs))
    a, b = evaluate(node[1], inputs), evaluate(node[2], inputs)
    return {"add": a.__add__, "sub": a.__sub__, "mul": a.__mul__, "div": a.div}[op](b)


def _o_clean(d):
    return {k: c for k, c in d.items() if c and k <= ORACLE_ORDER}


def _o_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= ORACLE_ORDER:
                out[i + j] = out.get(i + j, F(0)) + x * y
    return _o_clean(out)


def _o_div(a, b):
    if not b:
        raise ZeroDivisionError
    if not a:
        return {}
    va, vb = min(a), min(b)
    n = ORACLE_ORDER - va + vb
    q = ser_div([a.get(va + i, F(0)) for i in range(n + 1)],
                [b.get(vb + i, F(0)) for i in range(n + 1)], n)
    return _o_clean({va - vb + i: c for i, c in enumerate(q)})


def oracle(node, inputs):
    """The zero completion of the inputs, evaluated as plain h^k -> Fraction
    dicts with the series code of tests/oracles.py."""
    op = node[0]
    if op == "in":
        return {k: p.constant for k, p in inputs[node[1]].coeffs.items()}
    if op == "hpow":
        return {node[1]: F(1)}
    if op == "sinh_h":
        return _o_clean(dict(enumerate(sinh_coeffs(ORACLE_ORDER))))
    if op == "const":
        return _o_clean({0: node[1]})
    if op == "series":
        arg = oracle(node[2], inputs)
        if arg and min(arg) < 1:
            raise ZeroDivisionError  # the kernel rejects this argument too
        out, power = {}, {0: F(1)}
        for k in range(ORACLE_ORDER + 1):
            c = maclaurin(node[1], k)
            out = _o_clean({e: out.get(e, F(0)) + c * power.get(e, F(0))
                            for e in set(out) | set(power)})
            power = _o_mul(power, arg)
            if not power:
                break
        return out
    a, b = oracle(node[1], inputs), oracle(node[2], inputs)
    if op == "mul":
        return _o_mul(a, b)
    if op == "div":
        return _o_div(a, b)
    sign = 1 if op == "add" else -1
    return _o_clean({k: a.get(k, F(0)) + sign * b.get(k, F(0)) for k in set(a) | set(b)})


@settings(max_examples=200, deadline=None)
@given(expressions, truncated_inputs())
def test_known_coefficients_do_not_depend_on_the_unknown_ones(node, pairs):
    try:
        drawn = evaluate(node, [x for x, _ in pairs])
        completed = evaluate(node, [y for _, y in pairs])
        zero_completed = oracle(node, [x for x, _ in pairs])
    except (ScalarError, ZeroDivisionError):
        assume(False)
    if drawn.trunc is None:
        assert completed.trunc is None and completed.coeffs == drawn.coeffs
        top = ORACLE_ORDER // 2
    else:
        assert completed.trunc is None or completed.trunc >= drawn.trunc
        top = drawn.trunc
    exps = set(drawn.coeffs) | set(completed.coeffs) | set(zero_completed)
    for k in range(min(exps, default=0), top + 1):
        want = drawn.coeff(k)
        assert completed.coeff(k) == want, (k, drawn, completed)
        assert ParamPoly.const(zero_completed.get(k, F(0))) == want, (k, drawn)


# --------------------------------------------- the stored-exponent invariant

def _subexpressions(node):
    yield node
    if node[0] in ("add", "sub", "mul", "div"):
        yield from _subexpressions(node[1])
        yield from _subexpressions(node[2])
    elif node[0] == "series":
        yield from _subexpressions(node[2])


def _within_trunc(s):
    return s.trunc is None or all(k <= s.trunc for k in s.coeffs)


def test_series_of_a_zero_keeps_exponents_within_trunc():
    for name in ("exp", "sinh", "cosh"):
        for t in (-2, -1, 0, 3):
            s = series_fn(name, Scalar.zero(t))
            assert _within_trunc(s) and s.trunc == t, (name, t, s)
    assert repr(series_fn("exp", Scalar.zero(-1))) == "0 + O(h^0)"


@settings(max_examples=150, deadline=None)
@given(expressions, truncated_inputs())
def test_stored_exponents_never_exceed_trunc(node, pairs):
    # every intermediate value, on parameter-free inputs and on the same
    # inputs times a parameter
    drawn = [x for x, _ in pairs]
    for inputs in (drawn, [x * Scalar.param("mu") for x in drawn]):
        for sub in _subexpressions(node):
            try:
                s = evaluate(sub, inputs)
            except ScalarError:
                continue
            assert _within_trunc(s), (sub, s)
    assert _within_trunc(series_fn("exp", Scalar.zero(-1)))


# ------------------------------------- integer form against the parameter form

@st.composite
def free_scalars(draw):
    """Parameter-free Scalars, exact or truncated, poles allowed."""
    trunc = draw(st.one_of(st.none(), st.integers(-1, 6)))
    coeffs = {}
    for k in draw(st.lists(st.integers(-2, 5), max_size=4, unique=True)):
        q = draw(small_fracs)
        if q and (trunc is None or k <= trunc):
            coeffs[k] = ParamPoly.const(q)
    return Scalar(coeffs, trunc)


def _same(fast, lifted):
    # the same canonical storage fixes value, trunc and printing
    slow = lifted.substitute({"mu": 1})
    assert (fast._c, fast._den, fast._params, fast.trunc) == \
        (slow._c, slow._den, slow._params, slow.trunc)


def _agree(fast_op, lifted_op):
    """fast_op() and lifted_op() both raise ScalarError, or give the same value."""
    try:
        fast = fast_op()
    except ScalarError:
        with pytest.raises(ScalarError):
            lifted_op()
        return
    _same(fast, lifted_op())


@settings(max_examples=200, deadline=None)
@given(free_scalars(), free_scalars(), st.sampled_from(["exp", "sinh", "cosh"]),
       st.sampled_from([None, 4]))
def test_integer_form_agrees_with_the_parameter_form(a, b, fn, order):
    mu = Scalar.param("mu")
    A, B = a * mu, b * mu  # the same values, held in parameter form
    _agree(lambda: a + b, lambda: A + B)
    _agree(lambda: a - b, lambda: A - B)
    _agree(lambda: a * b, lambda: A * B)
    _agree(lambda: a * F(3, 4), lambda: A * F(3, 4))
    _agree(lambda: a.div(b), lambda: A.div(B))
    _agree(lambda: a.div(b), lambda: A.div(b))
    _agree(lambda: a.truncate(2), lambda: A.truncate(2))
    assert a.truncate(2).trunc == (2 if a.trunc is None else min(2, a.trunc))
    # a series argument needs valuation >= 1: shift a there
    arg = a if a.is_zero() else a * Scalar.h(1 - a.valuation())
    _agree(lambda: series_fn(fn, arg, order), lambda: series_fn(fn, arg * mu, order))


# ---------------------------- parameter form against a Fraction reference
#
# Ref holds {(h-exponent, monomial): Fraction} and follows the kernel's
# precision rules (the trunc of a product, of a quotient, of a series) with
# plain Fraction arithmetic of its own.

MONOS = ((), (("mu", 1),), (("theta", 1),), (("mu", 2),), (("mu", 1), ("theta", 1)))


def _ref_mono(a, b):
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _poly_div(p, d):
    """The exact quotient of {monomial: Fraction} polynomials p/d, by division
    in pure lex order with later names ranking higher; ScalarError when d does
    not divide p."""
    names = sorted({n for m in (*p, *d) for n, _ in m}, reverse=True)

    def rank(m):
        return tuple(dict(m).get(n, 0) for n in names)

    lm = max(d, key=rank)
    p, q = dict(p), {}
    while p:
        m = max(p, key=rank)
        mq = dict(m)
        for n, e in lm:
            mq[n] = mq.get(n, 0) - e
        if any(e < 0 for e in mq.values()):
            raise ScalarError("not divisible")
        mq = tuple(sorted((n, e) for n, e in mq.items() if e))
        x = q[mq] = p[m] / d[lm]
        for md, y in d.items():
            k = _ref_mono(mq, md)
            p[k] = p.get(k, F(0)) - x * y
            if not p[k]:
                del p[k]
    return q


class Ref:
    def __init__(self, terms, trunc):
        self.trunc = trunc
        self.terms = {km: q for km, q in terms.items() if q and (trunc is None or km[0] <= trunc)}

    @staticmethod
    def const(q, k=0):
        return Ref({(k, ()): F(q)}, None)

    def val(self):
        return min((k for k, _ in self.terms), default=None)

    def __add__(self, other):
        ts = [t for t in (self.trunc, other.trunc) if t is not None]
        out = dict(self.terms)
        for km, q in other.terms.items():
            out[km] = out.get(km, F(0)) + q
        return Ref(out, min(ts, default=None))

    def __neg__(self):
        return Ref({km: -q for km, q in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        ta, tb = self.trunc, other.trunc
        if not self.terms or not other.terms:
            if not self.terms and ta is None or not other.terms and tb is None:
                return Ref({}, None)
            if not self.terms and not other.terms:
                return Ref({}, ta + tb + 1)
            return Ref({}, ta + other.val() if not self.terms else tb + self.val())
        ts = [t + v for t, v in ((ta, other.val()), (tb, self.val())) if t is not None]
        out = {}
        for (ka, ma), x in self.terms.items():
            for (kb, mb), y in other.terms.items():
                km = (ka + kb, _ref_mono(ma, mb))
                out[km] = out.get(km, F(0)) + x * y
        return Ref(out, min(ts, default=None))

    def truncate(self, order):
        return Ref(self.terms, order if self.trunc is None else min(self.trunc, order))

    def div(self, other):
        """Long division; each step divides exactly by the leading coefficient
        (_poly_div) or raises ScalarError."""
        vb = other.val()
        if not self.terms:
            return Ref({}, None if self.trunc is None else self.trunc - vb)
        va = self.val()
        lead = {m: y for (k, m), y in other.terms.items() if k == vb}
        exact = self.trunc is None and other.trunc is None
        if exact:
            n_max = 24
        else:
            n_max = min(t - v for t, v in ((self.trunc, va), (other.trunc, vb)) if t is not None)
        q = {}  # n -> {monomial: coefficient of h^(va - vb + n)}
        for n in range(n_max + 1):
            acc = {m: x for (k, m), x in self.terms.items() if k == va + n}
            for (k, mb), y in other.terms.items():
                if 1 <= k - vb <= n:
                    for mq, x in q[n - k + vb].items():
                        m = _ref_mono(mb, mq)
                        acc[m] = acc.get(m, F(0)) - x * y
            q[n] = _poly_div({m: x for m, x in acc.items() if x}, lead)
        shift = va - vb
        quotient = {(n + shift, m): x for n, qn in q.items() for m, x in qn.items()}
        if exact:
            if not (Ref(quotient, None) * other - self).terms:
                return Ref(quotient, None)
            return Ref(quotient, 24 + shift)
        return Ref(quotient, n_max + shift)

    def series(self, fn, order):
        if not self.terms:
            return Ref({(0, ()): maclaurin(fn, 0)}, order if order is not None else self.trunc)
        order = self.trunc if order is None else order
        if order is None:
            raise ScalarError("exact argument")
        arg = self.truncate(order)
        out, power = Ref({(0, ()): maclaurin(fn, 0)}, order), Ref.const(1).truncate(order)
        for k in range(1, order // self.val() + 1):
            power = (power * arg).truncate(order)
            if maclaurin(fn, k):
                out = out + power * Ref.const(maclaurin(fn, k))
        return out.truncate(order)

    def scalar(self):
        polys = {}
        for (k, m), q in self.terms.items():
            polys.setdefault(k, {})[m] = q
        return Scalar({k: ParamPoly(p) for k, p in polys.items()}, self.trunc)

    def __repr__(self):
        polys = {}
        for (k, m), q in self.terms.items():
            polys.setdefault(k, {})[m] = q
        bits = []
        for k in sorted(polys):
            p = polys[k]
            terms = []
            for m in sorted(p, key=lambda m: (sum(e for _, e in m), m)):
                word = "*".join(f"{n}^{e}" if e > 1 else n for n, e in m)
                terms.append(str(p[m]) if not word else word if p[m] == 1 else f"{p[m]}*{word}")
            ps = " + ".join(terms)
            if len(terms) > 1 or ps.startswith("-"):
                ps = f"({ps})"
            hpow = "" if k == 0 else "h" if k == 1 else f"h^{k}"
            bits.append(ps if not hpow else hpow if ps == "1" else f"{ps}*{hpow}")
        s = " + ".join(bits) or "0"
        return s if self.trunc is None else f"{s} + O(h^{self.trunc + 1})"


def _check_storage(s):
    """The storage invariant of both forms."""
    c, den = s._c, s._den
    assert den > 0 and 0 not in c.values() and gcd(den, *c.values()) == 1, s
    exps = [k for k, _ in c] if s._params else list(c)
    assert all(type(k) is int for k in exps)
    assert s.trunc is None or all(k <= s.trunc for k in exps), s
    # the parameter form holds a parameter; the integer form holds none
    assert not s._params or any(m for _, m in c), s


def _matches(s, ref):
    _check_storage(s)
    assert s.trunc == ref.trunc
    assert s.exponents() == sorted({k for k, _ in ref.terms})
    for k in s.exponents():
        assert s.coeff(k) == ParamPoly({m: q for (e, m), q in ref.terms.items() if e == k})
    assert repr(s) == repr(ref)


@st.composite
def param_refs(draw, min_k=-2, max_terms=5):
    trunc = draw(st.one_of(st.none(), st.integers(-1, 6)))
    terms = {}
    for k, m, q in draw(st.lists(st.tuples(st.integers(min_k, 5), st.sampled_from(MONOS),
                                           small_fracs), max_size=max_terms)):
        terms[(k, m)] = q
    return Ref(terms, trunc)


@st.composite
def rational_lead_divisors(draw):
    v = draw(st.integers(-1, 2))
    lead = draw(small_fracs.filter(bool))
    rest = draw(param_refs(min_k=v + 1, max_terms=2))
    return Ref({**{km: q for km, q in rest.terms.items() if km[0] > v}, (v, ()): lead},
               None if rest.trunc is None else max(rest.trunc, v))


@settings(max_examples=200, deadline=None)
@given(param_refs(), param_refs(), param_refs(), rational_lead_divisors(), small_fracs,
       st.integers(-1, 4), st.sampled_from(["exp", "sinh", "cosh"]), st.sampled_from([None, 4]))
def test_parameter_form_matches_a_fraction_reference(ra, rb, rc, rd, q, order, fn, s_order):
    a, b, c, d = ra.scalar(), rb.scalar(), rc.scalar(), rd.scalar()
    for s, ref in ((a, ra), (b, rb), (d, rd)):
        _matches(s, ref)
    _matches(a + b, ra + rb)
    _matches(a - b, ra - rb)
    _matches(-a, -ra)
    _matches(a * b, ra * rb)
    _matches((a * b) * c + a, (ra * rb) * rc + ra)
    _matches(a * q, ra * Ref.const(q))
    _matches(a.truncate(order), ra.truncate(order))
    _matches(a.div(d), ra.div(rd))
    _matches((a * b).div(d), (ra * rb).div(rd))
    # a series argument needs valuation >= 1: shift a there
    shift = 0 if not ra.terms else 1 - ra.val()
    arg, rarg = a * Scalar.h(shift), ra * Ref.const(1, shift)
    try:
        got = series_fn(fn, arg, s_order)
    except ScalarError:
        with pytest.raises(ScalarError):
            rarg.series(fn, s_order)
        return
    _matches(got, rarg.series(fn, s_order))


@st.composite
def param_lead_divisors(draw):
    """Divisors whose leading coefficient is a rational, a monomial or a
    two-term parameter polynomial."""
    v = draw(st.integers(-1, 2))
    lead = {(v, m): draw(small_fracs.filter(bool))
            for m in draw(st.lists(st.sampled_from(MONOS), min_size=1, max_size=2, unique=True))}
    rest = draw(param_refs(min_k=v + 1, max_terms=2))
    return Ref({**{km: q for km, q in rest.terms.items() if km[0] > v}, **lead},
               None if rest.trunc is None else max(rest.trunc, v))


def _divides_like(x, d, rx, rd):
    """x/d matches rx/rd, or both raise ScalarError."""
    try:
        want = rx.div(rd)
    except ScalarError:
        with pytest.raises(ScalarError):
            x.div(d)
        return
    _matches(x.div(d), want)


@settings(max_examples=300, deadline=None)
@given(param_refs(), param_lead_divisors())
def test_division_by_parameter_leads_matches_the_reference(ra, rd):
    a, d = ra.scalar(), rd.scalar()
    _divides_like(a, d, ra, rd)
    # multiples of d and of d^2 (a lead of up to three terms) divide exactly
    # up to their known order
    _divides_like(a * d, d, ra * rd, rd)
    _divides_like(a * d * d, d * d, ra * rd * rd, rd * rd)


# ------------------------------------------------- products with a unit factor
#
# Scalar.__mul__ returns the other factor, truncated, for any operand stored as
# {0: 1} over 1: the exact 1 and every 1 + O(h^(t+1)).  The reference runs the
# full product.

@st.composite
def zero_or_param_refs(draw):
    """Either form, poles allowed, or a zero known to O(h^(j+1))."""
    if draw(st.booleans()):
        return Ref({}, draw(st.integers(-3, N + 2)))
    return draw(param_refs())


@settings(max_examples=300, deadline=None)
@given(zero_or_param_refs(), st.one_of(st.none(), st.integers(-2, N + 1)))
def test_a_unit_factor_matches_the_full_product(rx, t):
    # u = 1 + O(h^(t+1)), t from -2 (a zero, not a unit) to N + 1, or the exact 1
    ru = Ref.const(1) if t is None else Ref.const(1).truncate(t)
    x, u = rx.scalar(), ru.scalar()
    _matches(x * u, rx * ru)
    _matches(u * x, ru * rx)
    _matches(u * u, ru * ru)
