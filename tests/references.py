"""Fold references for the product and tensor layer, shared by the tests
that compare the kernels with them.

Each reference recomputes a kernel the slow way, from public pieces.  A leg
product is ``reference_product``, the normal form of the two monomials'
concatenated words, never the product cache or ``Engine.multiply``, which is
a kernel under test (the one-leg ``tensor_mul``):

* ``reference_tensor_mul`` multiplies two PbwElements or two TensorElements
  pair by pair and leg by leg;
* ``reference_map`` sums any leg map the way ``_sum_pairs`` sums products:
  every image term times its key's coefficient, truncated at N, is added
  unless it is a zero known to h^N, and zero sums are dropped at the end;
  ``reference_multiply_legs`` is its map of the leg product;
* ``reference_antipode`` is S of a monomial as its letters' images multiplied
  from the last letter to the first by ``reference_tensor_mul``, times the
  global sign (-1)^(C(odd, 2)) of reversing the word;
* ``reference_cross_product_via_structure_constants`` is the double's
  structure-constant route summed pair by pair: every term of x's iterated
  coproduct against every term of f's, each <e_k, e^k'> and each S^-1
  contraction read afresh per pair;
* ``reference_gauss_jordan`` is the dense elimination, every entry of a row
  update formed as a product, zero or not;
* ``reference_canonical_element`` is the canonical R built on the full basis
  up to D_int, every Gram row and column kept.

The references drop a coefficient by their own copy of the kernel's rule
(``known_zero``: a zero known to h^N), never by the kernel's, so a test that
compares the two sees a change to that rule.

All compute each monomial's parity, weight and central degree from the
generator data (the ``direct_*`` helpers) instead of the engine's memos, and
all drop a key whose total central degree exceeds W, as the kernels do.
``identical`` asserts the same keys in the same order, with coefficients in
the same canonical storage (so the same value, ``trunc`` and ``repr``);
``same_terms`` asserts the same, but of the keys as a set.
"""

import math

from hopfforge.pairing import _h_basis
from hopfforge.pbw import PbwElement, _clean
from hopfforge.presentation import ODD
from hopfforge.scalars import ParamPoly, Scalar
from hopfforge.tensors import TensorElement, tensor_of


def direct_parity(e, m):
    return sum(x for x, p in zip(m, e.parities) if p == ODD) % 2


def direct_weight(e, m):
    return sum(x * w for x, w in zip(m, e.weight))


def direct_central(e, m):
    return sum(x * d for x, d, c in zip(m, e.degrees, e.central) if c)


def known_zero(c, N):
    """A zero known to h^N: exact, or known to O(h^(t+1)) with t >= N."""
    return c.is_zero() and (c.trunc is None or c.trunc >= N)


def direct_unit(c, N):
    return c.coeffs == {0: ParamPoly.const(1)} and (c.trunc is None or c.trunc >= N)


def above_w(engines, key, W):
    """Whether a key's total central degree exceeds W."""
    return sum(direct_central(e, m) for e, m in zip(engines, key)) > W


def reference_product(eng, ma, mb):
    """The normal form of the monomial product ma*mb."""
    return eng.normal_form(eng.monomial_to_word(ma) + eng.monomial_to_word(mb))


def reference_tensor_mul(a, b, max_degree=None):
    engines = a.engines
    N = min(e.cutoffs.h_order for e in engines)
    W = min(e.cutoffs.word_degree for e in engines)
    if max_degree is None:
        bound, weight = math.inf, lambda key: 0
    else:
        bound = a.weight_bound(max_degree)

        def weight(key):
            return sum(direct_weight(e, m) for e, m in zip(engines, key))
    b_items = [(b._legs(kb), cb, weight(b._legs(kb))) for kb, cb in b.terms.items()]
    acc: dict = {}
    for ka, ca in a.terms.items():
        ka = a._legs(ka)
        room = bound - weight(ka)
        pa = [direct_parity(engines[i], ka[i]) for i in range(len(engines))]
        for kb, cb, wb in b_items:
            if wb > room:
                continue
            pb = [direct_parity(engines[i], kb[i]) for i in range(len(engines))]
            sgn = 0
            for i in range(len(engines)):
                for j in range(i + 1, len(engines)):
                    sgn += pb[i] * pa[j]
            c = (ca * cb).truncate(N)
            if sgn % 2:
                c = -c
            if known_zero(c, N):
                continue
            legs = [reference_product(engines[i], ka[i], kb[i]) for i in range(len(engines))]
            _reference_distribute(acc, legs, c, N, W)
    out = a._new({a._key(k): c for k, c in _clean(acc).items()})
    return out if max_degree is None else out.window(max_degree)


def _reference_distribute(acc, legs, c, N, W):
    engines = [leg.engine for leg in legs]

    def rec(i, key, coeff):
        if known_zero(coeff, N):
            return
        if i == len(legs):
            if above_w(engines, key, W):
                return
            s = coeff.truncate(N)
            prev = acc.get(key)
            acc[key] = s if prev is None else prev + s
            return
        for m, mc in legs[i].terms.items():
            rec(i + 1, key + (m,), coeff * mc)
    rec(0, (), c)


def reference_multiply_legs(t, pos):
    eng = t.engines[pos]
    return reference_map(t, pos, 2, lambda a, b: reference_product(eng, a, b), (eng,))


def reference_map(el, pos, width, image, engines):
    """The sum over the keys of ``el`` of ``image(*legs)`` (an element over
    ``engines``, or a Scalar when no leg is left) with the other legs put
    back, each term times the key's coefficient and truncated at N.  A term
    that is a zero known to h^N is skipped and every other one is added, so a
    zero known below h^N lowers its key's ``trunc``; a zero sum is dropped at
    the end."""
    engines = el.engines[:pos] + engines + el.engines[pos + width:]
    out = PbwElement(engines[0]) if len(engines) == 1 else TensorElement(engines)
    N = out.h_order
    W = min(e.cutoffs.word_degree for e in engines)
    acc: dict = {}
    for k, c in el.terms.items():
        legs = el._legs(k)
        img = image(*legs[pos:pos + width])
        img_terms = {(): img} if isinstance(img, Scalar) else {
            img._legs(ik): ic for ik, ic in img.terms.items()}
        for ik, ic in img_terms.items():
            key = legs[:pos] + ik + legs[pos + width:]
            s = (ic * c).truncate(N)
            if above_w(engines, key, W) or known_zero(s, N):
                continue
            key = out._key(key)
            acc[key] = acc[key] + s if key in acc else s
    return out._new(_clean(acc))


def reference_antipode(ops, mono):
    """S(mono) for a HopfOps: S(w_k) ... S(w_1) for the word w_1 ... w_k of
    mono, multiplied from the left starting at the unit, times (-1)^(C(odd, 2))."""
    eng = ops.engine
    word = eng.monomial_to_word(mono)
    odd = sum(1 for i in word if eng.parities[i] == ODD)
    out = eng.one()
    for i in reversed(word):
        out = reference_tensor_mul(out, ops._anti[eng.gen_names[i]])
    return out.scale(-1 if odd * (odd - 1) // 2 % 2 else 1)


def reference_cross_product_via_structure_constants(dbl, mh, mk):
    """x*f for the basis monomials x = mh of H and f = mk of K of a Double."""
    H, K = dbl.H, dbl.K
    N = dbl.cutoffs.h_order
    mu = dbl.iterated_primal(mh)
    mm = [(n_k, u_k, k_k, c_m, K.monomial_parity(n_k),
           K.monomial_parity(u_k), K.monomial_parity(k_k))
          for (n_k, u_k, k_k), c_m in dbl.iterated_dual(mk).terms.items()]
    acc: dict = {}
    for (k_h, l_h, j_h), c_mu in mu.terms.items():
        sj = dbl.h_ops.antipode_inverse_mono(j_h)
        pl = H.monomial_parity(l_h)
        for n_k, u_k, k_k, c_m, pn, pu, pk in mm:
            gk = dbl.pairing.pair_mono(k_h, k_k)
            if known_zero(gk, N):
                continue
            sgn = pn * (pl + pk) + pu * pk
            gn = Scalar.zero(N)
            for jp, a in sj.terms.items():
                v = dbl.pairing.pair_mono(jp, n_k)
                if not known_zero(v, N):
                    gn = gn + (a * v).truncate(N)
            if known_zero(gn, N):
                continue
            coeff = (c_mu * c_m * gk * gn).truncate(N)
            if sgn % 2:
                coeff = -coeff
            mono = u_k + l_h
            prev = acc.get(mono)
            acc[mono] = coeff if prev is None else prev + coeff
    return dbl._signed(acc, mh, mk)


def reference_gauss_jordan(rows, order=None):
    """``gauss_jordan`` as a dense loop: the pivot row times the inverse,
    and every other row with a nonzero entry in the pivot column minus that
    entry times the pivot row, each product truncated at ``order``."""
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()
                    and rows[i][col].coeff(rows[i][col].valuation()).is_constant()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [(x * inv).truncate(order) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and not f.is_zero():
                rows[i] = [a - (f * b).truncate(order) for a, b in zip(row, rows[r])]
        pivots.append(col)
    return pivots


def same_scalar(c, d, where=None):
    """The same canonical storage, so the same value, trunc and printing."""
    assert (c._c, c._den, c._params, c.trunc) == (d._c, d._den, d._params, d.trunc), where


def identical(x, y):
    # the same keys in the same order, and coefficients in the same canonical
    # storage, which fixes their value, trunc and printing
    assert list(x.terms) == list(y.terms)
    same_terms(x, y)


def same_terms(x, y):
    # identical up to the order of keys
    assert x.terms.keys() == y.terms.keys()
    for k, c in x.terms.items():
        same_scalar(c, y.terms[k], k)


def reference_canonical_element(ctx):
    """The canonical element built on the full basis: per parity block, the
    Gram matrix on every basis monomial of H and of K up to D_int, inverted
    by ``reference_gauss_jordan``, and sum_s e_s (x) e^s over every row."""
    dbl, eng = ctx.dbl, ctx.engine
    H, K, pair = dbl.H, dbl.K, dbl.pairing
    out = TensorElement((eng, eng), {})
    for par in (0, 1):
        rows = [m for m in _h_basis(H, ctx.d_int) if H.monomial_parity(m) == par]
        cols = [m for m in _h_basis(K, ctx.d_int) if K.monomial_parity(m) == par]
        assert len(rows) == len(cols)
        n = len(rows)
        A = [[pair.pair_mono(r, c) for c in cols]
             + [Scalar.one() if i == j else Scalar.zero() for j in range(n)]
             for i, r in enumerate(rows)]
        assert reference_gauss_jordan(A, ctx.h_order) == list(range(n))
        for k, mh in enumerate(rows):
            dual = PbwElement(K, {mk: A[j][n + k] for j, mk in enumerate(cols)
                                  if not A[j][n + k].is_zero()})
            out = out + tensor_of(PbwElement(H, {mh: Scalar.one()}).moved_to(eng),
                                  dual.moved_to(eng))
    return out
