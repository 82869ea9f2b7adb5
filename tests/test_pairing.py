from fractions import Fraction as F
from math import factorial

import pytest

from hopfforge.hopf import HopfOps
from hopfforge.pairing import (STANDARD_SEED, Pairing, PairingConvention, _certification_failure,
                               _consistency_failures, _h_basis, _standard_ops, calibrate,
                               shared_lock, standard_pair, verify_duality)
from hopfforge.pbw import Cutoffs, Engine, PbwElement, _droppable
from hopfforge.presentation import emit_presentation, load_presentation, parse_presentation
from hopfforge.scalars import Scalar, gauss_jordan

CONVENTIONS = [PairingConvention(fd, fp) for fd in (True, False) for fp in (True, False)]


class DensePairing(Pairing):
    """The pairing as it was before sparse sums: every term of every sum is
    multiplied out and added, zeros known to h^N included."""

    def _split_dual(self, mh, mk) -> Scalar:
        K, H = self.K, self.H
        N = min(H.cutoffs.h_order, K.cutoffs.h_order)
        word = K.monomial_to_word(mk)
        g, rest = word[0], word[1:]
        g_mono = tuple(1 if j == g else 0 for j in range(K.n))
        rest_mono = K.word_to_monomial(rest)
        pg = K.parities[g]
        two = self.h_ops.coproduct_mono(mh)
        if self.convention.flip_primal_coproduct:
            two = two.flip_adjacent(0)
        out = Scalar.zero(N)
        for (x1, x2), c in two.terms.items():
            sign = -1 if (H.monomial_parity(x2) and pg) else 1
            val = self.pair_mono(x1, g_mono) * self.pair_mono(x2, rest_mono)
            out = out + (val * c * sign).truncate(N)
        return out

    def _split_primal(self, mh, mk) -> Scalar:
        H, K = self.H, self.K
        N = min(H.cutoffs.h_order, K.cutoffs.h_order)
        word = H.monomial_to_word(mh)
        a, rest = word[0], word[1:]
        a_mono = tuple(1 if j == a else 0 for j in range(H.n))
        rest_mono = H.word_to_monomial(rest)
        prest = H.monomial_parity(rest_mono)
        two = self.k_ops.coproduct_mono(mk)
        if self.convention.flip_dual_coproduct:
            two = two.flip_adjacent(0)
        out = Scalar.zero(N)
        for (f1, f2), c in two.terms.items():
            sign = -1 if (prest and K.monomial_parity(f1)) else 1
            val = self.pair_mono(a_mono, f1) * self.pair_mono(rest_mono, f2)
            out = out + (val * c * sign).truncate(N)
        return out

    def pair(self, x: PbwElement, f: PbwElement) -> Scalar:
        N = min(self.H.cutoffs.h_order, self.K.cutoffs.h_order)
        out = Scalar.zero(N)
        for mh, ch in x.terms.items():
            for mk, ck in f.terms.items():
                v = self.pair_mono(mh, mk)
                out = out + (v * ch * ck).truncate(N)
        return out


class UncontractedPairing(Pairing):
    """The sparse pairing before contracted rows: every recursion step walks
    the whole coproduct and reads <x1, g> (or <a, f1>) afresh."""

    def _split_dual(self, mh, mk) -> Scalar:
        H, K, N = self.H, self.K, self.N
        word = K.monomial_to_word(mk)
        g, rest = word[0], word[1:]
        g_mono = tuple(1 if j == g else 0 for j in range(K.n))
        rest_mono = K.word_to_monomial(rest)
        pg = K.parities[g]
        out = Scalar.zero(N)
        for (x1, x2), c in self.coproduct(0, mh).terms.items():
            first = self.pair_mono(x1, g_mono)
            if _droppable(first, N):
                continue
            second = self.pair_mono(x2, rest_mono)
            if _droppable(second, N):
                continue
            sign = -1 if (H.monomial_parity(x2) and pg) else 1
            out = out + (first * second * c * sign).truncate(N)
        return out

    def _split_primal(self, mh, mk) -> Scalar:
        H, K, N = self.H, self.K, self.N
        word = H.monomial_to_word(mh)
        a, rest = word[0], word[1:]
        a_mono = tuple(1 if j == a else 0 for j in range(H.n))
        rest_mono = H.word_to_monomial(rest)
        prest = H.monomial_parity(rest_mono)
        out = Scalar.zero(N)
        for (f1, f2), c in self.coproduct(1, mk).terms.items():
            first = self.pair_mono(a_mono, f1)
            if _droppable(first, N):
                continue
            second = self.pair_mono(rest_mono, f2)
            if _droppable(second, N):
                continue
            sign = -1 if (prest and K.monomial_parity(f1)) else 1
            out = out + (first * second * c * sign).truncate(N)
        return out


def uncontracted_consistency_failures(p: Pairing, max_degree: int, limit: int = 1):
    """_consistency_failures before contracted rows."""
    H, K, N = p.H, p.K, p.N
    one = Scalar.one()
    fails = []
    hb = _h_basis(H, max_degree)
    kb = _h_basis(K, max_degree)
    for xg in H.gen_names:
        x = H.generator(xg)
        (mx,) = x.terms
        for my in hb:
            xy = H.multiply(x, PbwElement(H, {my: one}))
            py = H.monomial_parity(my)
            for mf in kb:
                lhs = p.pair_terms(xy.terms, {mf: one})
                rhs = Scalar.zero()
                for (f1, f2), c in p.coproduct(1, mf).terms.items():
                    first = p.pair_mono(mx, f1)
                    if _droppable(first, N):
                        continue
                    second = p.pair_mono(my, f2)
                    if _droppable(second, N):
                        continue
                    sign = -1 if (py and K.monomial_parity(f1)) else 1
                    rhs = rhs + first * second * c * sign
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{xg}*{H.monomial_str(my)}, {K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    products: dict = {}
    for mx in hb:
        two = p.coproduct(0, mx)
        for gg in K.gen_names:
            g = K.generator(gg)
            (mg,) = g.terms
            pg = K.presentation.parity(gg)
            for mf in kb:
                gf = products.get((gg, mf))
                if gf is None:
                    gf = products[(gg, mf)] = K.multiply(g, PbwElement(K, {mf: one}))
                lhs = p.pair_terms({mx: one}, gf.terms)
                rhs = Scalar.zero()
                for (x1, x2), c in two.terms.items():
                    first = p.pair_mono(x1, mg)
                    if _droppable(first, N):
                        continue
                    second = p.pair_mono(x2, mf)
                    if _droppable(second, N):
                        continue
                    sign = -1 if (H.monomial_parity(x2) and pg) else 1
                    rhs = rhs + first * second * c * sign
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{H.monomial_str(mx)}, {gg}*{K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    return fails


def reference_consistency_failures(p: DensePairing, max_degree: int, limit: int = 1):
    """_consistency_failures before sparse sums, on one-term elements."""
    H, K = p.H, p.K
    fails = []
    hb = _h_basis(H, max_degree)
    kb = _h_basis(K, max_degree)
    for xg in H.gen_names:
        x = H.generator(xg)
        for my in hb:
            y = PbwElement(H, {my: Scalar.one()})
            xy = H.multiply(x, y)
            for mf in kb:
                f = PbwElement(K, {mf: Scalar.one()})
                lhs = p.pair(xy, f)
                two = p.k_ops.coproduct_mono(mf)
                if p.convention.flip_dual_coproduct:
                    two = two.flip_adjacent(0)
                rhs = Scalar.zero()
                py = H.monomial_parity(my)
                for (f1, f2), c in two.terms.items():
                    sign = -1 if (py and K.monomial_parity(f1)) else 1
                    rhs = rhs + p.pair(x, PbwElement(K, {f1: Scalar.one()})) \
                        * p.pair(y, PbwElement(K, {f2: Scalar.one()})) * c * sign
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{xg}*{H.monomial_str(my)}, {K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    for mx in hb:
        x = PbwElement(H, {mx: Scalar.one()})
        two = p.h_ops.coproduct_mono(mx)
        if p.convention.flip_primal_coproduct:
            two = two.flip_adjacent(0)
        for gg in K.gen_names:
            g = K.generator(gg)
            pg = K.presentation.parity(gg)
            for mf in kb:
                f = PbwElement(K, {mf: Scalar.one()})
                gf = K.multiply(g, f)
                lhs = p.pair(x, gf)
                rhs = Scalar.zero()
                for (x1, x2), c in two.terms.items():
                    sign = -1 if (H.monomial_parity(x2) and pg) else 1
                    rhs = rhs + p.pair_mono(x1, K.word_to_monomial((K.presentation.gen_index(gg),))) \
                        * p.pair(PbwElement(H, {x2: Scalar.one()}), f) * c * sign
                if not (lhs - rhs).is_zero():
                    fails.append((f"<{H.monomial_str(mx)}, {gg}*{K.monomial_str(mf)}>",
                                  repr(lhs - rhs)))
                    if len(fails) >= limit:
                        return fails
    return fails


def reference_certification_failure(p: Pairing, max_degree: int) -> str | None:
    """_certification_failure before its sums skipped equations with no
    surviving term: every adjointness difference is formed with ``pair``."""
    fails = _consistency_failures(p, max_degree, limit=1)
    if fails:
        return f"{fails[0][0]}: {fails[0][1]}"
    hb, kb = _h_basis(p.H, max_degree), _h_basis(p.K, max_degree)
    fs = [PbwElement(p.K, {mf: Scalar.one()}) for mf in kb]
    s_inv_fs = [p.k_ops.antipode_inverse(f) for f in fs]
    for mx in hb:
        x = PbwElement(p.H, {mx: Scalar.one()})
        sx = p.h_ops.antipode(x)
        for mf, f, s_inv_f in zip(kb, fs, s_inv_fs):
            diff = p.pair(sx, f) - p.pair(x, s_inv_f)
            if not diff.is_zero():
                return (f"antipode adjointness at ({p.H.monomial_str(mx)}, "
                        f"{p.K.monomial_str(mf)}): {diff!r}")
    for mf, f in zip(kb, fs):
        if not (p.pair(p.H.one(), f) - p.k_ops.counit(f)).is_zero():
            return f"unit adjointness at {p.K.monomial_str(mf)}"
    for d in range(max_degree + 1):
        hd = [m for m in hb if p.H.monomial_degree(m) == d]
        kd = [m for m in kb if p.K.monomial_degree(m) == d]
        mat = [[Scalar.from_fraction(p.pair_mono(mh, mk).coeff(0).constant, 0)
                for mk in kd] for mh in hd]
        r = len(gauss_jordan(mat, 0))
        if r != len(hd) or len(hd) != len(kd):
            return f"pairing degenerate in degree {d}: rank {r} of {len(hd)}"
    return None


def _same_scalar(a: Scalar, b: Scalar) -> bool:
    """The same canonical storage, which fixes value, trunc and printing."""
    return (a._c, a._den, a._params, a.trunc) == (b._c, b._den, b._params, b.trunc)


@pytest.fixture(scope="module")
def pairing():
    return standard_pair(Cutoffs(6, 10), alpha2=True,
                         convention=PairingConvention(True, False))


def hmono(p, **kw):
    m = [0] * p.H.n
    for k, v in kw.items():
        m[p.H.presentation.gen_index(k)] = v
    return tuple(m)


def kmono(p, **kw):
    m = [0] * p.K.n
    for k, v in kw.items():
        m[p.K.presentation.gen_index(k)] = v
    return tuple(m)


def test_generator_seed(pairing):
    p = pairing
    assert p.pair_mono(hmono(p, T=1), kmono(p, tau=1)) == Scalar.one().truncate(6)
    assert p.pair_mono(hmono(p, S=1), kmono(p, xi=1)) == Scalar.one().truncate(6)
    assert p.pair_mono(hmono(p), kmono(p)) == Scalar.one().truncate(6)


def test_parity_mismatch_vanishes(pairing):
    p = pairing
    assert p.pair_mono(hmono(p, S=1), kmono(p, tau=1)).is_zero()
    assert p.pair_mono(hmono(p, T=1), kmono(p, xi=1)).is_zero()


def test_t2_tau2_from_coproduct_oracle(pairing):
    # oracle route: <T^2, tau^2> = <T (x) T, Delta tau^2> expanded by hand = 2
    p = pairing
    assert p.pair_mono(hmono(p, T=2), kmono(p, tau=2)) == Scalar.from_fraction(2).truncate(6)


def test_factorial_normalization(pairing):
    p = pairing
    for n in range(5):
        for m in range(5):
            got = p.pair_mono(hmono(p, T=n), kmono(p, tau=m))
            want = Scalar.from_fraction(factorial(n) if n == m else 0)
            assert (got - want).is_zero(), (n, m)


def test_odd_sector_h_corrections(pairing):
    # <S, xi tau> = -h/2 and <S T^n, xi tau^m> = m! (-h/2)^(m-n)/(m-n)!
    p = pairing
    assert p.pair_mono(hmono(p, S=1), kmono(p, xi=1, tau=1)) == \
        (Scalar.h() * F(-1, 2)).truncate(6)
    got = p.pair_mono(hmono(p, S=1, T=1), kmono(p, xi=1, tau=3))
    want = (Scalar.h() * Scalar.h() * F(6, 8)).truncate(6)  # 3! (-h/2)^2/2!
    assert got == want


def test_route_independence(pairing):
    # product-side and coproduct-side reductions agree on a deep pair
    p = pairing
    x = PbwElement(p.H, {hmono(p, S=1, T=2): Scalar.one()})
    f = PbwElement(p.K, {kmono(p, xi=1, tau=2): Scalar.one()})
    direct = p.pair(x, f)
    # adjoint route: <S*T^2, f> = <S (x) T^2, Delta^op f>
    two = p.k_ops.coproduct_mono(kmono(p, xi=1, tau=2)).flip_adjacent(0)
    acc = Scalar.zero(6)
    s_el = PbwElement(p.H, {hmono(p, S=1): Scalar.one()})
    t2_el = PbwElement(p.H, {hmono(p, T=2): Scalar.one()})
    for (f1, f2), c in two.terms.items():
        sign = -1 if (p.H.monomial_parity(hmono(p, T=2)) and p.K.monomial_parity(f1)) else 1
        acc = acc + p.pair(s_el, PbwElement(p.K, {f1: Scalar.one()})) \
            * p.pair(t2_el, PbwElement(p.K, {f2: Scalar.one()})) * c * sign
    assert (direct - acc).is_zero()


def test_calibration_unique_for_dual_scaling():
    convs = calibrate(alpha2=True)
    assert convs == [PairingConvention(True, False)]


def test_no_convention_for_literal_scaling():
    assert calibrate(alpha2=False) == []


def test_the_lock_is_kept_per_pair_of_hopf_ops():
    # a mutated file has its own HopfOps, and so its own lock
    ops = _standard_ops(Cutoffs(4, 8), True)
    locked = shared_lock(*ops, 3)
    assert locked == (PairingConvention(True, False),)
    assert calibrate(alpha2=True) == list(locked) and shared_lock(*ops, 3) is locked
    mutated = _mutated_ops("brst_q_alpha2", "(h/sinh(h))*xi (x) xi", "(2*h/sinh(h))*xi (x) xi",
                           Cutoffs(4, 8))
    assert shared_lock(*mutated, 3) == ()
    assert shared_lock(*ops, 3) is locked


def test_verify_duality_passes_dual_scaling():
    r = verify_duality(Cutoffs(5, 8), max_degree=4, alpha2=True)
    assert r.status == "pass"
    assert any("n! * delta_nm" in d for d in r.details)


def test_verify_duality_fails_literal_scaling_with_witness():
    r = verify_duality(Cutoffs(4, 8), max_degree=3, alpha2=False)
    assert r.status == "fail"
    assert "inconsistent extension" in r.residual


def test_broken_normalization_does_not_downgrade_a_failure(monkeypatch):
    # after calibration, double every pairing value: adjointness and the
    # <T^n, tau^m> = n! delta_nm normalization both break, and the failure
    # must stay a failure rather than become a finding
    from hopfforge import pairing as pairing_mod
    real_calibrate, real_pair_mono = pairing_mod.calibrate, pairing_mod.Pairing.pair_mono

    def calibrate_then_break(*a, **kw):
        convs = real_calibrate(*a, **kw)
        monkeypatch.setattr(pairing_mod.Pairing, "pair_mono",
                            lambda self, mh, mk: real_pair_mono(self, mh, mk) * 2)
        return convs

    monkeypatch.setattr(pairing_mod, "calibrate", calibrate_then_break)
    r = verify_duality(Cutoffs(3, 6), max_degree=2, alpha2=True)
    assert r.status == "fail"
    assert not any("n! * delta_nm" in d for d in r.details)


def test_broken_normalization_alone_is_a_failure(monkeypatch):
    # a wrong 2! breaks only the <T^n, tau^m> = n! delta_nm normalization:
    # the pairing itself, and so every adjointness check, is left intact
    from hopfforge import pairing as pairing_mod
    from hopfforge.report import judged
    monkeypatch.setattr(pairing_mod, "factorial", lambda n: 3 if n == 2 else factorial(n))
    r = verify_duality(Cutoffs(3, 6), max_degree=2, alpha2=True)
    assert any("nondegenerate in every degree block" in d for d in r.details)
    assert (r.status, r.residual) == ("fail", "normalization at (T^2, tau^2): (-1) + O(h^4)")
    assert judged(r).status == "fail"


def test_mutated_dual_coefficient_detected():
    # doubling the xi (x) xi coefficient of Delta tau breaks adjointness
    from hopfforge.hopf import HopfOps
    from hopfforge.pbw import Engine
    from hopfforge.presentation import (emit_presentation, load_presentation,
                                        parse_presentation)
    text = emit_presentation(load_presentation("brst_q_alpha2")).replace(
        "(h/sinh(h))*xi (x) xi", "(2*h/sinh(h))*xi (x) xi")
    k = HopfOps(Engine(parse_presentation(text), Cutoffs(4, 8)))
    h = HopfOps(Engine(load_presentation("ptsa_q"), Cutoffs(4, 8)))
    p = Pairing(h, k, STANDARD_SEED, PairingConvention(True, False))
    fails = _consistency_failures(p, 2, limit=1)
    assert fails


def test_toy_abelian_pair_passes():
    from hopfforge.hopf import HopfOps
    from hopfforge.pbw import Engine
    from hopfforge.presentation import parse_presentation
    toy = """
name toy
[generators]
A even 1
[coproduct]
A = A (x) 1 + 1 (x) A
[counit]
A = 0
[antipode]
A = -A
"""
    ops = HopfOps(Engine(parse_presentation(toy), Cutoffs(4, 6)))
    p = Pairing(ops, ops, {("A", "A"): 1}, PairingConvention(True, False))
    assert not _consistency_failures(p, 3, limit=1)
    mono2 = (2,)
    assert p.pair_mono(mono2, mono2) == Scalar.from_fraction(2).truncate(4)


@pytest.mark.parametrize("cutoffs, max_degree",
                         [(Cutoffs(4, 8), 6), (Cutoffs(6, 10), 6), (Cutoffs(7, 12), 5)])
@pytest.mark.parametrize("alpha2", [True, False])
def test_sparse_sums_match_the_dense_reference(cutoffs, max_degree, alpha2):
    # every failure with its witness text, and every pairing value either side
    # computed, in the same canonical storage
    h_ops, k_ops = _standard_ops(cutoffs, alpha2)
    for conv in CONVENTIONS:
        sparse = Pairing(h_ops, k_ops, STANDARD_SEED, conv)
        dense = DensePairing(h_ops, k_ops, STANDARD_SEED, conv)
        assert _consistency_failures(sparse, max_degree, limit=10**6) == \
            reference_consistency_failures(dense, max_degree, limit=10**6)
        for key in list(sparse._memo):
            assert _same_scalar(sparse._memo[key], dense.pair_mono(*key)), (conv, key)
        for key in list(dense._memo):
            assert _same_scalar(sparse.pair_mono(*key), dense._memo[key]), (conv, key)


def test_pair_keeps_a_zero_known_below_the_h_order(monkeypatch):
    # a zero pairing value known only to h^(N-2) must lower the sum's trunc:
    # a skip rule that ignored trunc would return 2 + O(h^(N+1))
    p = standard_pair(Cutoffs(6, 10))
    N = p.N
    patched_key = (hmono(p, T=1), kmono(p, xi=1))
    real_pair_mono = Pairing.pair_mono

    def pair_mono(self, mh, mk):
        if (tuple(mh), tuple(mk)) == patched_key:
            return Scalar.zero(N - 2)
        return real_pair_mono(self, mh, mk)

    monkeypatch.setattr(Pairing, "pair_mono", pair_mono)
    x = p.H.generator("T") + p.H.generator("S")
    f = p.K.generator("tau") + p.K.generator("xi")
    got = p.pair(x, f)
    assert got.trunc == N - 2
    assert got.exponents() == [0] and got.coeff(0).constant == 2


@pytest.mark.parametrize("cutoffs", [Cutoffs(6, 10), Cutoffs(7, 12), Cutoffs(4, 9),
                                     Cutoffs(2, 5), Cutoffs(0, 4), Cutoffs(3, 3)], ids=str)
@pytest.mark.parametrize("alpha2", [True, False])
def test_contracted_rows_match_the_uncontracted_pairing(cutoffs, alpha2):
    # the first failures with their witnesses, and every memoized pairing
    # value, in the same canonical storage; the literal scaling fails
    h_ops, k_ops = _standard_ops(cutoffs, alpha2)
    failed = []
    for conv in CONVENTIONS:
        for max_degree in (2, 4, 6):
            rows = Pairing(h_ops, k_ops, STANDARD_SEED, conv)
            plain = UncontractedPairing(h_ops, k_ops, STANDARD_SEED, conv)
            got = _consistency_failures(rows, max_degree, limit=5)
            assert got == uncontracted_consistency_failures(plain, max_degree, limit=5), \
                (conv, max_degree)
            assert rows._memo.keys() == plain._memo.keys(), (conv, max_degree)
            for key, value in rows._memo.items():
                assert _same_scalar(value, plain._memo[key]), (conv, max_degree, key)
            failed += got
    assert failed  # the witnesses were compared too


def _same_certification(h_ops, k_ops, max_degree):
    """_certification_failure and its reference on two fresh pairings: the
    same result and the same memoized pairing values; returns the result."""
    conv = PairingConvention(True, False)
    got = Pairing(h_ops, k_ops, STANDARD_SEED, conv)
    want = Pairing(h_ops, k_ops, STANDARD_SEED, conv)
    result = _certification_failure(got, max_degree)
    assert result == reference_certification_failure(want, max_degree)
    assert got._memo.keys() == want._memo.keys()
    for key, value in got._memo.items():
        assert _same_scalar(value, want._memo[key]), key
    return result


@pytest.mark.parametrize("cutoffs, max_degree",
                         [(Cutoffs(6, 10), 2), (Cutoffs(6, 10), 6), (Cutoffs(4, 8), 5),
                          (Cutoffs(7, 12), 4), (Cutoffs(2, 5), 3), (Cutoffs(0, 4), 4)], ids=str)
def test_adjointness_matches_the_reference(cutoffs, max_degree):
    assert _same_certification(*_standard_ops(cutoffs, True), max_degree) is None


def _mutated_ops(name, old, new, cutoffs):
    """HopfOps of ptsa_q and brst_q_alpha2 with one line of ``name`` edited,
    on their own engines, so the shared ones never see the edit."""
    texts = {n: emit_presentation(load_presentation(n)) for n in ("ptsa_q", "brst_q_alpha2")}
    assert texts[name].count(old) == 1
    texts[name] = texts[name].replace(old, new)
    return tuple(HopfOps(Engine(parse_presentation(texts[n]), cutoffs))
                 for n in ("ptsa_q", "brst_q_alpha2"))


@pytest.mark.parametrize("max_degree", [1, 3, 5])
@pytest.mark.parametrize("name, old, new, witness", [
    # S(xi) = xi: the failing-reports witness
    ("brst_q_alpha2", "xi = -xi", "xi = xi", "(S, xi): (-2) + O(h^7)"),
    # S(T) = 0: <S(T), tau> has no term, <T, S^-1(tau)> has one
    ("ptsa_q", "T = -T", "T = 0", "(T, tau): 1 + O(h^7)")])
def test_adjointness_matches_the_reference_on_a_failing_antipode(name, old, new, witness,
                                                                 max_degree):
    ops = _mutated_ops(name, old, new, Cutoffs(6, 10))
    assert _same_certification(*ops, max_degree) == f"antipode adjointness at {witness}"


def test_an_identity_with_one_side_empty_still_fails():
    # an S (x) S term in Delta T: <T, xi*xi> pairs no term of xi*xi = 0, while
    # its coproduct side <S, xi> <S, xi> survives
    ops = _mutated_ops("ptsa_q", "T = T (x) 1 + 1 (x) T", "T = T (x) 1 + 1 (x) T + S (x) S",
                       Cutoffs(6, 10))
    conv = PairingConvention(True, False)
    rows = Pairing(*ops, STANDARD_SEED, conv)
    plain = UncontractedPairing(*ops, STANDARD_SEED, conv)
    got = _consistency_failures(rows, 2, limit=10**6)
    assert got == uncontracted_consistency_failures(plain, 2, limit=10**6)
    assert ("<T, xi*xi>", "1 + O(h^7)") in got
    assert rows._memo.keys() == plain._memo.keys()


@pytest.mark.parametrize("D, N", [(4, 4), (5, 5), (6, 6)])
@pytest.mark.parametrize("alpha2", [True, False], ids=["alpha2", "literal"])
def test_the_gram_matrix_vanishes_where_the_filtration_says(D, N, alpha2):
    # every <x, f> with w_H(x) > w_K(f) on the basis up to D_int = D + N + 2
    p = standard_pair(Cutoffs(N, D + N + 2), alpha2=alpha2)
    assert p.filtration == ((0, 1), (0, 1))  # w_H (S, T), w_K (xi, tau)
    w_h, w_k = p.filtration
    checked = 0
    for mh in _h_basis(p.H, D + N + 2):
        for mk in _h_basis(p.K, D + N + 2):
            if sum(e * w for e, w in zip(mh, w_h)) > sum(e * w for e, w in zip(mk, w_k)):
                assert p.pair_mono(mh, mk).is_zero(), (mh, mk)
                checked += 1
    assert checked > 0
