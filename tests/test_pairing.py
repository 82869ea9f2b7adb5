from fractions import Fraction as F
from math import factorial

import pytest

from hopfforge.pairing import (PairingConvention, calibrate, standard_pair,
                               verify_duality)
from hopfforge.pbw import Cutoffs, PbwElement
from hopfforge.scalars import Scalar


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


def test_verify_duality_passes_dual_scaling():
    r = verify_duality(Cutoffs(5, 8), max_degree=4, alpha2=True, audit=False)
    assert r.status == "pass"
    assert any("n! * delta_nm" in d for d in r.details)


def test_verify_duality_fails_literal_scaling_with_witness():
    r = verify_duality(Cutoffs(4, 8), max_degree=3, alpha2=False, audit=False)
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
    r = verify_duality(Cutoffs(3, 6), max_degree=2, alpha2=True, audit=False)
    assert r.status == "fail"
    assert not any("n! * delta_nm" in d for d in r.details)


def test_mutated_dual_coefficient_detected():
    # doubling the xi (x) xi coefficient of Delta tau breaks adjointness
    from hopfforge.hopf import HopfOps
    from hopfforge.pairing import Pairing, _consistency_failures
    from hopfforge.pbw import Engine
    from hopfforge.presentation import (emit_presentation, load_presentation,
                                        parse_presentation)
    text = emit_presentation(load_presentation("brst_q_alpha2")).replace(
        "(h/sinh(h))*xi (x) xi", "(2*h/sinh(h))*xi (x) xi")
    k = HopfOps(Engine(parse_presentation(text), Cutoffs(4, 8)))
    h = HopfOps(Engine(load_presentation("ptsa_q"), Cutoffs(4, 8)))
    p = Pairing(h, k, {("T", "tau"): 1, ("S", "xi"): 1}, PairingConvention(True, False))
    fails = _consistency_failures(p, 2, limit=1)
    assert fails


def test_toy_abelian_pair_passes():
    from hopfforge.hopf import HopfOps
    from hopfforge.pairing import Pairing, _consistency_failures
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
