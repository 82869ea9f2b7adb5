from fractions import Fraction as F

import pytest

from hopfforge.bialgebra import (LieSuperBialgebra, check_cocycle, check_cojacobi,
                                 check_jacobi, compare_bialgebras, from_family)
from hopfforge.pbw import Cutoffs
from hopfforge.presentation import PresentationError
from hopfforge.scalars import ParamPoly

CUT = Cutoffs(6, 10)


@pytest.fixture(scope="module")
def d0():
    return from_family("d0_variety", "mu", "theta", h_mode="zero", cutoffs=CUT)


@pytest.fixture(scope="module")
def v3():
    return from_family("variety_3d", "mu", "theta", h_mode="abstract", cutoffs=CUT)


def idx(b, name):
    return b.basis.index(name)


def test_d0_extraction(d0):
    # bracket [S,tau] = -2 xi i.e. [tau,S] = +2 xi; {S,S} = 2T; cobracket xi (x) xi
    i_tau, i_S, i_xi, i_T = (idx(d0, n) for n in ("tau", "S", "xi", "T"))
    assert d0.bracket_of(i_tau, i_S) == {i_xi: ParamPoly.const(2)}
    assert d0.bracket_of(i_S, i_tau) == {i_xi: ParamPoly.const(-2)}
    assert d0.bracket_of(i_S, i_S) == {i_T: ParamPoly.const(2)}
    assert d0.cobracket[i_tau] == {(i_xi, i_xi): ParamPoly.const(1)}
    assert i_S not in d0.cobracket


def test_v3_extraction_matches_published_classical_structure(v3):
    # [S,tau] = a S - 2 b xi, [tau,xi] = a xi, {S,S} = 2 b T, {S,xi} = a T,
    # delta S = (a/2) T wedge S, delta tau = b xi (x) xi
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    i_tau, i_S, i_xi, i_T = (idx(v3, n) for n in ("tau", "S", "xi", "T"))
    assert v3.bracket_of(i_S, i_tau) == {i_S: a, i_xi: b * F(-2)}
    assert v3.bracket_of(i_tau, i_xi) == {i_xi: a}
    assert v3.bracket_of(i_S, i_S) == {i_T: b * 2}
    assert v3.bracket_of(i_S, i_xi) == {i_T: a}
    assert v3.cobracket[i_S] == {(i_T, i_S): a * F(1, 2), (i_S, i_T): a * F(-1, 2)}
    assert v3.cobracket[i_tau] == {(i_xi, i_xi): b}


def test_graded_antisymmetry_reasserted(v3):
    for (i, j), val in v3.bracket.items():
        sign = 1 if (v3.parity(i) and v3.parity(j)) else -1
        back = v3.bracket_of(j, i)
        assert back == {k: p * sign for k, p in val.items()}, (i, j)


def test_jacobi_cojacobi_cocycle_pass(v3, d0):
    for b in (v3, d0):
        assert check_jacobi(b).status == "pass"
        assert check_cojacobi(b).status == "pass"
        assert check_cocycle(b).status == "pass"


def test_zero_structure_trivially_passes():
    zero = LieSuperBialgebra("zero", ("x", "y"), (0, 1), {}, {})
    assert check_jacobi(zero).status == "pass"
    assert check_cojacobi(zero).status == "pass"
    assert check_cocycle(zero).status == "pass"
    assert compare_bialgebras(zero, zero).status == "pass"


def test_mixed_coordinates_break_the_cocycle():
    b1 = from_family("variety_3d", "mu", "theta", h_mode="abstract",
                     cutoffs=CUT, atom_names=("a1", "b1"))
    b2 = from_family("variety_3d", "mu", "theta", h_mode="abstract",
                     cutoffs=CUT, atom_names=("a2", "b2"))
    r = check_cocycle(b1, cobracket_from=b2)
    assert r.status == "fail"
    assert "a1*b2" in r.residual and "a2*b1" in r.residual


def test_newquant_first_order_equals_trivial_quantization():
    nq = from_family("newquant", "mu", "h", h_mode="zero", cutoffs=CUT)
    d0 = from_family("d0_variety", "mu", "theta", h_mode="zero", cutoffs=CUT)
    r = compare_bialgebras(nq, d0)
    assert r.status == "pass", r.text()


def test_self_comparison_identity_rescaling(v3):
    r = compare_bialgebras(v3, v3)
    assert r.status == "pass", r.text()


def test_different_bases_compare_unequal(d0):
    reordered = LieSuperBialgebra("reordered", d0.basis[::-1], d0.parities[::-1],
                                  d0.bracket, d0.cobracket)
    r = compare_bialgebras(d0, reordered)
    assert r.status == "fail" and r.residual == "different bases"


def test_contractions_are_inequivalent():
    d0 = from_family("d0_variety", "mu", "theta", h_mode="zero", cutoffs=CUT)
    d1 = from_family("d1_variety", "mu", "theta", h_mode="zero", cutoffs=CUT)
    r = compare_bialgebras(d0, d1)
    assert r.status == "fail"
    assert "support differs" in r.residual


def test_rescaled_structures_compare_unequal(d0):
    # S scaled by 2 is a diagonal rescaling of d0, but not d0: every entry
    # must agree exactly
    i_tau, i_S, i_xi, i_T = (idx(d0, n) for n in ("tau", "S", "xi", "T"))
    scaled_bracket = {
        (i_tau, i_S): {i_xi: ParamPoly.const(4)},
        (i_S, i_tau): {i_xi: ParamPoly.const(-4)},
        (i_S, i_S): {i_T: ParamPoly.const(8)},
    }
    scaled_co = {i_tau: {(i_xi, i_xi): ParamPoly.const(4)}}
    other = LieSuperBialgebra("scaled", d0.basis, d0.parities, scaled_bracket, scaled_co)
    r = compare_bialgebras(d0, other)
    assert r.status == "fail"
    assert "entry differs" in r.residual


def test_extraction_rejects_nonabelian_zeroth_order():
    # sd_hp's brackets do not vanish at p = 0
    with pytest.raises(PresentationError, match="nonzero zeroth-order term in p"):
        from_family("sd_hp", "p", "alpha", h_mode="zero", cutoffs=CUT)


_D0 = "[tau,S] = (2)*xi; {S,S} = (2)*T; delta(tau) = (1)*xi(x)xi"


@pytest.mark.parametrize("family, cobracket_param, h_mode, want", [
    ("newquant", "h", "zero", _D0),
    ("d0_variety", "theta", "zero", _D0),
    ("d1_variety", "theta", "zero",
     "[xi,tau] = (-1)*xi; {xi,S} = (1)*T; [tau,S] = (-1)*S; "
     "delta(S) = (-1/2)*S(x)T + (1/2)*T(x)S"),
    ("variety_3d", "theta", "abstract",
     "[xi,tau] = (-1*a)*xi; {xi,S} = (a)*T; [tau,S] = (2*b)*xi + (-1*a)*S; "
     "{S,S} = (2*b)*T; delta(tau) = (b)*xi(x)xi; delta(S) = (-1/2*a)*S(x)T + (1/2*a)*T(x)S"),
])
def test_every_family_extraction_is_pinned(family, cobracket_param, h_mode, want):
    got = from_family(family, "mu", cobracket_param, h_mode=h_mode, cutoffs=CUT)
    assert got.serialize() == want
