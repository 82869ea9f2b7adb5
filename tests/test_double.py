import itertools
import shutil
from fractions import Fraction as F

import pytest

from hopfforge.cli import main
from hopfforge.double import Double, derive_double_presentation
from hopfforge.hopf import HopfOps
from hopfforge.pairing import STANDARD_SEED, Pairing, _h_basis, standard_pair
from hopfforge.pbw import Cutoffs, Engine
from hopfforge.presentation import data_dir, load_presentation
from hopfforge.scalars import Scalar, series_fn


@pytest.fixture(scope="module")
def dbl():
    return Double(standard_pair(Cutoffs(6, 10), alpha2=True))


@pytest.fixture(scope="module")
def derivation():
    return derive_double_presentation(Cutoffs(6, 10))


def mono(eng, **kw):
    m = [0] * eng.n
    for k, v in kw.items():
        m[eng.presentation.gen_index(k)] = v
    return tuple(m)


# ------------------------------------------------------------------- phi / psi

def test_phi_of_unit_and_xi(dbl):
    t = dbl.phi(mono(dbl.K))
    assert t.coefficient((mono(dbl.K), mono(dbl.K), mono(dbl.K))) == Scalar.one().truncate(6)
    t2 = dbl.phi(mono(dbl.K, xi=1))
    xi, e = mono(dbl.K, xi=1), mono(dbl.K)
    for key in [(xi, e, e), (e, xi, e), (e, e, xi)]:
        assert t2.coefficient(key) == Scalar.one().truncate(6)


def test_phi_of_tau_carries_dual_coefficient(dbl):
    t = dbl.phi(mono(dbl.K, tau=1))
    xi, e = mono(dbl.K, xi=1), mono(dbl.K)
    gamma = Scalar.h().truncate(9).div(series_fn("sinh", Scalar.h(), order=9)).truncate(6)
    # placements of the xi (x) xi block after the leg swap, with the flip sign
    assert t.coefficient((xi, xi, e)) == gamma
    assert t.coefficient((xi, e, xi)) == gamma
    assert (t.coefficient((e, xi, xi)) + gamma).is_zero()


def test_psi_of_unit_and_t(dbl):
    t = dbl.psi(mono(dbl.H))
    assert t.coefficient((mono(dbl.H), mono(dbl.H), mono(dbl.H))) == Scalar.one().truncate(6)
    tt = dbl.psi(mono(dbl.H, T=1))
    T, e = mono(dbl.H, T=1), mono(dbl.H)
    assert (tt.coefficient((T, e, e)) + Scalar.one().truncate(6)).is_zero()
    assert tt.coefficient((e, T, e)) == Scalar.one().truncate(6)
    assert tt.coefficient((e, e, T)) == Scalar.one().truncate(6)


def test_psi_of_s_has_antipoded_third_placement(dbl):
    t = dbl.psi(mono(dbl.H, S=1))
    S, e = mono(dbl.H, S=1), mono(dbl.H)
    # the S (x) e^{hT/2} (x) e^{hT/2} block appears with the antipode sign
    assert (t.coefficient((S, e, e)) + Scalar.one().truncate(6)).is_zero()


# ------------------------------------------------------- per-monomial memo

def _terms(t):
    """Keys with the exact coefficients and trunc of each, for comparison."""
    return {k: (c.coeffs, c.trunc) for k, c in t.terms.items()}


def _tensors_of(d, mh, mk):
    return [d.psi(mh), d.phi(mk), d.iterated_primal(mh), d.iterated_dual(mk)]


def _low_degree_pairs(d):
    """Every pair of basis monomials of degree <= 3."""
    return list(itertools.product(_h_basis(d.H, 3), _h_basis(d.K, 3)))


def test_memoized_tensors_equal_a_fresh_double():
    d = Double(standard_pair(Cutoffs(4, 8), alpha2=True))
    for mh, mk in _low_degree_pairs(d):
        kept = _tensors_of(d, mh, mk)
        fresh = _tensors_of(Double(standard_pair(Cutoffs(4, 8), alpha2=True)), mh, mk)
        assert [_terms(t) for t in kept] == [_terms(t) for t in fresh], (mh, mk)
        # the second read is the kept tensor itself
        assert all(a is b for a, b in zip(kept, _tensors_of(d, mh, mk)))


def test_route_check_leaves_memoized_tensors_unchanged():
    d = Double(standard_pair(Cutoffs(4, 8), alpha2=True))
    pairs = _low_degree_pairs(d)
    for mh, mk in pairs:
        _tensors_of(d, mh, mk)
    before = {key: _terms(t) for key, t in d._tensors.items()}
    for mh, mk in pairs:
        assert (d.cross_product(mh, mk)
                - d.cross_product_via_structure_constants(mh, mk)).is_zero()
    assert {key: _terms(t) for key, t in d._tensors.items()} == before


# ------------------------------------------------------------ cross relations

def test_antipode_inverse_requires_an_involution():
    # its own HopfOps and Pairing, so the shared ones never see the edit
    cut = Cutoffs(4, 8)
    h_ops, k_ops = (HopfOps(Engine(load_presentation(name), cut))
                    for name in ("ptsa_q", "brst_q_alpha2"))
    d = Double(Pairing(h_ops, k_ops, STANDARD_SEED))
    d.h_ops._anti["T"] = d.H.generator("T").scale(2)  # S^2(T) = 4T
    mh, mk = mono(d.H, S=1), mono(d.K, xi=1)
    with pytest.raises(NotImplementedError):
        d.psi(mh)
    with pytest.raises(NotImplementedError):
        d.cross_product_via_structure_constants(mh, mk)


def test_cross_product_t_tau_commutes(dbl):
    assert dbl.cross_bracket("T", "tau", "contraction").is_zero()
    assert dbl.cross_bracket("T", "xi", "contraction").is_zero()


def test_cross_product_s_xi_gives_sinh(dbl):
    rhs = dbl.cross_bracket("S", "xi", "contraction")
    c = dbl.engine
    want = c.central_series("sinh", Scalar.h() * F(1, 2), "T").scale(2)
    assert (rhs - want).is_zero()


def test_cross_product_s_tau_matches_reference(dbl):
    rhs = dbl.cross_bracket("S", "tau", "contraction")
    c = dbl.engine
    hS = c.generator("S").scale(Scalar.h())
    gamma2 = (Scalar.from_fraction(2) * Scalar.h().truncate(9)).div(
        series_fn("sinh", Scalar.h(), order=9))
    xicosh = c.multiply(c.generator("xi"),
                        c.central_series("cosh", Scalar.h() * F(1, 2), "T"))
    want = hS - xicosh.scale(gamma2.truncate(6))
    assert (rhs - want).is_zero()


def test_routes_agree_on_generator_pairs(dbl):
    for hg in ("S", "T"):
        for kg in ("tau", "xi"):
            r1 = dbl.cross_bracket(hg, kg, "contraction")
            r2 = dbl.cross_bracket(hg, kg, "structure-constants")
            assert (r1 - r2).is_zero(), (hg, kg)


def test_routes_agree_on_every_low_degree_pair():
    d = Double(standard_pair(Cutoffs(4, 8), alpha2=True))
    pairs = _low_degree_pairs(d)
    assert len(pairs) == 49
    for mh, mk in pairs:
        r1 = d.cross_product(mh, mk)
        r2 = d.cross_product_via_structure_constants(mh, mk)
        assert (r1 - r2).is_zero(), (mh, mk)


# --------------------------------------------------------------- derivation

def test_derivation_report_passes(derivation):
    derived, report, _ = derivation
    assert report.status == "pass", report.text()
    assert derived is not None


def test_derived_double_matches_published_cross_relations(derivation):
    derived, report, _ = derivation
    assert any("derived [S,tau] matches" in d for d in report.details)
    assert any("derived {S,xi} matches" in d for d in report.details)
    assert any("alpha=2" in d for d in report.details)


def test_derived_double_is_hopf_and_confluent(derivation):
    derived, _, dbl = derivation
    from hopfforge.hopf import verify_hopf
    assert verify_hopf(derived, Cutoffs(5, 8)).status == "pass"
    eng = Engine(derived, Cutoffs(5, 8))
    ok, failures, _ = eng.check_confluence()
    assert ok, failures


def test_cross_relations_degenerate_at_h0(derivation):
    # at h -> 0: [S,tau] = -2 xi, {S,xi} = 0, [T,.] = 0
    derived, _, dbl = derivation
    st = dbl.cross_bracket("S", "tau").substitute(h_to_zero=True)
    c = dbl.engine
    assert (st + c.generator("xi").scale(2)).is_zero()
    assert dbl.cross_bracket("S", "xi").substitute(h_to_zero=True).is_zero()
    assert dbl.cross_bracket("T", "tau").substitute(h_to_zero=True).is_zero()


def test_emitted_derived_presentation_parses(derivation):
    derived, _, _ = derivation
    from hopfforge.presentation import emit_presentation, parse_presentation
    text = emit_presentation(derived)
    again = parse_presentation(text)
    assert again.gen_names() == derived.gen_names()


# ------------------------------------------------------------ failure paths

@pytest.fixture
def wrong_reference(tmp_path, monkeypatch):
    """A data dir whose sd_reference publishes [S,tau] with cosh(h*T) in
    place of cosh(h*T/2)."""
    data = tmp_path / "data"
    shutil.copytree(data_dir(), data)
    ref = data / "sd_reference.hopf"
    text = ref.read_text()
    assert text.count("cosh(h*T/2)") == 1
    ref.write_text(text.replace("cosh(h*T/2)", "cosh(h*T)"))
    monkeypatch.setenv("HOPFFORGE_DATA_DIR", str(data))


def test_a_wrong_published_bracket_fails_the_reconstruction(wrong_reference):
    derived, report, _ = derive_double_presentation(Cutoffs(4, 8))
    assert report.status == "fail"
    assert derived is None
    assert report.residual.startswith("[S,tau] differs from the published double: ")
    assert report.residual in report.details


def test_a_wrong_published_bracket_fails_check_rmatrix_without_raising(wrong_reference,
                                                                        capsys):
    assert main(["check", "rmatrix", "--which", "intertwine"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_a_route_disagreement_fails_the_reconstruction(monkeypatch):
    via_constants = Double.cross_product_via_structure_constants

    def perturbed(self, x, f):
        return via_constants(self, x, f) + self.engine.generator("xi")

    monkeypatch.setattr(Double, "cross_product_via_structure_constants", perturbed)
    derived, report, _ = derive_double_presentation(Cutoffs(4, 8))
    assert report.status == "fail"
    assert derived is None
    assert report.residual.startswith("[T,tau] differs between the routes: ")
    assert report.residual.endswith("*xi")
    assert sum("differs between the routes" in d for d in report.details) == 4
