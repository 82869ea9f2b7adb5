import json
import shutil
from argparse import Namespace
from fractions import Fraction as F
from math import factorial
from pathlib import Path

import pytest

from hopfforge import cli, double, presentation, rmatrix
from hopfforge.double import Double, verify_universal_identity
from hopfforge.lang import parse_expr_text
from hopfforge.pairing import Pairing
from hopfforge.pbw import Engine
from hopfforge.report import judged
from hopfforge.rmatrix import (RMatrixContext, build_R, check_triangularity,
                               verify_auxiliary, verify_coproduct_laws,
                               verify_intertwining)
from hopfforge.scalars import Scalar
from hopfforge.tensors import TensorElement, exp_tensor, tensor_mul, tensor_of

from references import identical, reference_canonical_element


@pytest.fixture(scope="module")
def ctx():
    return RMatrixContext(4, 4)


@pytest.fixture(scope="module")
def R_closed(ctx):
    return build_R(ctx, "closed-form")


@pytest.fixture(scope="module")
def R_canon(ctx):
    return build_R(ctx, "canonical")


def key(ctx, leg1, leg2):
    eng = ctx.engine
    a, b = [0] * eng.n, [0] * eng.n
    for name, e in leg1.items():
        a[eng.presentation.gen_index(name)] = e
    for name, e in leg2.items():
        b[eng.presentation.gen_index(name)] = e
    return (tuple(a), tuple(b))


# ------------------------------------------------------------------ structure

def test_closed_form_low_degree_terms(ctx, R_closed):
    assert R_closed.coefficient(key(ctx, {}, {})) == Scalar.one().truncate(4)
    assert R_closed.coefficient(key(ctx, {"S": 1}, {"xi": 1})) == Scalar.one().truncate(4)
    assert R_closed.coefficient(key(ctx, {"T": 1}, {"tau": 1})) == Scalar.one().truncate(4)
    assert R_closed.coefficient(key(ctx, {"S": 1, "T": 1}, {"xi": 1, "tau": 1})) == \
        Scalar.one().truncate(4)


def test_exponential_coefficients(ctx, R_closed, R_canon):
    for n in range(5):
        want = Scalar.from_fraction(F(1, factorial(n)))
        got_p = R_closed.coefficient(key(ctx, {"T": n}, {"tau": n}))
        got_c = R_canon.coefficient(key(ctx, {"T": n}, {"tau": n}))
        assert (got_p - want).is_zero() and (got_c - want).is_zero(), n


def test_canonical_r_has_the_exponential_correction(ctx, R_closed, R_canon):
    # the canonical element is (1 + S e^{hT/2} (x) xi) e^{T (x) tau}
    d = R_canon - R_closed
    assert d.coefficient(key(ctx, {"S": 1, "T": 1}, {"xi": 1})) == \
        (Scalar.h() * F(1, 2)).truncate(4)
    assert d.coefficient(key(ctx, {"S": 1, "T": 2}, {"xi": 1})) == \
        (Scalar.h() * Scalar.h() * F(1, 8)).truncate(4)
    assert d.coefficient(key(ctx, {"S": 1}, {"xi": 1})).is_zero()
    assert d.coefficient(key(ctx, {"T": 2}, {"tau": 2})).is_zero()


# ------------------------------------------------------------------- checks

def test_intertwining_canonical_passes(ctx, R_canon):
    r = verify_intertwining(ctx, R_canon, "canonical")
    assert r.status == "pass", r.text()


def test_intertwining_closed_form_fails_at_order_h2(ctx, R_closed):
    r = verify_intertwining(ctx, R_closed, "closed-form")
    assert r.status == "fail"
    assert "T^2 (x) xi" in r.residual and "1/2*h^2" in r.residual


def test_intertwining_on_t_is_trivial(ctx, R_canon):
    from hopfforge.tensors import tensor_mul
    eng = ctx.engine
    two = ctx.ops.coproduct(eng.generator("T"))
    diff = tensor_mul(R_canon, two) - tensor_mul(two.flip_adjacent(0), R_canon)
    assert diff.is_zero()


def test_coproduct_laws_canonical(ctx, R_canon):
    r = verify_coproduct_laws(ctx, R_canon, "canonical")
    assert r.status == "pass", r.text()


def test_auxiliary_identity_confirmed(ctx):
    r = verify_auxiliary(ctx)
    assert r.status == "pass"
    assert any("confirmed exactly" in d for d in r.details)


def test_auxiliary_finding_text_matches_full_products(ctx, monkeypatch):
    # a wrong prefactor, exp(3hT) for exp(2hT), fails the identity; the residual
    # and the corrected prefactor are those the unwindowed products gave
    central_series = Engine.central_series
    monkeypatch.setattr(Engine, "central_series", lambda self, fn, x, gen, order:
                        central_series(self, fn, x * F(3, 2), gen, order=order))
    r = verify_auxiliary(ctx)
    assert r.status == "fail"  # an established identity that fails is a failure
    assert judged(r).status == "fail"
    assert r.residual == "((-1/2) + 1/12*h^2 + (-7/720)*h^4 + O(h^5))*[T (x) xi (x) xi]"
    assert r.details == [
        "published prefactor fails; corrected prefactor: (1 + (-1/6)*h^2 + 7/360*h^4 + "
        "O(h^5))*T + (h + (-1/6)*h^3 + O(h^5))*T^2 + (2/3*h^2 + (-1/9)*h^4 + O(h^5))*T^3"
        " + (1/3*h^3 + O(h^5))*T^4 + (2/15*h^4 + O(h^5))*T^5"]


def test_solve_prefactor_recovers_a_known_prefactor_and_names_a_stray_term():
    # rhs = (1 + g (x) xi (x) xi) E gives back g; with a stray term added,
    # the solver names that term in words
    ctx = RMatrixContext(2, 2)
    eng = ctx.engine
    T, tau, xi, one = eng.generator("T"), eng.generator("tau"), eng.generator("xi"), eng.one()
    g = T.scale(Scalar.h()) + (T * T).scale(F(1, 2))
    E = exp_tensor(tensor_of(T, one, tau) + tensor_of(T, tau, one), ctx.d_int + 2)
    pure = TensorElement.unit((eng,) * 3) + tensor_of(g, xi, xi)
    assert rmatrix._solve_prefactor(ctx, tensor_mul(pure, E)) == repr(g)
    stray = pure + tensor_of(T, tau, xi)
    assert rmatrix._solve_prefactor(ctx, tensor_mul(stray, E)) == \
        "(no pure prefactor: stray term (1 + O(h^3))*[T (x) tau (x) xi])"


def test_triangularity_is_a_finding(ctx, R_canon):
    # the check reports that R21 R = 1 fails; the claims table makes that a finding
    r = check_triangularity(ctx, R_canon, "canonical")
    assert r.status == "fail"
    assert "T (x) tau" in r.residual
    assert any("R R^-1 == 1 (x) 1: True" in d for d in r.details)
    assert judged(r).status == "finding"
    assert "T (x) tau" in r.residual  # the finding keeps the residual
    assert any("quasitriangular, not triangular" in d for d in r.details)


def test_triangularity_of_a_triangular_element_is_a_failure(ctx):
    # R = 1 (x) 1 is triangular: the check passes, and a refuted claim that
    # holds at D >= 2 is a failure
    unit = TensorElement.unit((ctx.engine, ctx.engine))
    r = check_triangularity(ctx, unit, "canonical")
    assert (r.status, r.residual) == ("pass", None)
    assert any("R21 R == 1 (x) 1: True" in d for d in r.details)
    assert judged(r).status == "fail"
    assert r.residual == "refuted claim now holds"
    assert "quasitriangular, not triangular" in r.details[-1]


def test_closed_form_that_intertwines_fails_the_command(monkeypatch, capsys):
    # were the published closed form the canonical element, it would pass
    # intertwining, and the refuted claim would fail `check rmatrix`
    monkeypatch.setattr(cli, "build_R", lambda c, variant: build_R(c, "canonical"))
    argv = ["--format", "json", "--h-order", "1", "--tensor-degree", "3",
            "check", "rmatrix", "--which", "intertwine"]
    assert cli.main(argv) == 1
    docs = json.loads(capsys.readouterr().out)
    assert [(d["check"], d["status"], d["residual"]) for d in docs] == [
        ("rmatrix-intertwining[canonical]", "pass", None),
        ("rmatrix-intertwining[closed-form]", "fail", "refuted claim now holds")]


def test_universal_identity_canonical(ctx, R_canon):
    r = verify_universal_identity(ctx.dbl, R_canon, max_degree=3, compare_degree=4)
    assert r.status == "pass", r.text()
    # the cutoffs stated are those of the engine R lives in
    assert r.cutoffs == {"N": ctx.h_order, "W": ctx.d_int, "D": 3}


def test_universal_identity_unit_case(ctx, R_canon):
    r = verify_universal_identity(ctx.dbl, R_canon, max_degree=0, compare_degree=4)
    assert r.status == "pass"


def test_universal_identity_closed_form_fails(ctx, R_closed):
    r = verify_universal_identity(ctx.dbl, R_closed, max_degree=2, compare_degree=4)
    assert r.status == "fail"


def test_stability_of_retained_terms():
    small = RMatrixContext(3, 3)
    big = RMatrixContext(4, 4)
    r_small = build_R(small, "canonical")
    r_big = build_R(big, "canonical")
    for kk, c in r_small.truncate_degree(3).terms.items():
        kk_big = tuple(tuple(m) + (0,) * 0 for m in kk)
        cb = r_big.coefficient(kk_big).truncate(c.trunc)
        assert (cb - c).is_zero(), kk


# ------------------------------------------------------- shared audit context

AUDITED = {
    "intertwining": lambda c: verify_intertwining(c, build_R(c, "canonical"), "canonical"),
    "coproduct-laws": lambda c: verify_coproduct_laws(c, build_R(c, "canonical"), "canonical"),
    "auxiliary": verify_auxiliary,
}


def snapshot(t):
    return {k: (c.coeffs, c.trunc) for k, c in t.terms.items()}


def test_check_rmatrix_builds_one_audit_context(monkeypatch):
    built = []
    init = RMatrixContext.__init__

    def counting(self, degree, h_order):
        built.append((degree, h_order))
        init(self, degree, h_order)

    monkeypatch.setattr(RMatrixContext, "__init__", counting)
    reports = cli._rmatrix(Namespace(tensor_degree=3, h_order=3), "all")
    assert built == [(3, 3), (4, 4)]
    # the canonical intertwining, coproduct laws and auxiliary identity
    assert [reports[i].audit for i in (0, 2, 3)] == ["pass"] * 3


def test_audits_on_the_shared_context_match_fresh_contexts(ctx):
    shared = ctx.audit_context
    assert ctx.audit_context is shared
    assert (shared.degree, shared.h_order) == (ctx.degree + 1, ctx.h_order + 1)
    on_shared = {name: check(shared) for name, check in AUDITED.items()}
    for name, check in AUDITED.items():
        fresh = check(RMatrixContext(shared.degree, shared.h_order))
        got = on_shared[name]
        assert (got.status, got.residual, got.details) == \
            (fresh.status, fresh.residual, fresh.details), name


def test_no_check_mutates_the_shared_canonical_r(ctx):
    R = build_R(ctx, "canonical")
    assert R is ctx.canonical
    before = snapshot(R)
    verify_intertwining(ctx, R, "canonical")
    verify_coproduct_laws(ctx, R, "canonical")
    verify_auxiliary(ctx)
    check_triangularity(ctx, R, "canonical")
    verify_universal_identity(ctx.dbl, R, max_degree=1, compare_degree=4)
    assert build_R(ctx, "canonical") is R
    assert snapshot(R) == before
    audit_R = ctx.audit_context.canonical
    audit_before = snapshot(audit_R)
    for check in AUDITED.values():
        check(ctx.audit_context)
    assert snapshot(audit_R) == audit_before


def test_audit_context_is_not_shared_between_contexts():
    # no process-wide cache: each context owns its audit context
    a, b = RMatrixContext(2, 2), RMatrixContext(2, 2)
    assert a.audit_context is not b.audit_context
    assert a.audit_context.canonical is not b.audit_context.canonical


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_which_aux_never_builds_the_canonical_r(monkeypatch):
    monkeypatch.setattr(rmatrix, "_canonical_element", _refuse)
    assert cli.main(["--h-order", "2", "--tensor-degree", "2",
                     "check", "rmatrix", "--which", "aux"]) == 0


def test_rmatrix_context_never_runs_the_reconstruction(monkeypatch):
    # the double's presentation is built directly: no cross bracket is
    # derived and no Hopf axiom suite runs
    monkeypatch.setattr(Double, "cross_bracket", _refuse)
    monkeypatch.setattr(double, "verify_hopf", _refuse)
    assert not RMatrixContext(2, 2).canonical.is_zero()
    assert cli.main(["--h-order", "2", "--tensor-degree", "2", "check", "rmatrix"]) == 0


# ------------------------------------------------- the Gram block the window reads

WINDOW_CUTS = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 6), (2, 6), (7, 3), (8, 4),
               (9, 5)]


@pytest.mark.parametrize("cut", WINDOW_CUTS, ids=str)
def test_the_canonical_window_is_the_full_basis_build(cut):
    # the same keys in the same order, coefficients and trunc, in the window
    # of D; the build keeps only the rows of weight <= the window's bound
    ctx = RMatrixContext(*cut)
    full = reference_canonical_element(ctx)
    assert ctx.dbl.pairing.filtration is not None
    identical(ctx.canonical.window(ctx.degree), full.window(ctx.degree))
    assert len(ctx.canonical.terms) < len(full.terms)


def test_the_corrected_closed_form_is_the_canonical_window():
    # (1 (x) 1 + S e^{hT/2} (x) xi) e^{T (x) tau}, built without the Gram matrix
    for cut in [(4, 4), (5, 5), (6, 6), (8, 4)]:
        ctx = RMatrixContext(*cut)
        eng, D = ctx.engine, ctx.degree
        s_exp = eng.evaluate(parse_expr_text("S*exp(h*T/2)"))
        E = exp_tensor(tensor_of(eng.generator("T"), eng.generator("tau")), ctx.d_int, D)
        corrected = tensor_mul(TensorElement.unit((eng, eng))
                               + tensor_of(s_exp, eng.generator("xi")), E, D)
        assert (corrected - ctx.canonical).window(D).is_zero(), cut


def mutated_data(tmp_path, monkeypatch, name, old, new):
    """Read the data from a copy whose file ``name`` has the line old as new."""
    data = tmp_path / "data"
    shutil.copytree(Path(presentation.__file__).parent / "data", data)
    path = data / f"{name}.hopf"
    lines = path.read_text().split("\n")
    assert lines.count(old) == 1, old
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines))
    monkeypatch.setenv("HOPFFORGE_DATA_DIR", str(data))


UNCERTIFIED = {
    # a dual coproduct term that raises w_K: <T^2, tau> = 1 with w_H(T^2) = 2
    "coproduct": ("brst_q_alpha2", "tau = tau (x) 1 + 1 (x) tau + (h/sinh(h))*xi (x) xi",
                  "tau = tau (x) 1 + 1 (x) tau + (h/sinh(h))*xi (x) xi + tau (x) tau",
                  ((0, 2), (0, 1))),
    # an H generator of weight 1 with a nonzero counit: <T, 1> = h
    "counit": ("ptsa_q", "T = 0", "T = h", ((0, 1), (0, 0))),
}


@pytest.mark.parametrize("mutant", list(UNCERTIFIED))
def test_an_uncertified_filtration_builds_on_the_full_basis(tmp_path, monkeypatch, mutant):
    name, old, new, (mh, mk) = UNCERTIFIED[mutant]
    mutated_data(tmp_path, monkeypatch, name, old, new)
    ctx = RMatrixContext(3, 3)
    pair = ctx.dbl.pairing
    assert pair.filtration is None
    # the lemma fails on the mutant, so a kept block would not be exact
    assert not pair.pair_mono(mh, mk).is_zero()
    identical(ctx.canonical, reference_canonical_element(ctx))


def test_a_double_lighter_than_w_h_builds_on_the_full_basis(monkeypatch):
    # the window's bound counts weight in the double: were an H generator
    # lighter there than under w_H, a dropped row could reach the window
    ctx = RMatrixContext(3, 3)
    monkeypatch.setattr(ctx.engine, "weight", (0,) * ctx.engine.n)
    identical(rmatrix._canonical_element(ctx), reference_canonical_element(ctx))


DEGENERATE = ("ptsa_q", "T = T (x) 1 + 1 (x) T", "T = T (x) 1")
NEEDS_R = {"rmatrix-intertwining[canonical]", "rmatrix-coproduct-laws[canonical]",
           "rmatrix-triangularity[canonical]", "universal-identity"}


@pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "full basis"])
def test_a_degenerate_gram_matrix_fails_the_reports_that_read_r(tmp_path, monkeypatch, capsys,
                                                                filtered):
    mutated_data(tmp_path, monkeypatch, *DEGENERATE)
    if not filtered:
        monkeypatch.setattr(Pairing, "filtration", property(lambda self: None))
    assert (RMatrixContext(4, 4).dbl.pairing.filtration is not None) == filtered
    assert cli.main(["--format", "json", "check", "rmatrix"]) == 1
    docs = json.loads(capsys.readouterr().out)
    want = "canonical element: Gram pivot not invertible in parity block 0"
    assert [(d["check"], d["status"]) for d in docs] == [
        ("rmatrix-intertwining[canonical]", "fail"),
        ("rmatrix-intertwining[closed-form]", "finding"),
        ("rmatrix-coproduct-laws[canonical]", "fail"),
        ("rmatrix-auxiliary-identity", "pass"),
        ("rmatrix-triangularity[canonical]", "fail"),
        ("universal-identity", "fail")]
    for d in docs:
        if d["check"] in NEEDS_R:
            assert (d["residual"], d["details"]) == (want, []), d["check"]
            assert d["stability_audit"] in ("skipped", "not-run")


def test_a_degenerate_gram_matrix_leaves_suite_all_a_report_stream(tmp_path, monkeypatch,
                                                                   capsys):
    mutated_data(tmp_path, monkeypatch, *DEGENERATE)
    assert cli.main(["--format", "json", "suite", "all"]) == 1
    docs = json.loads(capsys.readouterr().out)
    # every check of the golden stream, but the route check of a double whose
    # reconstruction fails
    golden = json.loads((Path(__file__).parent / "golden" / "suite_all.json").read_text())
    assert [d["check"] for d in docs] == [
        g["check"] for g in golden if g["check"] != "double-route-equivalence"]
    assert {d["check"] for d in docs if d["residual"] and "Gram pivot" in d["residual"]} \
        == NEEDS_R
    assert ("hopf-axioms", "ptsa_q", "fail") in {(d["check"], d["target"], d["status"])
                                                 for d in docs}
