"""The stability audit: one rule in report.audited, and the registry's wiring.

A pass is re-run at bumped cutoffs and its audit reads pass only if the re-run
passes; any other status is never re-run and reads skipped.  The wiring tests
replace each audited check in ``cli``'s namespace with one that records what it
was given, passes on its first call and fails on its re-run; the duality test
wraps the real check instead, to count the calibrations behind both runs.
"""

from argparse import Namespace
from types import SimpleNamespace

import pytest

from hopfforge import cli, pairing, report
from hopfforge.pbw import Cutoffs
from hopfforge.report import FAIL, FINDING, PASS, VerificationReport, audited

ARGS = Namespace(h_order=6, word_cutoff=10, tensor_degree=4, seed=0)
CUT = Cutoffs(6, 10)


def _report(status, wall_time=0.0):
    return VerificationReport(check="c", target="t", cutoffs={}, status=status,
                              wall_time=wall_time)


def _never():
    raise AssertionError("a report that did not pass was re-run")


def test_bumped_cutoffs():
    assert Cutoffs(6, 10).bumped() == Cutoffs(7, 12)
    assert Cutoffs(0, 0).bumped() == Cutoffs(1, 2)


# ----------------------------------------------------------------- the rule

def test_a_pass_whose_rerun_passes_reads_pass_and_adds_its_time(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def rerun():
        clock[0] += 2.0
        return _report(PASS, wall_time=2.0)

    r = _report(PASS, wall_time=1.5)
    assert audited(r, rerun) is r
    assert r.audit == "pass"
    assert r.wall_time == 3.5


@pytest.mark.parametrize("again", [FAIL, FINDING])
def test_a_pass_whose_rerun_does_not_pass_reads_fail(again):
    r = audited(_report(PASS), lambda: _report(again))
    assert (r.status, r.audit) == (PASS, "fail")


@pytest.mark.parametrize("status", [FAIL, FINDING])
def test_a_report_that_did_not_pass_is_skipped_and_never_rerun(status):
    r = audited(_report(status, wall_time=1.5), _never)
    assert (r.status, r.audit, r.wall_time) == (status, "skipped", 1.5)


# --------------------------------------------------------------- the wiring

def _pass_then_fail(calls, record):
    """A check that appends record(*args) to calls, passes on its first call
    and fails on every later one."""
    def check(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return _report(PASS if len(calls) == 1 else FAIL)
    return check


@pytest.mark.parametrize("entry", [("hopf", "ptsa_q"), ("family", "variety_3d", None, None)])
def test_hopf_reruns_at_bumped_cutoffs(monkeypatch, entry):
    calls = []
    monkeypatch.setattr(cli, "verify_hopf", _pass_then_fail(calls, lambda pres, cut: cut))
    [r] = cli.run_entry(ARGS, entry)
    assert calls == [CUT, CUT.bumped()]
    assert r.audit == "fail"


def test_duality_reruns_at_bumped_cutoffs_and_the_same_degree(monkeypatch):
    # the re-run finds the convention lock the main run computed: the four
    # conventions are calibrated once, at the lock's degree 3, for both runs
    calls, calibrated = [], []
    real_verify, real_failures = cli.verify_duality, pairing._consistency_failures

    def verify(cut, max_degree):
        calls.append((cut, max_degree))
        return real_verify(cut, max_degree=max_degree)

    def failures(p, max_degree, limit):
        if max_degree == 3:
            calibrated.append(p.convention)
        return real_failures(p, max_degree, limit)

    monkeypatch.setattr(cli, "verify_duality", verify)
    monkeypatch.setattr(pairing, "_consistency_failures", failures)
    args = Namespace(h_order=2, word_cutoff=4, tensor_degree=0, seed=0)
    [r] = cli.run_entry(args, ("duality", False))
    assert calls == [(Cutoffs(2, 4), 2), (Cutoffs(3, 6), 2)]
    assert len(calibrated) == len(set(calibrated)) == 4
    assert (r.status, r.audit) == (PASS, "pass")


def test_double_reruns_at_bumped_cutoffs(monkeypatch):
    calls = []
    check = _pass_then_fail(calls, lambda cut: cut)
    monkeypatch.setattr(cli, "derive_double_presentation", lambda cut: (None, check(cut), None))
    [r] = cli.run_entry(ARGS, ("double", None))
    assert calls == [CUT, CUT.bumped()]
    assert r.audit == "fail"


class _Context:
    """Stands in for RMatrixContext: its degree, h-order and bumped context."""

    def __init__(self, degree, h_order):
        self.degree, self.h_order = degree, h_order

    @property
    def audit_context(self):
        return _Context(self.degree + 1, self.h_order + 1)


def _fake_contexts(monkeypatch):
    monkeypatch.setattr(cli, "RMatrixContext", _Context)
    monkeypatch.setattr(cli, "build_R", lambda c, variant: ("R", c.degree, c.h_order, variant))


@pytest.mark.parametrize("which, name, variants", [
    ("intertwine", "verify_intertwining", ("canonical", "closed-form")),
    ("colaws", "verify_coproduct_laws", ("canonical",)),
])
def test_rmatrix_checks_of_r_rerun_on_the_bumped_context(monkeypatch, which, name, variants):
    _fake_contexts(monkeypatch)
    calls = {v: [] for v in variants}
    checks = {v: _pass_then_fail(calls[v], lambda c, R, v: (c.degree, c.h_order, R))
              for v in variants}
    monkeypatch.setattr(cli, name, lambda c, R, v: checks[v](c, R, v))
    reports = cli.run_entry(ARGS, ("rmatrix", which))
    # D = 4 and N = min(6, 4); the re-run is on the (D+1, N+1) context
    for v in variants:
        assert calls[v] == [(4, 4, ("R", 4, 4, v)), (5, 5, ("R", 5, 5, v))]
    assert [r.audit for r in reports] == ["fail"] * len(variants)


def test_rmatrix_auxiliary_reruns_on_the_bumped_context(monkeypatch):
    _fake_contexts(monkeypatch)
    calls = []
    monkeypatch.setattr(cli, "verify_auxiliary",
                        _pass_then_fail(calls, lambda c: (c.degree, c.h_order)))
    [r] = cli.run_entry(ARGS, ("rmatrix", "aux"))
    assert calls == [(4, 4), (5, 5)]
    assert r.audit == "fail"
