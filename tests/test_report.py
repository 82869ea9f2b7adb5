"""The report lifecycle: ``VerificationReport.timed()`` makes, fails and times
every report a check returns, and ``judged()`` turns it into a verdict.

The clock is driven through ``report.time``: each reading advances it by one
second, so a block's ``wall_time`` is the number of readings in between.
"""

from types import SimpleNamespace

import pytest

from hopfforge import report
from hopfforge.report import FAIL, FINDING, PASS, REFUTED, VerificationReport, judged


@pytest.fixture
def clock(monkeypatch):
    now = [100.0]

    def perf_counter():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=perf_counter))
    return now


def test_a_block_that_neither_fails_nor_finds_passes(clock):
    cutoffs = {"N": 6, "W": 10}
    with VerificationReport.timed("c", "t", cutoffs) as rep:
        rep.details.append("checked")
    cutoffs["N"] = 7  # the report keeps its own copy
    assert (rep.check, rep.target, rep.cutoffs) == ("c", "t", {"N": 6, "W": 10})
    assert (rep.status, rep.residual, rep.audit, rep.details) == (PASS, None, "not-run",
                                                                   ["checked"])
    assert rep.wall_time == 1.0


def test_fail_and_finding_keep_their_residual(clock):
    with VerificationReport.timed("c", "t", {}) as failed:
        failed.fail("r")
    with VerificationReport.timed("c", "t", {}) as found:
        found.status, found.residual = FINDING, "r"
    assert (failed.status, failed.residual) == (FAIL, "r")
    assert (found.status, found.residual) == (FINDING, "r")


def test_a_failure_without_residual_says_so():
    rep = VerificationReport("c", "t", {}, PASS)
    rep.fail(None)
    assert (rep.status, rep.residual) == (FAIL, "(unspecified residual)")
    # the rule lives in fail() alone: a report built failing is left as given
    assert VerificationReport("c", "t", {}, FAIL).residual is None


def test_wall_time_is_set_on_a_return_from_inside_the_block(clock):
    def check():
        with VerificationReport.timed("c", "t", {}) as rep:
            clock[0] += 2.0
            rep.fail("early")
            return rep
        raise AssertionError("not reached")

    rep = check()
    assert (rep.status, rep.wall_time) == (FAIL, 3.0)


def test_wall_time_is_set_when_an_exception_propagates(clock):
    with pytest.raises(ZeroDivisionError):
        with VerificationReport.timed("c", "t", {}) as rep:
            clock[0] += 4.0
            1 / 0
    assert (rep.status, rep.wall_time) == (PASS, 5.0)


def test_an_established_claim_keeps_its_status():
    for status in (PASS, FAIL):
        rep = VerificationReport("confluence", "sd_line", {"N": 6, "W": 10}, status, "r")
        assert judged(rep) is rep
        assert (rep.status, rep.residual, rep.details) == (status, "r", [])


@pytest.mark.parametrize("key", list(REFUTED), ids=" :: ".join)
def test_a_refuted_claim_is_a_finding_and_fails_where_it_holds(key):
    reason, shows_at = REFUTED[key]
    # fails: a finding that keeps its residual, with the reason
    rep = VerificationReport(*key, dict(shows_at), PASS)
    rep.fail("r")
    assert (judged(rep).status, rep.residual, rep.details) == (FINDING, "r", [reason])
    # holds at its shows-at cutoffs: a failure, with the reason
    rep = VerificationReport(*key, dict(shows_at), PASS)
    assert (judged(rep).status, rep.residual, rep.details) == \
        (FAIL, "refuted claim now holds", [reason])
    # holds with one cutoff below them: the truncation may hide the residual
    for name in shows_at:
        rep = VerificationReport(*key, {**shows_at, name: shows_at[name] - 1}, PASS)
        assert (judged(rep).status, rep.residual, rep.details) == (PASS, None, [])
