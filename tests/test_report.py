"""The report lifecycle: ``VerificationReport.timed()`` makes, fails and times
every report a check returns.

The clock is driven through ``report.time``: each reading advances it by one
second, so a block's ``wall_time`` is the number of readings in between.
"""

from types import SimpleNamespace

import pytest

from hopfforge import report
from hopfforge.report import FAIL, FINDING, PASS, VerificationReport


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
