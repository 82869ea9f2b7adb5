"""Structured pass/fail records for every check the kernel runs, and the one
rule that turns them into verdicts.

A check makes its report in one way, ``VerificationReport.timed()``: the block
it runs in gets a passing report, appends details to it or fails it with
``fail()``, and the report's ``wall_time`` is the time the block took however
it ends.  A check says only whether its property holds, or, with
``cannot_run()``, that it could not compute it.  ``audited()`` then
re-runs a pass at bumped cutoffs for its stability audit.

Which published claims are refuted is declared once, in ``REFUTED``, and
``judged()`` makes every verdict from it: a refuted claim that fails is a
finding, and one that holds where its refutation shows is a failure.  Only
this module knows that a report can be a finding.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["VerificationReport", "REFUTED", "audited", "judged", "reports_to_json"]

PASS, FAIL, FINDING = "pass", "fail", "finding"

_CLASH = ("expected: the S*tau*xi overlap resolves only on the alpha = 2 slice "
          "([tau,xi] = h*xi); the published scaling (h/2) leaves the residual "
          "h*sinh(hT/2)")

# The published claims that are false, as (check, target) -> (reason, shows
# at): the least cutoffs, by the names the report states them under, at which
# the claim is seen to fail.  Below them the truncation hides the residual.
REFUTED = {
    ("confluence", "sd_reference"): (_CLASH, {"N": 2, "W": 1}),
    ("confluence", "sd_hp"): (_CLASH, {"N": 2, "W": 1}),
    ("duality", "brst_q"):
        ("expected: no rational pairing at the literal scaling", {"N": 1, "D": 2}),
    ("rmatrix-intertwining[closed-form]", "all four generators"):
        ("expected: published closed form lacks the e^{hT/2} factor", {"N": 1, "D": 3}),
    ("rmatrix-triangularity[canonical]", "triangularity readings"):
        ("the double is quasitriangular, not triangular; the published "
         "'triangularity' claim holds only in the quasi reading", {"D": 2}),
    ("lie-cocycle", "variety_3d x variety_3d"):
        ("expected: mixed frozen coordinates do not form a super Lie bialgebra", {}),
}


@dataclass
class VerificationReport:
    check: str
    target: str
    cutoffs: dict
    status: str  # pass | fail | finding
    residual: str | None = None
    audit: str = "not-run"  # set by audited(): pass | fail | skipped; else not-run
    details: list = field(default_factory=list)
    wall_time: float = 0.0
    # False when the check could not compute its property (``cannot_run``)
    ran: bool = True

    @classmethod
    @contextmanager
    def timed(cls, check: str, target: str, cutoffs: dict):
        """A passing report for the block to fill in; its wall_time is the
        time the block took, however it ends."""
        report = cls(check, target, dict(cutoffs), PASS)
        t0 = time.perf_counter()
        try:
            yield report
        finally:
            report.wall_time = time.perf_counter() - t0

    def fail(self, residual: str | None) -> None:
        self.status = FAIL
        self.residual = "(unspecified residual)" if residual is None else residual

    def cannot_run(self, reason: str) -> None:
        """Fail a check that could not compute what it checks.  The failure
        says nothing of the claim, so ``judged`` never makes it a finding."""
        self.fail(reason)
        self.ran = False

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "target": self.target,
            "cutoffs": dict(self.cutoffs),
            "status": self.status,
            "residual": self.residual,
            "stability_audit": self.audit,
            "details": list(self.details),
            "wall_time": round(self.wall_time, 6),
        }

    def text(self) -> str:
        head = f"[{self.status.upper():7s}] {self.check} :: {self.target}"
        cut = ", ".join(f"{k}={v}" for k, v in self.cutoffs.items())
        lines = [f"{head}  ({cut}; audit={self.audit}; {self.wall_time:.2f}s)"]
        if self.residual:
            lines.append(f"    residual: {self.residual}")
        for d in self.details:
            lines.append(f"    - {d}")
        return "\n".join(lines)


def audited(report: VerificationReport, rerun) -> VerificationReport:
    """The stability audit.  A pass is re-run by rerun() at bumped cutoffs and
    its audit reads pass only if the re-run passes too; any other status is
    never re-run and reads skipped.  The re-run's time joins wall_time."""
    if report.status != PASS:
        report.audit = "skipped"
        return report
    t0 = time.perf_counter()
    again = rerun()
    report.audit = PASS if again.status == PASS else FAIL
    report.wall_time += time.perf_counter() - t0
    return report


def judged(report: VerificationReport) -> VerificationReport:
    """The verdict on a check's report.  A report not in REFUTED states an
    established claim and keeps its status, and so does a check that could
    not run.  A refuted claim that fails is a
    finding; one that holds at cutoffs reaching its shows-at values is a
    failure; either way the reason is appended.  Below those cutoffs a pass
    stays a pass."""
    row = REFUTED.get((report.check, report.target))
    if row is None or not report.ran:
        return report
    reason, shows_at = row
    if report.status == FAIL:
        report.status = FINDING
    elif report.status == PASS and all(report.cutoffs[k] >= least
                                       for k, least in shows_at.items()):
        report.fail("refuted claim now holds")
    else:
        return report
    report.details.append(reason)
    return report


def reports_to_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)
