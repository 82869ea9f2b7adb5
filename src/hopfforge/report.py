"""Structured pass/fail records for every check the kernel runs.

A check makes its report in one way, ``VerificationReport.timed()``: the block
it runs in gets a passing report, appends details to it, fails it with
``fail()`` or marks it a finding, and the report's ``wall_time`` is the time
the block took however it ends.  ``audited()`` then re-runs a pass at bumped
cutoffs for its stability audit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["VerificationReport", "audited", "reports_to_json"]

PASS, FAIL, FINDING = "pass", "fail", "finding"


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


def reports_to_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)
