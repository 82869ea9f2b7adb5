"""Structured pass/fail records for every check the kernel runs."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["VerificationReport", "Timer", "audited", "reports_to_json"]

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

    def __post_init__(self):
        if self.status == FAIL and self.residual is None:
            self.residual = "(unspecified residual)"

    @property
    def ok(self) -> bool:
        return self.status != FAIL

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


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        self._final = None
        return self

    def __exit__(self, *exc):
        self._final = time.perf_counter() - self.t0
        return False

    @property
    def elapsed(self):
        if self._final is not None:
            return self._final
        return time.perf_counter() - self.t0


def audited(report: VerificationReport, rerun) -> VerificationReport:
    """The stability audit.  A pass is re-run by rerun() at bumped cutoffs and
    its audit reads pass only if the re-run passes too; any other status is
    never re-run and reads skipped.  The re-run's time joins wall_time."""
    if report.status != PASS:
        report.audit = "skipped"
        return report
    with Timer() as t:
        again = rerun()
    report.audit = PASS if again.status == PASS else FAIL
    report.wall_time += t.elapsed
    return report


def reports_to_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)
