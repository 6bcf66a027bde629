"""Structured results for property checks and suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CheckResult", "VerificationReport"]


@dataclass
class CheckResult:
    """One named check: worst observed violation against its tolerance.

    ``claim`` states the property being checked in plain words; it is carried
    into reports so a failure is readable without the source at hand.  Both
    numbers are stored as floats, and the verdict is read off them:
    ``passed`` is ``violation <= tol``, so a NaN violation fails.
    """

    name: str
    claim: str
    violation: float
    tol: float

    def __post_init__(self):
        self.violation, self.tol = float(self.violation), float(self.tol)

    @property
    def passed(self) -> bool:
        return self.violation <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "violation": self.violation,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    """Outcome of one suite run: its checks, and the profile of the system it ran on.

    ``passed`` is read off the checks: it holds iff every check passed.  A
    report carries no wall time or version, so reports for a fixed seed are
    byte-identical across runs.
    """

    suite: str
    seed: int
    samples: int
    checks: list = field(default_factory=list)
    system: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [c.to_json_dict() for c in self.checks],
            "pass": self.passed,
            "system": self.system,
        }
