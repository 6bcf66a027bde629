"""Structured results for property checks and suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["CheckResult", "VerificationReport"]


@dataclass
class CheckResult:
    """One named check: the worst row's excess against its tolerance.

    ``claim`` states the property being checked in plain words; it is carried
    into reports so a failure is readable without the source at hand.  A check
    hands over its rows' excesses (a scalar, a count or an array of any shape),
    and the one reduction of the package stores their worst as a float: never
    negative (an empty array or a row below 0 reads 0, -0.0 reads 0.0) and NaN if
    any row is NaN.  The verdict is read off the stored floats: ``passed`` is
    ``violation <= tol``, so a NaN violation fails.
    """

    name: str
    claim: str
    violation: float
    tol: float

    def __post_init__(self):
        self.violation = float(np.max(self.violation, initial=0.0)) + 0.0
        self.tol = float(self.tol)

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
