"""Structured results for property checks and suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._version import __version__

__all__ = ["CheckResult", "VerificationReport"]


@dataclass
class CheckResult:
    """One named check: worst observed violation against its tolerance.

    ``claim`` states the property being checked in plain words; it is carried
    into reports so a failure is readable without the source at hand.
    ``headroom`` marks checks whose violation is a roundoff-scale residual
    (as opposed to a budget-limited estimate), for which re-seeding must keep
    a wide margin below the tolerance.
    """

    name: str
    claim: str
    violation: float
    tol: float
    passed: bool
    headroom: bool = True

    @classmethod
    def from_violation(cls, name: str, claim: str, violation: float, tol: float,
                       headroom: bool = True) -> "CheckResult":
        return cls(name, claim, float(violation), float(tol),
                   bool(violation <= tol), headroom)

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
    """Outcome of one suite run.

    ``passed`` holds iff every check passed.  ``wall_time`` and ``version``
    are provenance only and deliberately excluded from the JSON form so that
    reports for a fixed seed are byte-identical across runs.
    """

    suite: str
    seed: int
    samples: int
    checks: list = field(default_factory=list)
    passed: bool = True
    wall_time: float = 0.0
    system: Optional[dict] = None
    version: str = __version__

    @classmethod
    def from_checks(cls, suite: str, seed: int, samples: int, checks,
                    wall_time: float = 0.0, system: Optional[dict] = None) -> "VerificationReport":
        return cls(suite, seed, samples, list(checks),
                   all(c.passed for c in checks), wall_time, system)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [c.to_json_dict() for c in self.checks],
            "pass": self.passed,
            "system": self.system,
        }
