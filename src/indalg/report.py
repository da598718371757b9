"""The check record every report is made of.

A check carries an ``expected`` outcome ("pass" or "finding") next to the
``outcome`` actually observed, so that mathematically expected failures
are told apart from genuine errors.  Its fields are its serialised form:
a report lists ``vars(check)`` for each check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    expected: str = "pass"
    outcome: str = "pass"
    details: dict = field(default_factory=dict)

    @classmethod
    def sampled(cls, name: str) -> Check:
        """A check judged sample by sample through ``record``."""
        return cls(name, details={"samples": 0, "failures": []})

    def record(self, ok: bool, witness=None) -> None:
        """Count one sample; a failing one fails the check and keeps the
        first three witnesses.  A callable witness is called, with no
        arguments, only when it is kept."""
        self.details["samples"] += 1
        if not ok:
            self.outcome = "fail"
            self.details["failed"] = self.details.get("failed", 0) + 1
            if len(self.details["failures"]) < 3:
                if callable(witness):
                    witness = witness()
                self.details["failures"].append(witness)


def fmt_mat(m) -> list[list[str]]:
    """A matrix as rows of exact strings."""
    return [[str(x) for x in row] for row in m]
