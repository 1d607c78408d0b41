"""Uniform result objects for the named verification checks.

Every check returns a CheckReport: a pass flag, a list of located
failures (JSON-ready dicts pointing at the offending indices), and a
details dict for counts and residual magnitudes.  The wire form nests
the parameter set so a report is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import kappa as kappa_mod
from .kappa import ParameterSet


@dataclass
class CheckReport:
    check: str
    passed: bool
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json_dict(self, kappa: ParameterSet, N: int | None = None) -> dict:
        return {
            "check": self.check,
            "kappa": kappa_mod.to_json_dict(kappa),
            "N": N,
            "pass": self.passed,
            "failures": self.failures,
            "details": self.details,
        }

