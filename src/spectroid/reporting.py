"""Small named-check reports shared by the verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["Check", "Report", "worst"]


def worst(devs) -> tuple[float, int]:
    """The largest entry of an array of deviations and its first flat
    index (C order), a NaN counting as +inf; ``(0.0, -1)`` when the
    array is empty or all zero."""
    flat = np.ravel(np.asarray(devs, dtype=float))
    flat = np.where(np.isnan(flat), np.inf, flat)
    if not flat.size:
        return 0.0, -1
    i = int(np.argmax(flat))
    if not flat[i] > 0:
        return 0.0, -1
    return float(flat[i]), i


class Check(NamedTuple):
    """One named verification with its worst residual; a numeric check
    also carries the bound it was held to.  A named tuple, so that the
    round trips' reports cost little to build and to merge."""

    name: str
    passed: bool
    residual: float = 0.0
    detail: str = ""
    bound: float | None = None

    def to_json(self):
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
        }
        if self.bound is not None:
            out["bound"] = float(self.bound)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    """An ordered collection of checks with an overall verdict."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name, passed, residual=0.0, detail=""):
        """A yes/no check, or a sub-report's summary: the caller's verdict."""
        self.checks.append(Check(name, bool(passed), float(residual), detail))

    def check(self, name, devs, bound, label=None) -> None:
        """The numeric check ``worst(devs) <= bound``, a NaN deviation
        counting as +inf; ``label`` turns the index tuple of the first
        worst entry of ``devs`` into the check's detail."""
        value, flat = worst(devs)
        where = ""
        if label is not None and flat >= 0:
            where = label(*np.unravel_index(flat, np.shape(devs)))
        self.checks.append(Check(name, value <= bound, value, where, float(bound)))

    def extend(self, other: "Report", prefix: str = ""):
        """Append ``other``'s checks, renamed with ``prefix``; each is
        built afresh, which is faster than ``_replace``."""
        self.checks.extend([Check(prefix + c.name, *c[1:]) for c in other.checks])

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return worst([c.residual for c in self.checks])[0]

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "passed": self.passed,
            "worst_residual": self.worst_residual,
            "checks": [c.to_json() for c in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"[{status}] {c.name}  residual={c.residual:.3e}"
            if c.bound is not None:
                line += f" bound={c.bound:.3e}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)
