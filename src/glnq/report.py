"""The record every verify check returns: a name, its parameters, and the
text witnessing a failure.
"""
from __future__ import annotations

from dataclasses import dataclass

# checks whose JSON record has no "witness" key when they pass
_BARE_WHEN_PASSED = frozenset({"nilpotent-count", "orbit-oracle", "antipode-involutive",
                               "antipode-on-primitives", "steinberg-constituents"})


@dataclass(frozen=True)
class Report:
    """One check; it passes iff there is no witness, so a failing check
    always says why."""

    name: str
    params: dict
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        out = {"name": self.name, "params": self.params, "passed": self.passed}
        if not (self.passed and self.name in _BARE_WHEN_PASSED):
            out["witness"] = self.witness
        return out

    def lines(self) -> list:
        """`[PASS] name k=v ...`, and an indented witness line if it fails."""
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name} {params}".rstrip()
        return [head] if self.passed else [head, f"       witness: {self.witness}"]
