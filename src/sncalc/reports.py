"""Check and report structures shared by the scenario runners and the CLI.

Every expected value comes from a fixture entry carrying a provenance tag:
'stated' for values the source construction asserts outright (these must
carry a non-empty anchor string), 'derived' for values computed by an
independent oracle when the fixture was written, and 'direct' for immediate
arithmetic.  Reports render deterministically, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

TAGS = ("stated", "derived", "direct")


def display(value) -> str:
    """Stable one-line rendering for expected/actual values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(display, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={display(v)}" for k, v in value.items()) + "}"
    return str(value)


def normalize(value):
    """Coerce to JSON-friendly primitives so fixture values compare cleanly.

    The exact scalar types return first, before the ``isinstance`` test
    against ``Fraction``, which goes through its ABC machinery."""
    t = type(value)
    if t is int or t is str or t is bool:
        return value
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): normalize(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    passed: bool
    tag: str
    ref: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"CHECK {self.name}: {status} expected={display(self.expected)} "
            f"actual={display(self.actual)} ref=\"{self.ref}\""
        )


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, expected, actual, tag: str, ref: str = "") -> Check:
        if tag not in TAGS:
            raise ValueError(f"unknown provenance tag {tag!r}")
        if tag == "stated" and not ref:
            raise ValueError(f"check {name!r}: stated values need an anchor string")
        expected = normalize(expected)
        actual = normalize(actual)
        check = Check(name, expected, actual, expected == actual, tag, ref)
        self.checks.append(check)
        return check

    def add_error(self, name: str, expected, error: Exception, tag: str, ref: str = ""):
        check = Check(
            name, normalize(expected), f"error: {error}", False, tag, ref
        )
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        return sum(1 for c in self.checks if c.passed), len(self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        good, total = self.counts
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"SUMMARY {self.title}: {status} {good}/{total} checks passed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        good, total = self.counts
        payload = {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "expected": c.expected,
                    "actual": c.actual,
                    "tag": c.tag,
                    "ref": c.ref,
                }
                for c in self.checks
            ],
            "passed_count": good,
            "total_count": total,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def merge(title: str, reports: list[Report]) -> Report:
    out = Report(title)
    for rep in reports:
        for c in rep.checks:
            out.checks.append(
                Check(f"{rep.title}.{c.name}", c.expected, c.actual, c.passed, c.tag, c.ref)
            )
    return out
