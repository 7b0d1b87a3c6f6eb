"""Tiny check-report containers used by the validators, and the integer
and rational checks shared by the constructors."""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index


def strict_int(value):
    """value as an int. Raises TypeError on a bool, which operator.index
    would take as 0 or 1, and on anything operator.index refuses: floats,
    Fractions and strings."""
    if isinstance(value, bool):
        raise TypeError(f"an integer is required, not {value!r}")
    return index(value)


def strict_rational(value):
    """value as a Fraction. Raises TypeError on anything but an int or a
    Fraction: a float would bring in its binary expansion, a bool would count
    as 0 or 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"an int or a Fraction is required, not {value!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "ok" if c.ok else "FAIL"
            lines.append(f"{c.name}: {mark}" + (f" ({c.detail})" if c.detail else ""))
        return "\n".join(lines)
