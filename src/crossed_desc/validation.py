"""Violation reports, the exception hierarchy and the one size bound shared
by all modules.

Enumeration, classification, the bijection check and the serializer writers
take `DEFAULT_BOUND` as their default bound; the fixture builders always use it.
"""

from __future__ import annotations

from dataclasses import dataclass


class CrossedDescError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(CrossedDescError):
    """A structure is syntactically broken: an identifier does not resolve,
    object sets disagree, or a table has the wrong shape."""


class DomainError(CrossedDescError):
    """An operation was called with well-formed but ill-typed arguments
    (wrong object, wrong hom-set, non-composable pair)."""


class ComposabilityError(DomainError):
    """Two morphisms were composed whose endpoints do not match."""


class ResourceBoundError(CrossedDescError):
    """An enumeration or construction would exceed the configured size bound."""


DEFAULT_BOUND = 1_000_000


class LiftSearchError(CrossedDescError):
    """A search step of a lifting algorithm was exhausted.

    This indicates an internal inconsistency: either the input morphism is not
    actually a weak equivalence, or the data is corrupt.
    """

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        msg = f"search exhausted at step {step!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class Violation:
    """One violated axiom instance: a stable rule tag plus the witnesses."""

    rule: str
    detail: str

    def as_json(self) -> dict:
        return {"rule": self.rule, "detail": self.detail}


class ValidationReport:
    """Accumulates axiom violations; empty means the structure is valid."""

    def __init__(self):
        self.violations: list[Violation] = []

    def add(self, rule: str, detail: str) -> None:
        self.violations.append(Violation(rule, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self):
        return iter(self.violations)

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        for v in other.violations:
            self.violations.append(
                Violation(v.rule, f"{prefix}{v.detail}" if prefix else v.detail)
            )

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.as_json() for v in self.violations],
        }

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        return f"ValidationReport({len(self.violations)} violations)"
