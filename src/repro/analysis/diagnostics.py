"""The shared diagnostic model of the static-analysis subsystem.

Both analysis layers — the query-graph semantic validator
(:mod:`repro.analysis.query_validator`) and the codebase invariant
linter (:mod:`repro.analysis.code_linter`) — report findings as
:class:`Diagnostic` values collected into a :class:`DiagnosticReport`.
A diagnostic names the rule that produced it, a severity, a location
(source file line for code, vertex/edge for query graphs), the finding
itself, and a fix hint, so one renderer and one CI gate serve both
layers.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any


class Severity(IntEnum):
    """Diagnostic severities, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    Code diagnostics carry ``file``/``line``/``column``; query-graph
    diagnostics carry ``vertex`` (a clause index) and/or ``edge``
    (a provider/consumer index pair).  All fields are optional so one
    type serves both layers.
    """

    file: str | None = None
    line: int | None = None
    column: int | None = None
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.file is not None:
            text = self.file
            if self.line is not None:
                text += f":{self.line}"
                if self.column is not None:
                    text += f":{self.column}"
            return text
        parts = []
        if self.vertex is not None:
            parts.append(f"v{self.vertex}")
        if self.edge is not None:
            parts.append(f"edge v{self.edge[0]}->v{self.edge[1]}")
        return " ".join(parts) if parts else "<graph>"

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; key order is part of the contract."""
        return {
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "vertex": self.vertex,
            "edge": list(self.edge) if self.edge is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Location:
        edge = data.get("edge")
        return cls(
            file=data.get("file"),
            line=data.get("line"),
            column=data.get("column"),
            vertex=data.get("vertex"),
            edge=(edge[0], edge[1]) if edge is not None else None,
        )


@dataclass(frozen=True)
class Diagnostic:
    """One finding of either analysis layer.

    Attributes
    ----------
    rule_id:
        Stable identifier of the producing rule (``QG###`` for
        query-graph rules, ``RP###`` for repo-invariant rules).
    severity:
        :class:`Severity` — only ERROR diagnostics gate CI.
    location:
        Where the finding points (code line or graph vertex/edge).
    message:
        The finding itself, self-contained.
    hint:
        How to fix it (may be empty).
    """

    rule_id: str
    severity: Severity
    location: Location
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.location}: {self.severity}: [{self.rule_id}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; key order is part of the contract."""
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "location": self.location.to_dict(),
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Diagnostic:
        return cls(
            rule_id=data["rule_id"],
            severity=Severity[data["severity"]],
            location=Location.from_dict(data["location"]),
            message=data["message"],
            hint=data.get("hint", ""),
        )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with gate helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: DiagnosticReport | list[Diagnostic]) -> None:
        if isinstance(diagnostics, DiagnosticReport):
            diagnostics = diagnostics.diagnostics
        self.diagnostics.extend(diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def rule_ids(self) -> list[str]:
        """Distinct rule ids present, in first-appearance order."""
        seen: dict[str, None] = {}
        for diagnostic in self.diagnostics:
            seen.setdefault(diagnostic.rule_id, None)
        return list(seen)

    def sorted(self) -> DiagnosticReport:
        """Worst findings first; location order within a severity."""
        return DiagnosticReport(sorted(
            self.diagnostics,
            key=lambda d: (-d.severity, str(d.location), d.rule_id),
        ))

    def render(self) -> str:
        """Multi-line rendering, one diagnostic per line plus a tally."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{self.count(Severity.ERROR)} error(s), "
            f"{self.count(Severity.WARNING)} warning(s), "
            f"{self.count(Severity.INFO)} note(s)"
        )

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form for CI annotation.

        Key order is fixed (counts first, then the diagnostics in
        report order) so serialized reports diff cleanly.
        """
        return {
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "notes": self.count(Severity.INFO),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Deterministic JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> DiagnosticReport:
        return cls([
            Diagnostic.from_dict(entry)
            for entry in data.get("diagnostics", [])
        ])

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)
