"""Crash-torture harness for the durable store.

The durability contract (:mod:`repro.graph.durable`) is a *prefix*
guarantee: whatever crash interrupts a snapshot or WAL write, recovery
must yield either a graph extensionally equal to some durable prefix
of the mutation history, or an attributed full-rebuild verdict —
never a silent partial load.  This module proves it by brute force:

1. build a scripted mutation history (movie KG base, then ``OP_COUNT``
   seeded mutations through the real WAL-attached mutators), recording
   the extensional digest of the graph at *every* epoch;
2. damage the resulting snapshot/WAL pair at every record boundary,
   mid-record, and with a single corrupted byte per record;
3. recover from each damaged copy and check the verdict: a recovered
   graph must digest-match the recorded state at exactly its reported
   epoch, and a rebuild verdict must carry quarantine attribution.

Everything is deterministic — seeded script, no timestamps, no
absolute paths in the report — so two same-seed runs render
byte-identical reports (the CI ``store-torture`` job diffs them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.dataset.kg import build_movie_kg
from repro.graph.durable import DurableStore
from repro.graph.model import Graph
from repro.graph.store import extensional_digest

#: scripted mutations applied on top of the base snapshot
OP_COUNT = 40

#: props deliberately chosen to stress canonical JSON framing
_GNARLY_PROPS: list[dict[str, Any]] = [
    {"note": "café ☃", "rank": 0.1 + 0.2},
    {"empty": "", "nested": [[1, 2], ["a", ""], []]},
    {"neg": -0.0, "big": 2**53 - 1, "tiny": 5e-324},
    {"mixed": [None, True, False, "end"], "kind": "torture"},
]


class _DigestTee:
    """Mutation sink that forwards to the store and records the
    extensional digest of the graph after every single epoch bump
    (cascaded removals included)."""

    def __init__(self, graph: Graph, store: DurableStore,
                 digests: dict[int, str]) -> None:
        self.graph = graph
        self.store = store
        self.digests = digests

    def record(self, op: dict[str, Any]) -> None:
        """Apply one mutation and remember the post-epoch digest."""
        self.store.record(op)
        self.digests[op["epoch"]] = extensional_digest(self.graph)


def scripted_mutations(graph: Graph, rng: random.Random,
                       count: int = OP_COUNT) -> None:
    """Apply ``count`` seeded, always-valid mutations to ``graph``."""
    for step in range(count):
        kind = rng.choice(
            ["add_vertex", "add_vertex", "add_edge", "add_edge",
             "relabel_vertex", "remove_edge", "remove_vertex"])
        vertex_ids = sorted(v.id for v in graph.vertices())
        edge_ids = sorted(e.id for e in graph.edges())
        if kind == "add_vertex":
            graph.add_vertex(
                f"torture-{step}",
                dict(rng.choice(_GNARLY_PROPS), step=step))
        elif kind == "add_edge" and len(vertex_ids) >= 2:
            src, dst = rng.sample(vertex_ids, 2)
            graph.add_edge(src, dst, f"rel-{step}", {"step": step})
        elif kind == "relabel_vertex" and vertex_ids:
            graph.relabel_vertex(rng.choice(vertex_ids),
                                 f"renamed-{step}")
        elif kind == "remove_edge" and edge_ids:
            graph.remove_edge(rng.choice(edge_ids))
        elif kind == "remove_vertex" and vertex_ids:
            graph.remove_vertex(rng.choice(vertex_ids))
        else:
            graph.add_vertex(f"fallback-{step}", {"step": step})


@dataclass
class TortureCase:
    """One damage point and what recovery made of it."""

    kind: str      # e.g. "wal-truncate-boundary", "snapshot-corrupt"
    detail: str    # deterministic locator ("line=4", "offset=123")
    outcome: str   # "prefix" | "rebuild" | "FAIL"
    epoch: int
    replayed: int
    quarantined: int

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable form of this case's verdict."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "outcome": self.outcome,
            "epoch": self.epoch,
            "replayed": self.replayed,
            "quarantined": self.quarantined,
        }


@dataclass
class TortureReport:
    """The deterministic verdict of one full torture sweep."""

    seed: int
    base_epoch: int = 0
    final_epoch: int = 0
    cases: list[TortureCase] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every torture case recovered correctly."""
        return not self.failures

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable form of the full sweep report."""
        return {
            "seed": self.seed,
            "base_epoch": self.base_epoch,
            "final_epoch": self.final_epoch,
            "cases": [case.to_json() for case in self.cases],
            "failures": list(self.failures),
            "passed": self.passed,
        }

    def render(self) -> str:
        """Byte-stable human-readable summary."""
        by_kind: dict[str, dict[str, int]] = {}
        for case in self.cases:
            tally = by_kind.setdefault(
                case.kind, {"prefix": 0, "rebuild": 0, "FAIL": 0})
            tally[case.outcome] += 1
        lines = [
            f"store torture sweep (seed={self.seed}): "
            f"history epochs {self.base_epoch}..{self.final_epoch}, "
            f"{len(self.cases)} damage cases",
        ]
        for kind in sorted(by_kind):
            tally = by_kind[kind]
            lines.append(
                f"  {kind}: {sum(tally.values())} cases "
                f"(prefix={tally['prefix']} rebuild={tally['rebuild']} "
                f"fail={tally['FAIL']})")
        for failure in self.failures:
            lines.append(f"  FAILURE: {failure}")
        lines.append("verdict: " + ("PASS — every damage point "
                     "recovered to a durable prefix or an attributed "
                     "rebuild" if self.passed else
                     f"FAIL — {len(self.failures)} silent partial "
                     "load(s)"))
        return "\n".join(lines)


def _line_spans(raw: bytes) -> list[tuple[int, int]]:
    """(start, end) byte offsets of each newline-terminated record."""
    spans = []
    start = 0
    while start < len(raw):
        end = raw.index(b"\n", start) + 1
        spans.append((start, end))
        start = end
    return spans


def _damage_cases(
    raw: bytes, prefix: str
) -> list[tuple[str, str, bytes]]:
    """Every (kind, detail, damaged_bytes) case for one file."""
    spans = _line_spans(raw)
    cases: list[tuple[str, str, bytes]] = []
    # truncation at every record boundary (0 = empty file; the
    # full-length boundary is the undamaged file, skipped)
    for index in range(len(spans)):
        offset = spans[index][0]
        cases.append((f"{prefix}-truncate-boundary",
                      f"line={index + 1} offset={offset}",
                      raw[:offset]))
    # truncation mid-record: cut each record at its midpoint
    for index, (start, end) in enumerate(spans):
        cut = start + max(1, (end - start) // 2)
        cases.append((f"{prefix}-truncate-mid",
                      f"line={index + 1} offset={cut}", raw[:cut]))
    # single-byte corruption inside each record's payload
    for index, (start, end) in enumerate(spans):
        pos = start + (end - start) // 2
        original = raw[pos:pos + 1]
        flipped = b"#" if original != b"#" else b"@"
        cases.append((f"{prefix}-corrupt", f"line={index + 1}",
                      raw[:pos] + flipped + raw[pos + 1:]))
    return cases


def run_torture(seed: int, root: str | Path) -> TortureReport:
    """Build one history, damage it everywhere, verify every recovery.

    ``root`` is a scratch directory (caller-owned, typically a
    tempdir); nothing about it leaks into the report.
    """
    root = Path(root)
    report = TortureReport(seed=seed)

    # ----- 1. scripted history through the real durable plumbing
    pristine = root / "pristine"
    graph = build_movie_kg()
    store = DurableStore(pristine)
    manifest = store.snapshot(graph)
    report.base_epoch = int(manifest["epoch"])
    digests: dict[int, str] = {
        report.base_epoch: extensional_digest(graph)}
    graph.attach_mutation_sink(_DigestTee(graph, store, digests))
    scripted_mutations(graph, random.Random(seed))
    graph.detach_mutation_sink()
    store.close()
    report.final_epoch = graph.epoch

    snap_raw = (pristine / DurableStore.SNAPSHOT_NAME).read_bytes()
    wal_raw = (pristine / DurableStore.WAL_NAME).read_bytes()

    # ----- 2./3. damage sweep + verification
    cases = [(kind, detail, damaged, wal_raw)
             for kind, detail, damaged
             in _damage_cases(snap_raw, "snapshot")]
    cases += [(kind, detail, snap_raw, damaged)
              for kind, detail, damaged
              in _damage_cases(wal_raw, "wal")]
    workdir = root / "case"
    for number, (kind, detail, snap, wal) in enumerate(cases):
        casedir = workdir / str(number)
        casedir.mkdir(parents=True)
        (casedir / DurableStore.SNAPSHOT_NAME).write_bytes(snap)
        (casedir / DurableStore.WAL_NAME).write_bytes(wal)
        result = DurableStore(casedir).recover()
        rep = result.report
        if result.graph is not None:
            outcome = "prefix"
            expected = digests.get(rep.epoch)
            if expected is None or \
                    extensional_digest(result.graph) != expected:
                outcome = "FAIL"
                report.failures.append(
                    f"{kind} {detail}: recovered graph at epoch "
                    f"{rep.epoch} does not match any durable prefix")
            elif rep.epoch != result.graph.epoch:
                outcome = "FAIL"
                report.failures.append(
                    f"{kind} {detail}: report epoch {rep.epoch} != "
                    f"graph epoch {result.graph.epoch}")
        else:
            outcome = "rebuild"
            if not rep.quarantined and not rep.notes:
                outcome = "FAIL"
                report.failures.append(
                    f"{kind} {detail}: rebuild verdict with no "
                    "attribution (no quarantine, no notes)")
        report.cases.append(TortureCase(
            kind=kind, detail=detail, outcome=outcome,
            epoch=rep.epoch, replayed=rep.wal_records_replayed,
            quarantined=len(rep.quarantined)))
    return report


__all__ = [
    "OP_COUNT",
    "TortureCase",
    "TortureReport",
    "run_torture",
    "scripted_mutations",
]
