"""Durable merged-graph store: snapshots + WAL + crash-safe recovery.

The paper's Data Aggregator builds the merged graph ``G_mg`` once and
everything downstream depends on it; this module makes that graph
survive process crashes so ``repro serve`` can warm-start instead of
re-running the vision pipeline.  One :class:`DurableStore` owns a
directory with:

* ``snapshot.jsonl`` — an atomic, checksummed store-v2 snapshot
  (:func:`repro.graph.store.write_snapshot`): a manifest record with
  the format version, ``Graph.epoch``, counts, id watermarks and a
  whole-file digest, followed by one framed record per vertex/edge;
* ``wal.jsonl`` — an append-only write-ahead log of graph mutations.
  The first record is a ``begin`` frame linking the log to its
  snapshot's ``payload_digest``; every further record is one mutation
  op dict (``add_vertex``/``add_edge``/``remove_edge``/
  ``remove_vertex``/``relabel_vertex``) tagged with the post-mutation
  epoch, framed and fsynced per append;
* ``quarantine/`` — corrupt records and files moved aside by recovery,
  never silently deleted.

Recovery (:meth:`DurableStore.recover`) loads the last-good snapshot,
verifies every digest, replays the WAL in order — stopping at the
first bad checksum or epoch gap, quarantining the damaged record and
truncating the torn tail — and degrades to a full-rebuild verdict when
the snapshot itself fails verification.  The guarantee the
crash-torture harness (:mod:`repro.graph.torture`) enforces: recovery
always yields a graph extensionally equal to some durable prefix of
the mutation history, or an attributed rebuild — never a silent
partial load.

All three operations are guarded at registered fault sites
(``store.snapshot`` / ``store.wal_append`` / ``store.recover``), traced
under ``store.*`` spans, charged to the :class:`~repro.simtime.SimClock`
(``store_record_io`` / ``store_fsync``), and counted in ``svqa_store_*``
metric families on the store's own registry — so a server that never
touches the store keeps byte-identical metrics output.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import FaultToleranceError, GraphError, StoreError
from repro.graph.model import Graph
from repro.graph.store import (
    atomic_write_bytes,
    frame_record,
    parse_frame,
    read_snapshot,
    write_snapshot,
)
from repro.locks import wrap_lock
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Tracer, maybe_span
from repro.resilience.manager import ResilienceManager
from repro.simtime import SimClock


class WriteAheadLog:
    """Append-only framed mutation log, fsynced per record.

    Not thread-safe on its own: the owning :class:`DurableStore`
    serializes access.  ``reset`` rewrites the log atomically (a
    single ``begin`` record linking it to a snapshot digest);
    ``append`` frames, writes, flushes and fsyncs one op record.
    """

    def __init__(self, path: str | Path, clock: SimClock) -> None:
        self.path = Path(path)
        self.clock = clock
        self._handle: Any = None

    def reset(self, snapshot_digest: str, epoch: int) -> None:
        """Start a fresh log bound to the snapshot with that digest."""
        self.close()
        atomic_write_bytes(self.path, frame_record({
            "op": "begin",
            "snapshot_digest": snapshot_digest,
            "epoch": epoch,
        }))

    def append(self, op: dict[str, Any]) -> None:
        """Durably append one mutation op record."""
        try:
            if self._handle is None:
                self._handle = self.path.open("ab")
            self._handle.write(frame_record(op))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise StoreError(
                f"cannot append to WAL {self.path}: {exc}",
                path=self.path, reason="unwritable",
            ) from exc
        self.clock.charge("store_record_io")
        self.clock.charge("store_fsync")

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class RecoveryReport:
    """What one recovery attempt found and decided.

    Deterministic by construction: file references are store-relative
    names (``snapshot.jsonl`` / ``wal.jsonl``), never absolute paths,
    and no timestamps — two same-seed torture runs must produce
    byte-identical reports.
    """

    #: ``"snapshot"`` (durable state recovered) or ``"rebuild"``
    #: (nothing recoverable; caller must rebuild from scratch)
    source: str = "rebuild"
    #: the recovered graph's epoch (0 when rebuilding)
    epoch: int = 0
    #: WAL op records applied on top of the snapshot
    wal_records_replayed: int = 0
    #: the recovered snapshot's whole-file payload digest
    snapshot_digest: str | None = None
    #: quarantined damage: ``{"file", "lineno", "reason"}`` per item
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    #: deterministic prose notes (drops, missing files, ...)
    notes: list[str] = field(default_factory=list)

    def healthz(self) -> dict[str, Any]:
        """The ``store`` block ``/healthz`` exposes."""
        return {
            "source": self.source,
            "epoch": self.epoch,
            "wal_records_replayed": self.wal_records_replayed,
        }

    def to_json(self) -> dict[str, Any]:
        """A deterministic JSON-ready dict (fixed key order)."""
        return {
            "source": self.source,
            "epoch": self.epoch,
            "wal_records_replayed": self.wal_records_replayed,
            "snapshot_digest": self.snapshot_digest,
            "quarantined": [
                {
                    "file": item["file"],
                    "lineno": item["lineno"],
                    "reason": item["reason"],
                }
                for item in self.quarantined
            ],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Human-readable report (the ``repro recover`` output)."""
        lines = [
            f"durable-store recovery: source={self.source} "
            f"epoch={self.epoch} "
            f"wal_records_replayed={self.wal_records_replayed}"
        ]
        if self.snapshot_digest is not None:
            lines.append(f"  snapshot digest: {self.snapshot_digest}")
        for item in self.quarantined:
            where = item["file"]
            if item["lineno"] is not None:
                where = f"{where}:{item['lineno']}"
            lines.append(f"  quarantined: {where} ({item['reason']})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class RecoveryResult:
    """A recovered graph (or ``None``) plus its report."""

    #: the recovered graph, or ``None`` when ``report.source`` is
    #: ``"rebuild"``
    graph: Graph | None
    #: the snapshot's ``merged_meta`` payload (MergedGraph
    #: bookkeeping), or ``None``
    merged_meta: dict[str, Any] | None
    #: what recovery found and decided
    report: RecoveryReport


class DurableStore:
    """One graph's durable home: snapshot + WAL + recovery.

    The store is also the graph's first mutation observer (its
    mutation sink): after :meth:`attach`, every structural mutation is
    appended to the WAL, so streaming ingestion persists incrementally between
    snapshots.  Durability never blocks answering: a WAL append whose
    retry budget is exhausted degrades the store to memory-only for
    the rest of the process (counted, never silent) instead of
    failing the mutation.

    Thread-safety: snapshot/append serialize on the store lock;
    :meth:`recover` runs before the store is shared (startup) and is
    documented single-threaded.
    """

    SNAPSHOT_NAME = "snapshot.jsonl"
    WAL_NAME = "wal.jsonl"
    QUARANTINE_DIR = "quarantine"

    def __init__(
        self,
        root: str | Path,
        resilience: ResilienceManager | None = None,
        clock: SimClock | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.root / self.SNAPSHOT_NAME
        self.wal_path = self.root / self.WAL_NAME
        self.quarantine_dir = self.root / self.QUARANTINE_DIR
        self.resilience = resilience or ResilienceManager()
        self.clock = clock if clock is not None else SimClock()
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = wrap_lock(threading.Lock(), "durable.store")
        self._wal = WriteAheadLog(self.wal_path, self.clock)
        self._wal_healthy = True
        self._attached: Graph | None = None
        r = self.metrics
        self._snapshots = r.counter(
            "svqa_store_snapshots_total",
            "Durable-store snapshots written.")
        self._appends = r.counter(
            "svqa_store_wal_appends_total",
            "Mutations durably appended to the write-ahead log.")
        self._append_drops = r.counter(
            "svqa_store_wal_append_drops_total",
            "WAL appends dropped after guard exhaustion "
            "(store degraded to memory-only).")
        self._recoveries = r.counter(
            "svqa_store_recoveries_total",
            "Recovery outcomes by source.",
            labels=("source",))
        self._replayed = r.counter(
            "svqa_store_wal_records_replayed_total",
            "WAL op records replayed during recovery.")
        self._quarantined = r.counter(
            "svqa_store_quarantined_total",
            "Corrupt records/files quarantined during recovery.",
            labels=("reason",))

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(
        self, graph: Graph, merged_meta: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Write an atomic checksummed snapshot and rotate the WAL.

        On success the WAL is reset to a single ``begin`` record bound
        to the new snapshot's digest, and a store previously degraded
        by WAL-append exhaustion becomes healthy again (the snapshot
        re-establishes a durable baseline).  Returns the manifest.
        Guarded at ``store.snapshot``: an exhausted retry budget
        raises :class:`~repro.errors.FaultToleranceError`, leaving the
        previous snapshot+WAL pair intact (atomic replacement).
        """
        def write() -> dict[str, Any]:
            with maybe_span(self.tracer, "store.snapshot",
                            epoch=graph.epoch):
                with self._lock:
                    manifest = write_snapshot(
                        graph, self.snapshot_path, merged_meta)
                    self._wal.reset(
                        manifest["payload_digest"], manifest["epoch"])
                    self._wal_healthy = True
            self.clock.charge("store_record_io", manifest["records"] + 1)
            self.clock.charge("store_fsync", 2)
            self._snapshots.inc()
            return manifest

        result = self.resilience.call(
            "store.snapshot", graph.epoch, write, clock=self.clock)
        assert isinstance(result, dict)
        return result

    # ------------------------------------------------------------------
    # the WAL side: the graph's first observer
    # ------------------------------------------------------------------
    def attach(self, graph: Graph) -> None:
        """Start appending ``graph``'s mutations to the WAL."""
        with self._lock:
            self._attached = graph
        graph.attach_mutation_sink(self)

    def detach(self) -> None:
        """Stop logging and close the WAL handle (idempotent)."""
        with self._lock:
            graph = self._attached
            self._attached = None
        if graph is not None:
            graph.detach_mutation_sink()
        self._wal.close()

    def record(self, op: dict[str, Any]) -> None:
        """Observer hook: durably append one mutation.

        Guarded at ``store.wal_append`` with the op's epoch as the
        fault key.  Exhaustion (or a real write error) degrades the
        store to memory-only — counted on
        ``svqa_store_wal_append_drops_total`` — rather than failing
        the in-memory mutation that already happened.
        """
        with self._lock:
            healthy = self._wal_healthy
        if not healthy:
            self._append_drops.inc()
            return

        def append() -> None:
            with maybe_span(self.tracer, "store.wal_append",
                            epoch=op["epoch"]):
                with self._lock:
                    self._wal.append(op)

        try:
            self.resilience.call(
                "store.wal_append", op["epoch"], append,
                clock=self.clock)
        except (FaultToleranceError, StoreError):
            with self._lock:
                self._wal_healthy = False
            self._append_drops.inc()
            return
        self._appends.inc()

    @property
    def wal_healthy(self) -> bool:
        """Whether WAL appends are still being persisted."""
        with self._lock:
            return self._wal_healthy

    def close(self) -> None:
        """Detach from the graph and release file handles."""
        self.detach()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryResult:
        """Recover the last durable state: snapshot load + WAL replay.

        Never raises for on-disk corruption — damage is quarantined
        and attributed in the report, and the result degrades to
        ``source="rebuild"`` when nothing is recoverable.  Guarded at
        ``store.recover``: injected-fault exhaustion also degrades to
        a rebuild verdict (the server falls back to the cold path).
        """
        def run() -> RecoveryResult:
            with maybe_span(self.tracer, "store.recover"):
                return self._recover()

        try:
            result = self.resilience.call(
                "store.recover", "recover", run, clock=self.clock)
            assert isinstance(result, RecoveryResult)
            return result
        except FaultToleranceError:
            report = RecoveryReport()
            report.notes.append(
                "store.recover guard exhausted its retry budget; "
                "falling back to a full rebuild")
            self._recoveries.inc(source="rebuild")
            return RecoveryResult(None, None, report)

    def _recover(self) -> RecoveryResult:
        report = RecoveryReport()
        if not self.snapshot_path.exists():
            if self.wal_path.exists():
                self._quarantine_file(self.wal_path, report, "orphaned-wal")
            report.notes.append("no snapshot on disk")
            self._recoveries.inc(source="rebuild")
            return RecoveryResult(None, None, report)
        try:
            loaded = read_snapshot(self.snapshot_path)
        except StoreError as exc:
            self._quarantine_file(
                self.snapshot_path, report,
                exc.reason or "bad-snapshot", lineno=exc.lineno)
            if self.wal_path.exists():
                self._quarantine_file(self.wal_path, report, "orphaned-wal")
            report.notes.append(
                "snapshot failed verification; full rebuild required")
            self._recoveries.inc(source="rebuild")
            return RecoveryResult(None, None, report)
        graph = loaded.graph
        manifest = loaded.manifest
        report.source = "snapshot"
        report.snapshot_digest = manifest["payload_digest"]
        self.clock.charge("store_record_io", manifest["records"] + 1)
        replayed = self._replay_wal(graph, manifest, report)
        report.wal_records_replayed = replayed
        report.epoch = graph.epoch
        self._recoveries.inc(source="snapshot")
        if replayed:
            self._replayed.inc(replayed)
        return RecoveryResult(graph, loaded.merged_meta, report)

    def _replay_wal(
        self,
        graph: Graph,
        manifest: dict[str, Any],
        report: RecoveryReport,
    ) -> int:
        """Replay the WAL onto ``graph``; returns ops applied.

        Stops at the first damaged or out-of-sequence record: the
        record is quarantined, the remainder dropped, and the WAL file
        truncated to its good prefix — so the on-disk pair is again
        internally consistent.
        """
        if not self.wal_path.exists():
            report.notes.append("no WAL on disk")
            return 0
        try:
            raw = self.wal_path.read_bytes()
        except OSError:
            self._quarantine_file(self.wal_path, report, "unreadable")
            return 0
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        if not lines:
            self._quarantine_file(self.wal_path, report, "missing-begin")
            return 0
        try:
            begin = parse_frame(lines[0], self.WAL_NAME, 1)
        except StoreError as exc:
            self._quarantine_file(
                self.wal_path, report, exc.reason or "bad-record",
                lineno=1)
            return 0
        if begin.get("op") != "begin" \
                or begin.get("snapshot_digest") \
                != manifest["payload_digest"] \
                or begin.get("epoch") != manifest["epoch"]:
            # a WAL for some other snapshot generation: the snapshot
            # alone is a valid durable prefix, the log is not ours
            self._quarantine_file(self.wal_path, report, "stale-wal",
                                  lineno=1)
            return 0
        replayed = 0
        good = lines[:1]
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                op = parse_frame(line, self.WAL_NAME, lineno)
                self._apply(graph, op, lineno)
            except StoreError as exc:
                self._quarantine_record(
                    line, lineno, report, exc.reason or "bad-record")
                dropped = len(lines) - lineno
                if dropped:
                    report.notes.append(
                        f"dropped {dropped} WAL record(s) after the "
                        f"damaged record at line {lineno}")
                atomic_write_bytes(
                    self.wal_path,
                    b"".join(item + b"\n" for item in good))
                break
            good.append(line)
            replayed += 1
            self.clock.charge("store_record_io")
        return replayed

    def _apply(
        self, graph: Graph, op: dict[str, Any], lineno: int
    ) -> None:
        """Apply one verified WAL op, enforcing epoch continuity.

        The epoch check runs *before* mutating: every logged op bumps
        the epoch exactly once, so a gap means the log lost a record
        (a dropped append) and everything from here on is not a
        durable prefix.
        """
        kind = op.get("op")
        if op.get("epoch") != graph.epoch + 1:
            raise StoreError(
                f"{self.WAL_NAME}:{lineno}: epoch gap (graph at "
                f"{graph.epoch}, record says {op.get('epoch')!r})",
                path=self.WAL_NAME, lineno=lineno, reason="epoch-gap",
            )
        try:
            if kind == "add_vertex":
                graph.add_vertex(op["label"], op["props"],
                                 vertex_id=op["id"])
            elif kind == "add_edge":
                graph.add_edge(op["src"], op["dst"], op["label"],
                               op["props"], edge_id=op["id"])
            elif kind == "remove_edge":
                graph.remove_edge(op["id"])
            elif kind == "remove_vertex":
                graph.remove_vertex(op["id"])
            elif kind == "relabel_vertex":
                graph.relabel_vertex(op["id"], op["label"])
            else:
                raise StoreError(
                    f"{self.WAL_NAME}:{lineno}: unknown WAL op {kind!r}",
                    path=self.WAL_NAME, lineno=lineno,
                    reason="bad-record",
                )
        except KeyError as exc:
            raise StoreError(
                f"{self.WAL_NAME}:{lineno}: {kind} record missing key "
                f"{exc}",
                path=self.WAL_NAME, lineno=lineno, reason="bad-record",
            ) from exc
        except StoreError:
            raise
        except GraphError as exc:
            raise StoreError(
                f"{self.WAL_NAME}:{lineno}: {kind} record does not "
                f"apply: {exc}",
                path=self.WAL_NAME, lineno=lineno, reason="bad-record",
            ) from exc

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _quarantine_file(
        self,
        path: Path,
        report: RecoveryReport,
        reason: str,
        lineno: int | None = None,
    ) -> None:
        """Move a damaged file aside (never delete evidence)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            report.notes.append(
                f"could not move {path.name} into quarantine")
        report.quarantined.append(
            {"file": path.name, "lineno": lineno, "reason": reason})
        self._quarantined.inc(reason=reason)

    def _quarantine_record(
        self,
        line: bytes,
        lineno: int,
        report: RecoveryReport,
        reason: str,
    ) -> None:
        """Preserve one damaged WAL record under quarantine/."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            self.quarantine_dir / f"wal-{lineno:06d}.rec", line + b"\n")
        report.quarantined.append(
            {"file": self.WAL_NAME, "lineno": lineno, "reason": reason})
        self._quarantined.inc(reason=reason)


__all__ = [
    "DurableStore",
    "RecoveryReport",
    "RecoveryResult",
    "WriteAheadLog",
]
