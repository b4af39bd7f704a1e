"""Graph persistence: framed, checksummed snapshots (store v2).

The on-disk format (full spec in DESIGN.md §5i) is a sequence of
*framed* records, one per line::

    <payload-bytes>|<blake2b-128 hex>|<canonical-json-payload>\\n

so torn writes and flipped bits are detected per record.  The first
record is a manifest carrying the format version, graph name,
``Graph.epoch``, vertex/edge counts, the id watermarks needed for
exact WAL replay, and a whole-file digest over every framed record
after the manifest.  The same framing is shared by the write-ahead
log (:class:`repro.graph.durable.WriteAheadLog`).

All load/verify failures raise :class:`~repro.errors.StoreError` with
structured attribution (``path``, ``lineno``, machine-readable
``reason`` slug) so recovery reports and the crash-torture harness can
point at the damage.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import GraphError, StoreError
from repro.graph.model import Graph

#: format version of the framed snapshot format (store v2)
SNAPSHOT_VERSION = 2

#: blake2b digest size in bytes for record and whole-file checksums
#: (128-bit: 32 hex characters per digest field)
DIGEST_SIZE = 16


# ----------------------------------------------------------------------
# record framing (shared by snapshots and the write-ahead log)
# ----------------------------------------------------------------------
def canonical_payload(record: dict[str, Any]) -> bytes:
    """The canonical JSON encoding of one record.

    Sorted keys, no whitespace, ASCII-escaped — so equal records have
    equal bytes and same-seed runs write byte-identical files.
    """
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def frame_record(record: dict[str, Any]) -> bytes:
    """Frame one record as ``<len>|<digest>|<payload>\\n`` bytes."""
    payload = canonical_payload(record)
    digest = hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()
    return b"%d|%s|%s\n" % (len(payload), digest.encode("ascii"), payload)


def parse_frame(
    line: bytes, path: str | Path | None = None, lineno: int | None = None
) -> dict[str, Any]:
    """Parse and verify one framed line (without its newline).

    Raises :class:`~repro.errors.StoreError` with reason
    ``"torn-record"`` (framing damage: missing separators, bad length
    field, short payload — the shape a crash mid-append leaves),
    ``"bad-digest"`` (full-length payload whose checksum does not
    match — flipped bits), or ``"bad-record"`` (digest-valid payload
    that is not a JSON object — a writer bug, not corruption).
    """
    length_field, sep, rest = line.partition(b"|")
    if not sep:
        raise StoreError(
            f"{path}:{lineno}: torn record (no length separator)",
            path=path, lineno=lineno, reason="torn-record",
        )
    try:
        length = int(length_field)
    except ValueError:
        raise StoreError(
            f"{path}:{lineno}: torn record (bad length field "
            f"{length_field!r})",
            path=path, lineno=lineno, reason="torn-record",
        ) from None
    digest_field, sep, payload = rest.partition(b"|")
    if not sep or len(digest_field) != 2 * DIGEST_SIZE:
        raise StoreError(
            f"{path}:{lineno}: torn record (bad digest field)",
            path=path, lineno=lineno, reason="torn-record",
        )
    if len(payload) != length:
        raise StoreError(
            f"{path}:{lineno}: torn record (payload is {len(payload)} "
            f"bytes, framed length says {length})",
            path=path, lineno=lineno, reason="torn-record",
        )
    actual = hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()
    if actual.encode("ascii") != digest_field:
        raise StoreError(
            f"{path}:{lineno}: record checksum mismatch",
            path=path, lineno=lineno, reason="bad-digest",
        )
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise StoreError(
            f"{path}:{lineno}: checksummed payload is not JSON: {exc}",
            path=path, lineno=lineno, reason="bad-record",
        ) from exc
    if not isinstance(record, dict):
        raise StoreError(
            f"{path}:{lineno}: record must be a JSON object",
            path=path, lineno=lineno, reason="bad-record",
        )
    return record


# ----------------------------------------------------------------------
# atomic file replacement
# ----------------------------------------------------------------------
def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically.

    Writes to a sibling temp file, fsyncs it, renames it over the
    target, then fsyncs the directory — so readers see either the old
    complete file or the new complete file, never a torn mix, even
    across a crash at any point.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(
            f"cannot write {path}: {exc}", path=path, reason="unwritable"
        ) from exc
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (rename durability); best-effort on
    platforms without directory file descriptors."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# v2: framed, checksummed snapshots (the durable store's format)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadedSnapshot:
    """The verified contents of one store-v2 snapshot file."""

    #: the rebuilt graph, with epoch and id watermarks restored
    graph: Graph
    #: the verified manifest record (version, digests, counts, ...)
    manifest: dict[str, Any]
    #: the optional ``merged_meta`` record's ``meta`` dict (MergedGraph
    #: bookkeeping for server warm start), or ``None``
    merged_meta: dict[str, Any] | None


_MANIFEST_INT_FIELDS = (
    "epoch", "vertices", "edges", "records", "next_vertex_id",
    "next_edge_id",
)


def write_snapshot(
    graph: Graph,
    path: str | Path,
    merged_meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Write a store-v2 snapshot of ``graph`` to ``path``, atomically.

    Records are written in insertion order (vertices then edges), so a
    rebuilt graph iterates identically to the original — a requirement
    for bit-identical answers after warm start.  ``merged_meta`` is an
    optional JSON-ready dict stored verbatim (the serving layer puts
    :class:`~repro.core.aggregator.MergedGraph` bookkeeping there).

    Returns the manifest record, whose ``payload_digest`` identifies
    this snapshot (the WAL's ``begin`` record links to it).
    """
    records: list[dict[str, Any]] = []
    if merged_meta is not None:
        records.append({"type": "merged_meta", "meta": merged_meta})
    for vertex in graph.vertices():
        records.append({
            "type": "vertex", "id": vertex.id, "label": vertex.label,
            "props": vertex.props,
        })
    for edge in graph.edges():
        records.append({
            "type": "edge", "id": edge.id, "src": edge.src,
            "dst": edge.dst, "label": edge.label, "props": edge.props,
        })
    body = b"".join(frame_record(record) for record in records)
    manifest = {
        "type": "manifest",
        "version": SNAPSHOT_VERSION,
        "name": graph.name,
        "epoch": graph.epoch,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "records": len(records),
        "next_vertex_id": graph._next_vertex_id,
        "next_edge_id": graph._next_edge_id,
        "payload_digest": hashlib.blake2b(
            body, digest_size=DIGEST_SIZE
        ).hexdigest(),
    }
    atomic_write_bytes(path, frame_record(manifest) + body)
    return manifest


def read_snapshot(path: str | Path) -> LoadedSnapshot:
    """Load and fully verify a store-v2 snapshot.

    Verification order localizes damage as precisely as possible:
    every frame's own checksum first (attributing a line number), then
    the record count, then the whole-file payload digest, then graph
    reconstruction, then the manifest's vertex/edge counts.  Any
    failure raises an attributed :class:`~repro.errors.StoreError`;
    there is no partial success.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StoreError(
            f"cannot read snapshot {path}: {exc}",
            path=path, reason="unreadable",
        ) from exc
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        raise StoreError(
            f"empty snapshot: {path}", path=path, reason="missing-manifest"
        )

    manifest = parse_frame(lines[0], path, 1)
    if manifest.get("type") != "manifest":
        raise StoreError(
            f"{path}:1: first record must be a manifest",
            path=path, lineno=1, reason="missing-manifest",
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise StoreError(
            f"{path}:1: unsupported snapshot version "
            f"{manifest.get('version')!r}",
            path=path, lineno=1, reason="bad-version",
        )
    for fld in _MANIFEST_INT_FIELDS:
        if not isinstance(manifest.get(fld), int):
            raise StoreError(
                f"{path}:1: manifest field {fld!r} must be an integer",
                path=path, lineno=1, reason="bad-manifest",
            )
    if not isinstance(manifest.get("name"), str) or \
            not isinstance(manifest.get("payload_digest"), str):
        raise StoreError(
            f"{path}:1: manifest name/payload_digest must be strings",
            path=path, lineno=1, reason="bad-manifest",
        )

    records = [
        parse_frame(line, path, lineno)
        for lineno, line in enumerate(lines[1:], start=2)
    ]
    if len(records) != manifest["records"]:
        raise StoreError(
            f"{path}: manifest promises {manifest['records']} records, "
            f"found {len(records)}",
            path=path, reason="record-count",
        )
    body = raw[raw.index(b"\n") + 1:]
    actual = hashlib.blake2b(body, digest_size=DIGEST_SIZE).hexdigest()
    if actual != manifest["payload_digest"]:
        raise StoreError(
            f"{path}: whole-file payload digest mismatch",
            path=path, reason="bad-digest",
        )

    graph = Graph(name=manifest["name"])
    merged_meta: dict[str, Any] | None = None
    for lineno, record in enumerate(records, start=2):
        kind = record.get("type")
        try:
            if kind == "vertex":
                graph.add_vertex(
                    record["label"], record["props"],
                    vertex_id=record["id"],
                )
            elif kind == "edge":
                graph.add_edge(
                    record["src"], record["dst"], record["label"],
                    record["props"], edge_id=record["id"],
                )
            elif kind == "merged_meta":
                if merged_meta is not None:
                    raise StoreError(
                        f"{path}:{lineno}: duplicate merged_meta record",
                        path=path, lineno=lineno, reason="bad-record",
                    )
                meta = record["meta"]
                if not isinstance(meta, dict):
                    raise StoreError(
                        f"{path}:{lineno}: merged_meta meta must be an "
                        "object",
                        path=path, lineno=lineno, reason="bad-record",
                    )
                merged_meta = meta
            else:
                raise StoreError(
                    f"{path}:{lineno}: unknown record type {kind!r}",
                    path=path, lineno=lineno, reason="bad-record",
                )
        except KeyError as exc:
            raise StoreError(
                f"{path}:{lineno}: {kind} record missing key {exc}",
                path=path, lineno=lineno, reason="bad-record",
            ) from exc
        except StoreError:
            raise
        except GraphError as exc:
            raise StoreError(
                f"{path}:{lineno}: inconsistent {kind} record: {exc}",
                path=path, lineno=lineno, reason="bad-record",
            ) from exc
    if graph.vertex_count != manifest["vertices"] or \
            graph.edge_count != manifest["edges"]:
        raise StoreError(
            f"{path}: manifest counts "
            f"({manifest['vertices']}v/{manifest['edges']}e) disagree "
            f"with records ({graph.vertex_count}v/{graph.edge_count}e)",
            path=path, reason="bad-count",
        )
    graph._restore_bookkeeping(
        manifest["epoch"], manifest["next_vertex_id"],
        manifest["next_edge_id"],
    )
    return LoadedSnapshot(graph=graph, manifest=manifest,
                          merged_meta=merged_meta)


# ----------------------------------------------------------------------
# extensional equality (torture-harness verification)
# ----------------------------------------------------------------------
def extensional_digest(graph: Graph) -> str:
    """A digest of a graph's extensional content plus its epoch.

    Two graphs have equal digests iff they have the same name, epoch,
    and the same vertex/edge sets (ids, labels, props) — regardless of
    insertion order or internal index state.  The crash-torture
    harness uses this to assert that recovery yields *exactly* some
    durable prefix of the mutation history.
    """
    payload = {
        "name": graph.name,
        "epoch": graph.epoch,
        "vertices": [
            [v.id, v.label, v.props]
            for v in sorted(graph.vertices(), key=lambda v: v.id)
        ],
        "edges": [
            [e.id, e.src, e.dst, e.label, e.props]
            for e in sorted(graph.edges(), key=lambda e: e.id)
        ],
    }
    return hashlib.blake2b(
        canonical_payload(payload), digest_size=DIGEST_SIZE
    ).hexdigest()
