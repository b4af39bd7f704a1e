"""DurableStore: WAL round trips, damage handling, guard degradation.

The invariant under test everywhere: recovery yields a graph
extensionally equal to some durable prefix of the mutation history,
or an attributed rebuild verdict — never a silent partial load.  The
exhaustive damage sweep lives in :mod:`repro.graph.torture`; these
are the targeted unit cases plus the fault-injection seams.
"""

import pytest

from repro.errors import FaultToleranceError
from repro.graph import DurableStore, Graph, extensional_digest, read_snapshot
from repro.resilience import ResilienceConfig, ResilienceManager
from repro.resilience.faults import FaultSpec
from tests.graph.helpers import graphs_equal


def build_base() -> Graph:
    g = Graph(name="base")
    a = g.add_vertex("dog", {"image_id": 1})
    b = g.add_vertex("man")
    c = g.add_vertex("tree")
    g.add_edge(a.id, b.id, "near")
    g.add_edge(b.id, c.id, "under", {"score": 0.5})
    return g


def mutate(g: Graph) -> None:
    d = g.add_vertex("cat", {"note": "café"})
    g.add_edge(d.id, 0, "chases")
    g.relabel_vertex(1, "woman")
    g.remove_edge(1)
    g.remove_vertex(0)  # cascades through remaining incident edges


def manager_with(site: str, rate: float = 1.0) -> ResilienceManager:
    return ResilienceManager(ResilienceConfig(
        seed=0,
        fault_specs={site: FaultSpec(rate=rate,
                                     persistent_fraction=1.0)},
    ))


class TestWalRoundTrip:
    def test_recover_replays_to_the_live_state(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        store.attach(g)
        mutate(g)
        store.close()
        result = DurableStore(tmp_path).recover()
        assert result.report.source == "snapshot"
        assert result.report.wal_records_replayed > 0
        assert graphs_equal(result.graph, g)
        assert result.graph.epoch == g.epoch

    def test_snapshot_rotates_the_wal(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        store.attach(g)
        mutate(g)
        store.snapshot(g)  # WAL resets to a begin record
        store.close()
        result = DurableStore(tmp_path).recover()
        assert result.report.wal_records_replayed == 0
        assert graphs_equal(result.graph, g)

    def test_merged_meta_round_trips(self, tmp_path):
        g = build_base()
        meta = {"instance_ids": [0, 1], "skipped_images": [7]}
        store = DurableStore(tmp_path)
        store.snapshot(g, merged_meta=meta)
        store.close()
        assert DurableStore(tmp_path).recover().merged_meta == meta


class TestDamage:
    def history(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        base_epoch = g.epoch
        store.attach(g)
        mutate(g)
        store.close()
        return g, base_epoch

    def test_torn_tail_truncates_to_the_good_prefix(self, tmp_path):
        g, base_epoch = self.history(tmp_path)
        wal = tmp_path / DurableStore.WAL_NAME
        raw = wal.read_bytes()
        wal.write_bytes(raw[:-5])
        store = DurableStore(tmp_path)
        result = store.recover()
        assert result.report.source == "snapshot"
        assert result.report.quarantined[0]["reason"] == "torn-record"
        assert result.graph.epoch == g.epoch - 1
        # the torn tail was rewritten away: a second recovery is clean
        second = DurableStore(tmp_path).recover()
        assert not second.report.quarantined
        assert graphs_equal(second.graph, result.graph)

    def test_stale_wal_is_quarantined(self, tmp_path):
        g, base_epoch = self.history(tmp_path)
        wal = tmp_path / DurableStore.WAL_NAME
        lines = wal.read_bytes().split(b"\n")
        from repro.graph.store import frame_record

        lines[0] = frame_record({
            "op": "begin", "snapshot_digest": "0" * 32,
            "epoch": base_epoch}).rstrip(b"\n")
        wal.write_bytes(b"\n".join(lines))
        result = DurableStore(tmp_path).recover()
        assert result.report.source == "snapshot"
        assert result.report.epoch == base_epoch
        assert result.report.quarantined[0]["reason"] == "stale-wal"
        assert result.report.wal_records_replayed == 0

    def test_orphaned_wal_forces_attributed_rebuild(self, tmp_path):
        self.history(tmp_path)
        (tmp_path / DurableStore.SNAPSHOT_NAME).unlink()
        result = DurableStore(tmp_path).recover()
        assert result.graph is None
        assert result.report.source == "rebuild"
        assert result.report.quarantined[0]["reason"] == "orphaned-wal"
        assert (tmp_path / DurableStore.QUARANTINE_DIR
                / DurableStore.WAL_NAME).exists()

    def test_quarantined_record_is_preserved_on_disk(self, tmp_path):
        self.history(tmp_path)
        wal = tmp_path / DurableStore.WAL_NAME
        raw = wal.read_bytes()
        cut = raw.rstrip(b"\n").rfind(b"\n") + 1
        pos = cut + (len(raw) - cut) // 2
        damaged = raw[:pos] + b"#" + raw[pos + 1:]
        wal.write_bytes(damaged)
        result = DurableStore(tmp_path).recover()
        lineno = result.report.quarantined[0]["lineno"]
        rec = tmp_path / DurableStore.QUARANTINE_DIR \
            / f"wal-{lineno:06d}.rec"
        assert rec.exists()
        assert rec.read_bytes() == damaged[cut:]


class TestGuards:
    def test_wal_append_exhaustion_degrades_to_memory_only(
            self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path,
                             resilience=manager_with("store.wal_append"))
        store.snapshot(g)
        base_epoch = g.epoch
        store.attach(g)
        mutate(g)
        assert not store.wal_healthy
        store.close()
        # the durable prefix is exactly the snapshot: no partial WAL
        result = DurableStore(tmp_path).recover()
        assert result.report.epoch == base_epoch
        assert result.report.wal_records_replayed == 0

    def test_snapshot_exhaustion_keeps_the_previous_pair(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        before = (tmp_path / DurableStore.SNAPSHOT_NAME).read_bytes()
        store.close()
        g.add_vertex("more")
        faulty = DurableStore(tmp_path,
                              resilience=manager_with("store.snapshot"))
        with pytest.raises(FaultToleranceError):
            faulty.snapshot(g)
        faulty.close()
        assert (tmp_path / DurableStore.SNAPSHOT_NAME).read_bytes() \
            == before

    def test_recover_exhaustion_degrades_to_rebuild(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        store.close()
        result = DurableStore(
            tmp_path,
            resilience=manager_with("store.recover")).recover()
        assert result.graph is None
        assert result.report.source == "rebuild"
        assert result.report.notes

    def test_healthy_snapshot_resets_wal_degradation(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path,
                             resilience=manager_with("store.wal_append"))
        store.snapshot(g)
        store.attach(g)
        g.add_vertex("dropped")
        assert not store.wal_healthy
        store.snapshot(g)
        assert store.wal_healthy
        store.close()
        result = DurableStore(tmp_path).recover()
        assert graphs_equal(result.graph, g)


class TestMetricsIsolation:
    def test_store_metrics_live_on_a_private_registry(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        store.close()
        assert "svqa_store_snapshots_total" in \
            store.metrics.to_prometheus()
        from repro.core.stats import ExecutorStats

        assert "svqa_store_snapshots_total" not in \
            ExecutorStats().registry.to_prometheus()

    def test_extensional_digest_matches_snapshot_read(self, tmp_path):
        g = build_base()
        store = DurableStore(tmp_path)
        store.snapshot(g)
        store.close()
        loaded = read_snapshot(tmp_path / DurableStore.SNAPSHOT_NAME)
        assert extensional_digest(loaded.graph) == extensional_digest(g)
