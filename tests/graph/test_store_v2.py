"""Store v2: record framing, checksummed snapshots, digests.

Every snapshot byte is covered by two checksums (per-record frame
digest + whole-file payload digest in the manifest); these tests pin
the framing grammar, the round-trip fidelity (ids, insertion order,
epoch, id watermarks), and the attributed failure reason for each
class of damage.
"""

import pytest

from repro.errors import StoreError
from repro.graph import Graph, extensional_digest, read_snapshot, write_snapshot
from repro.graph.store import canonical_payload, frame_record, parse_frame
from tests.graph.helpers import graphs_equal


@pytest.fixture
def sample():
    g = Graph(name="sample")
    a = g.add_vertex("dog", {"image_id": 1})
    b = g.add_vertex("man", {"note": "café ☃"})
    c = g.add_vertex("dog")
    g.add_edge(a.id, b.id, "in front of", {"score": 0.9})
    g.add_edge(b.id, c.id, "next to")
    g.remove_vertex(c.id)  # leaves an id hole + a higher watermark
    return g


class TestFraming:
    def test_frame_parse_round_trip(self):
        record = {"op": "add_vertex", "label": "café ☃",
                  "props": {"x": [1, 2.5, None, ""]}}
        assert parse_frame(frame_record(record).rstrip(b"\n")) == record

    def test_torn_frame_is_attributed(self):
        line = frame_record({"a": 1}).rstrip(b"\n")
        with pytest.raises(StoreError) as err:
            parse_frame(line[:-3], "wal.jsonl", 7)
        assert err.value.reason == "torn-record"
        assert err.value.lineno == 7

    def test_flipped_payload_byte_is_bad_digest(self):
        line = frame_record({"a": 1}).rstrip(b"\n")
        mangled = line[:-2] + b"#" + line[-1:]
        with pytest.raises(StoreError) as err:
            parse_frame(mangled)
        assert err.value.reason == "bad-digest"

    def test_digest_valid_non_object_is_bad_record(self):
        payload = canonical_payload([1, 2])
        import hashlib

        digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
        line = b"%d|%s|%s" % (len(payload), digest.encode(), payload)
        with pytest.raises(StoreError) as err:
            parse_frame(line)
        assert err.value.reason == "bad-record"


class TestSnapshotRoundTrip:
    def test_round_trip_is_extensional_identity(self, sample, tmp_path):
        path = tmp_path / "snap.jsonl"
        manifest = write_snapshot(sample, path)
        loaded = read_snapshot(path)
        assert graphs_equal(sample, loaded.graph)
        assert loaded.graph.epoch == sample.epoch
        assert extensional_digest(loaded.graph) == \
            extensional_digest(sample)
        assert manifest["vertices"] == sample.vertex_count
        assert manifest["edges"] == sample.edge_count

    def test_id_watermarks_survive_the_round_trip(self, sample,
                                                  tmp_path):
        path = tmp_path / "snap.jsonl"
        write_snapshot(sample, path)
        loaded = read_snapshot(path).graph
        fresh = loaded.add_vertex("new")
        assert fresh.id == sample.add_vertex("new").id
        live_edge = sample.add_edge(0, 1, "x")
        assert loaded.add_edge(0, 1, "x").id == live_edge.id

    def test_insertion_order_is_preserved(self, sample, tmp_path):
        path = tmp_path / "snap.jsonl"
        write_snapshot(sample, path)
        loaded = read_snapshot(path).graph
        assert [v.id for v in loaded.vertices()] == \
            [v.id for v in sample.vertices()]
        assert [e.id for e in loaded.edges()] == \
            [e.id for e in sample.edges()]

    def test_merged_meta_rides_along(self, sample, tmp_path):
        path = tmp_path / "snap.jsonl"
        meta = {"instance_ids": [1, 2], "skipped_images": []}
        write_snapshot(sample, path, merged_meta=meta)
        loaded = read_snapshot(path)
        assert loaded.merged_meta == meta
        bare = tmp_path / "bare.jsonl"
        write_snapshot(sample, bare)
        assert read_snapshot(bare).merged_meta is None


class TestSnapshotDamage:
    def damage(self, sample, tmp_path, mutate):
        path = tmp_path / "snap.jsonl"
        write_snapshot(sample, path)
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(StoreError) as err:
            read_snapshot(path)
        return err.value

    def test_truncated_tail_is_detected(self, sample, tmp_path):
        err = self.damage(sample, tmp_path,
                          lambda raw: raw[:raw.rstrip().rfind(b"\n")])
        assert err.reason in ("record-count", "bad-digest")

    def test_mid_record_truncation_is_torn(self, sample, tmp_path):
        err = self.damage(sample, tmp_path, lambda raw: raw[:-4])
        assert err.reason == "torn-record"

    def test_flipped_body_byte_is_detected(self, sample, tmp_path):
        def flip(raw):
            pos = len(raw) // 2
            return raw[:pos] + b"#" + raw[pos + 1:]

        err = self.damage(sample, tmp_path, flip)
        assert err.reason in ("bad-digest", "torn-record")

    def test_extra_record_breaks_whole_file_digest(self, sample,
                                                   tmp_path):
        err = self.damage(
            sample, tmp_path,
            lambda raw: raw + frame_record(
                {"type": "vertex", "id": 99, "label": "x",
                 "props": {}}))
        assert err.reason in ("record-count", "bad-digest")

    def test_empty_file_is_missing_manifest(self, sample, tmp_path):
        err = self.damage(sample, tmp_path, lambda raw: b"")
        assert err.reason == "missing-manifest"


class TestExtensionalDigest:
    def test_same_content_same_digest(self):
        a, b = Graph(name="g"), Graph(name="g")
        for g in (a, b):
            g.add_vertex("x", vertex_id=0)
            g.add_vertex("y", vertex_id=1)
            g.add_edge(0, 1, "r")
        assert extensional_digest(a) == extensional_digest(b)
        assert graphs_equal(a, b)

    def test_epoch_is_part_of_the_digest(self):
        a, b = Graph(name="g"), Graph(name="g")
        a.add_vertex("x", vertex_id=0)
        b.add_vertex("x", vertex_id=0)
        b.relabel_vertex(0, "y")
        b.relabel_vertex(0, "x")
        assert not graphs_equal(a, b)
        assert extensional_digest(a) != extensional_digest(b)
