"""Unit tests for snapshot persistence: round trips, attributed load
errors and atomic writes.

The framing grammar and the byte-damage sweep live in
``test_store_v2.py``; the manifest is the snapshot's header record.
"""

import hashlib

import pytest

from repro.errors import StoreError
from repro.graph import Graph, read_snapshot, write_snapshot
from repro.graph.store import DIGEST_SIZE, SNAPSHOT_VERSION, frame_record
from tests.graph.helpers import graphs_equal


@pytest.fixture
def sample():
    g = Graph(name="sample")
    a = g.add_vertex("dog", {"image_id": 1})
    b = g.add_vertex("man")
    g.add_vertex("dog")
    g.add_edge(a.id, b.id, "in front of", {"score": 0.9})
    return g


def snapshot_bytes(records, **manifest):
    """A snapshot whose manifest matches ``records`` (count and
    payload digest), with ``manifest`` fields overriding the rest."""
    body = b"".join(frame_record(record) for record in records)
    header = {
        "type": "manifest", "version": SNAPSHOT_VERSION, "name": "x",
        "epoch": 0, "vertices": 0, "edges": 0, "records": len(records),
        "next_vertex_id": 0, "next_edge_id": 0,
        "payload_digest": hashlib.blake2b(
            body, digest_size=DIGEST_SIZE).hexdigest(),
    }
    header.update(manifest)
    return frame_record(header) + body


def load(tmp_path, sample):
    path = tmp_path / "g.snap"
    write_snapshot(sample, path)
    return read_snapshot(path).graph


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, sample, tmp_path):
        loaded = load(tmp_path, sample)
        assert loaded.name == "sample"
        assert loaded.vertex_count == sample.vertex_count
        assert loaded.edge_count == sample.edge_count
        assert loaded.vertex(0).props == {"image_id": 1}
        edge = next(iter(loaded.edges()))
        assert edge.label == "in front of"
        assert edge.props == {"score": 0.9}

    def test_round_trip_preserves_label_index(self, sample, tmp_path):
        assert len(load(tmp_path, sample).find_vertices("dog")) == 2

    def test_empty_graph_round_trip(self, tmp_path):
        loaded = load(tmp_path, Graph(name="e"))
        assert loaded.vertex_count == 0
        assert loaded.name == "e"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            read_snapshot(tmp_path / "nope.snap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "z.snap"
        path.write_text("")
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_text("{not json\n")
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.snap"
        path.write_bytes(frame_record(
            {"type": "vertex", "id": 0, "label": "x", "props": {}}))
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.snap"
        path.write_bytes(snapshot_bytes([], version=9))
        with pytest.raises(StoreError):
            read_snapshot(path)

    def test_unknown_record_type(self, tmp_path):
        path = tmp_path / "weird.snap"
        path.write_bytes(snapshot_bytes([{"type": "mystery"}]))
        with pytest.raises(StoreError):
            read_snapshot(path)


class TestAttributedErrors:
    def test_missing_header_carries_lineno(self, tmp_path):
        path = tmp_path / "noheader.snap"
        path.write_bytes(frame_record(
            {"type": "vertex", "id": 0, "label": "x", "props": {}}))
        with pytest.raises(StoreError) as err:
            read_snapshot(path)
        assert err.value.reason == "missing-manifest"
        assert err.value.lineno == 1
        assert str(path) in str(err.value)

    def test_duplicate_header_is_rejected(self, tmp_path):
        path = tmp_path / "dup.snap"
        path.write_bytes(snapshot_bytes([{"type": "manifest"}]))
        with pytest.raises(StoreError) as err:
            read_snapshot(path)
        assert err.value.reason == "bad-record"
        assert err.value.lineno == 2

    def test_unknown_version_is_attributed(self, tmp_path):
        path = tmp_path / "v9.snap"
        path.write_bytes(snapshot_bytes([], version=9))
        with pytest.raises(StoreError) as err:
            read_snapshot(path)
        assert err.value.reason == "bad-version"
        assert err.value.lineno == 1

    def test_bad_json_carries_lineno(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(snapshot_bytes([]) + b"{not json\n")
        with pytest.raises(StoreError) as err:
            read_snapshot(path)
        assert err.value.reason == "torn-record"
        assert err.value.lineno == 2


class TestAtomicSave:
    def test_no_temp_file_left_behind(self, sample, tmp_path):
        path = tmp_path / "g.snap"
        write_snapshot(sample, path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_crashed_rewrite_keeps_the_old_file(self, sample, tmp_path,
                                                monkeypatch):
        path = tmp_path / "g.snap"
        write_snapshot(sample, path)
        before = path.read_bytes()

        import os as _os

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(_os, "replace", crash)
        bigger = Graph(name="bigger")
        bigger.add_vertex("x")
        with pytest.raises(StoreError) as err:
            write_snapshot(bigger, path)
        assert err.value.reason == "unwritable"
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert read_snapshot(path).graph.name == "sample"


# -- property-based round trips (gnarly props) ------------------------

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the image
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    json_scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),  # includes "", unicode, surrogates-free
    )
    json_values = st.recursive(
        json_scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    )
    props = st.dictionaries(st.text(max_size=10), json_values,
                            max_size=4)
    labels = st.text(min_size=1, max_size=20)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS,
                        reason="hypothesis not installed")
    class TestPropertyRoundTrip:
        @settings(max_examples=50, deadline=None)
        @given(records=st.lists(st.tuples(labels, props), min_size=1,
                                max_size=6),
               edge_props=props, edge_label=labels)
        def test_gnarly_props_round_trip(self, tmp_path_factory,
                                         records, edge_props,
                                         edge_label):
            g = Graph(name="prop")
            ids = [g.add_vertex(label, p).id for label, p in records]
            if len(ids) >= 2:
                g.add_edge(ids[0], ids[1], edge_label, edge_props)
            path = tmp_path_factory.mktemp("rt") / "g.snap"
            write_snapshot(g, path)
            loaded = read_snapshot(path).graph
            assert loaded.name == g.name
            assert loaded.vertex_count == g.vertex_count
            assert loaded.edge_count == g.edge_count
            for vertex in g.vertices():
                twin = loaded.vertex(vertex.id)
                assert twin.label == vertex.label
                assert twin.props == vertex.props
            for edge in g.edges():
                twins = [e for e in loaded.edges() if e.id == edge.id]
                assert twins and twins[0].props == edge.props
                assert twins[0].label == edge.label

        @settings(max_examples=50, deadline=None)
        @given(records=st.lists(st.tuples(labels, props), min_size=1,
                                max_size=6))
        def test_snapshot_round_trip_is_extensional(
                self, tmp_path_factory, records):
            g = Graph(name="prop")
            for label, p in records:
                g.add_vertex(label, p)
            path = tmp_path_factory.mktemp("snap") / "s.jsonl"
            write_snapshot(g, path)
            assert graphs_equal(read_snapshot(path).graph, g)
