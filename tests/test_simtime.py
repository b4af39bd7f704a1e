"""Unit tests for the simulated-time cost model."""

import pytest

from repro.simtime import DEFAULT_COSTS, SimClock


class TestSimClock:
    def test_charge_accumulates(self):
        clock = SimClock()
        clock.charge("graph_probe") if "graph_probe" in clock.costs else None
        clock.charge("pos_tag")
        clock.charge("pos_tag", times=2)
        assert clock.elapsed == pytest.approx(3 * DEFAULT_COSTS["pos_tag"])
        assert clock.counts["pos_tag"] == 3

    def test_unknown_operation_raises(self):
        with pytest.raises(KeyError):
            SimClock().charge("warp_drive")

    def test_negative_times_raises(self):
        with pytest.raises(ValueError):
            SimClock().charge("pos_tag", times=-1)

    def test_charge_amount(self):
        clock = SimClock()
        clock.charge_amount("edge_scan", 1.5)
        assert clock.elapsed == pytest.approx(1.5)

    def test_negative_amount_raises(self):
        with pytest.raises(ValueError):
            SimClock().charge_amount("edge_scan", -0.1)

    def test_reset(self):
        clock = SimClock()
        clock.charge("pos_tag")
        clock.reset()
        assert clock.elapsed == 0.0
        assert clock.counts == {}

    def test_snapshot_interval(self):
        clock = SimClock()
        clock.charge("pos_tag")
        snap = clock.snapshot()
        clock.charge("dep_parse")
        assert snap.interval == pytest.approx(DEFAULT_COSTS["dep_parse"])

    def test_custom_costs(self):
        clock = SimClock(costs={"thing": 2.0})
        clock.charge("thing")
        assert clock.elapsed == 2.0

    def test_charges_are_additive(self):
        clock = SimClock()
        total = 0.0
        for op in ("pos_tag", "dep_parse", "vqa_forward"):
            total += clock.charge(op)
        assert clock.elapsed == pytest.approx(total)


def shard_of(clock):
    """A worker's clock shard, as the batch engine makes one: zeroed,
    with a copy of the cost table."""
    return SimClock(costs=dict(clock.costs))


class TestShards:
    def test_fork_shares_costs_but_not_state(self):
        clock = SimClock(costs={"thing": 2.0})
        clock.charge("thing")
        shard = shard_of(clock)
        assert shard.elapsed == 0.0
        assert shard.counts == {}
        shard.charge("thing")
        assert shard.elapsed == 2.0
        assert clock.elapsed == 2.0  # parent untouched by the shard

    def test_fork_costs_are_independent_copies(self):
        clock = SimClock()
        shard = shard_of(clock)
        shard.costs["pos_tag"] = 99.0
        assert clock.costs["pos_tag"] == DEFAULT_COSTS["pos_tag"]

    def test_merge_adds_elapsed_and_counts(self):
        clock = SimClock()
        clock.charge("pos_tag")
        shard = shard_of(clock)
        shard.charge("pos_tag")
        shard.charge("dep_parse", times=2)
        clock.merge(shard)
        assert clock.elapsed == pytest.approx(
            2 * DEFAULT_COSTS["pos_tag"] + 2 * DEFAULT_COSTS["dep_parse"]
        )
        assert clock.counts["pos_tag"] == 2
        assert clock.counts["dep_parse"] == 2
