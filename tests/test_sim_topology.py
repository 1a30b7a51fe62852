"""Unit tests for latency topologies."""

from __future__ import annotations

import pytest

from repro.sim.topology import (
    EC2_SITES,
    Topology,
    custom_topology,
    ec2_five_sites,
    lan_topology,
    uniform_topology,
)


class TestEc2Topology:
    def test_five_sites_in_paper_order(self):
        topology = ec2_five_sites()
        assert topology.sites == ["virginia", "ohio", "frankfurt", "ireland", "mumbai"]
        assert topology.size == 5

    def test_mumbai_rtts_match_paper(self):
        topology = ec2_five_sites()
        mumbai = topology.index_of("mumbai")
        assert topology.rtt(mumbai, topology.index_of("virginia")) == pytest.approx(186.0)
        assert topology.rtt(mumbai, topology.index_of("ohio")) == pytest.approx(301.0)
        assert topology.rtt(mumbai, topology.index_of("frankfurt")) == pytest.approx(112.0)
        assert topology.rtt(mumbai, topology.index_of("ireland")) == pytest.approx(122.0)

    def test_eu_us_rtts_below_100ms(self):
        topology = ec2_five_sites()
        eu_us = [s for s in EC2_SITES if s != "mumbai"]
        for a in eu_us:
            for b in eu_us:
                if a != b:
                    assert topology.rtt_ms[(a, b)] < 100.0

    def test_symmetry(self):
        topology = ec2_five_sites()
        for i in range(5):
            for j in range(5):
                assert topology.rtt(i, j) == topology.rtt(j, i)

    def test_one_way_is_half_rtt(self):
        topology = ec2_five_sites()
        assert topology.one_way(0, 4) == pytest.approx(topology.rtt(0, 4) / 2)

    def test_self_delay_is_local(self):
        topology = ec2_five_sites(local_delivery_ms=0.1)
        assert topology.one_way(2, 2) == pytest.approx(0.1)

    def test_quorum_latency_counts_self(self):
        topology = ec2_five_sites()
        virginia = topology.index_of("virginia")
        # Classic quorum of 3 = self + two closest (Ohio 12ms, Ireland 76ms).
        assert topology.quorum_latency(virginia, 3) == pytest.approx(76.0)
        # Fast quorum of 4 adds Frankfurt at 90ms.
        assert topology.quorum_latency(virginia, 4) == pytest.approx(90.0)
        # The whole cluster waits for the farthest site, Mumbai at 186ms.
        assert topology.quorum_latency(virginia, 5) == pytest.approx(186.0)

    def test_quorum_latency_origin_is_distance_zero(self):
        # Regression: the origin's own vote needs no network round trip, so a
        # quorum of one costs exactly 0 ms — not the self-RTT
        # (2 x local_delivery_ms) the old code charged.
        topology = ec2_five_sites(local_delivery_ms=5.0)
        for origin in range(topology.size):
            assert topology.quorum_latency(origin, 1) == 0.0

    @pytest.mark.parametrize("quorum_size", [0, -1, 6])
    def test_quorum_latency_rejects_a_size_outside_the_cluster(self, quorum_size):
        # Regression: size 0 read index -1 (the farthest RTT, 301 ms from
        # Mumbai) and size 6 raised a bare IndexError.
        with pytest.raises(ValueError, match="quorum_size"):
            ec2_five_sites().quorum_latency(4, quorum_size)

    def test_describe_mentions_all_sites(self):
        text = ec2_five_sites().describe()
        for site in EC2_SITES:
            assert site in text


class TestSyntheticTopologies:
    def test_uniform_topology_rtts(self):
        topology = uniform_topology(4, rtt_ms=30.0)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert topology.rtt(i, j) == pytest.approx(30.0)

    def test_lan_topology_is_fast(self):
        topology = lan_topology(3)
        assert topology.rtt(0, 1) <= 1.0

    def test_custom_topology_square_matrix_required(self):
        with pytest.raises(ValueError):
            custom_topology(["a", "b"], [[0, 1, 2], [1, 0, 3]])

    def test_custom_topology_reads_upper_triangle(self):
        topology = custom_topology(["a", "b", "c"],
                                   [[0, 10, 20], [10, 0, 30], [20, 30, 0]])
        assert topology.rtt(0, 2) == pytest.approx(20.0)
        assert topology.rtt(2, 1) == pytest.approx(30.0)

    def test_index_of_unknown_site_raises(self):
        with pytest.raises(ValueError):
            uniform_topology(3).index_of("nowhere")

    def test_custom_topology_asymmetric_matrix_raises(self):
        # Regression: the lower triangle used to be silently dropped, so an
        # asymmetric matrix was accepted and half the data ignored.
        with pytest.raises(ValueError, match="symmetric"):
            custom_topology(["a", "b"], [[0, 10], [99, 0]])

    def test_custom_topology_nonzero_diagonal_raises(self):
        with pytest.raises(ValueError, match="diagonal"):
            custom_topology(["a", "b"], [[5, 10], [10, 0]])


class TestTopologyConstruction:
    def test_post_init_does_not_mutate_caller_dict(self):
        # Regression: mirrored (b, a) keys and self-RTT defaults used to be
        # written into the dict the caller passed in.
        rtt = {("a", "b"): 10.0}
        topology = Topology(sites=["a", "b"], rtt_ms=rtt, local_delivery_ms=0.05)
        assert rtt == {("a", "b"): 10.0}
        assert topology.rtt_ms[("b", "a")] == 10.0
        assert topology.rtt_ms[("a", "a")] == pytest.approx(0.1)

    def test_conflicting_mirror_entries_raise(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Topology(sites=["a", "b"], rtt_ms={("a", "b"): 10.0, ("b", "a"): 20.0})

    @pytest.mark.parametrize("matrix", [
        [[0, 10, 20], [10, 0, 30], [20, 30, 0]],
        [[0, 10, 20], [10, 0, 10], [20, 10, 0]],
    ])
    def test_repeated_site_name_raises(self, matrix):
        # Regression: a repeated site keyed two nodes' RTTs on one name, so a
        # symmetric matrix raised "asymmetric rtt_ms", or the node-0/node-2
        # RTT silently overwrote the site's self-RTT (rtt(0, 0) read 20.0).
        with pytest.raises(ValueError, match="'a' appears more than once"):
            custom_topology(["a", "b", "a"], matrix)
        with pytest.raises(ValueError, match="'a' appears more than once"):
            Topology(sites=["a", "b", "a"], rtt_ms={("a", "b"): 10.0})


#: Every topology constructor, each built with a non-default self-delay.
TOPOLOGY_FACTORIES = {
    "ec2": lambda: ec2_five_sites(local_delivery_ms=0.2),
    "uniform": lambda: uniform_topology(4, rtt_ms=40.0, local_delivery_ms=0.2),
    "lan": lambda: lan_topology(3),
    "custom": lambda: custom_topology(["a", "b", "c"],
                                      [[0, 10, 20], [10, 0, 30], [20, 30, 0]],
                                      local_delivery_ms=0.2),
}


@pytest.mark.parametrize("factory", TOPOLOGY_FACTORIES.values(), ids=TOPOLOGY_FACTORIES.keys())
class TestEveryTopology:
    """Invariants every constructor's topology keeps: one replica per site,
    a symmetric RTT matrix, and a quorum latency read off the sorted row."""

    def test_site_and_node_index_name_the_same_replica(self, factory):
        topology = factory()
        assert len(set(topology.sites)) == topology.size
        for node in range(topology.size):
            assert topology.index_of(topology.site_of(node)) == node

    def test_rtt_is_symmetric_and_positive_between_distinct_nodes(self, factory):
        topology = factory()
        for a in range(topology.size):
            for b in range(topology.size):
                assert topology.rtt(a, b) == topology.rtt(b, a)
                if a != b:
                    assert topology.rtt(a, b) > 0
                    assert topology.one_way(a, b) == topology.rtt(a, b) / 2.0

    def test_self_delay_comes_from_local_delivery(self, factory):
        topology = factory()
        for node in range(topology.size):
            assert topology.one_way(node, node) == topology.local_delivery_ms
            assert topology.rtt(node, node) == pytest.approx(2 * topology.local_delivery_ms)

    def test_quorum_latency_is_the_sorted_row(self, factory):
        topology = factory()
        for origin in range(topology.size):
            row = sorted([0.0] + [topology.rtt(origin, other)
                                  for other in range(topology.size) if other != origin])
            assert [topology.quorum_latency(origin, size)
                    for size in range(1, topology.size + 1)] == row

    def test_describe_prints_one_row_per_site(self, factory):
        topology = factory()
        lines = topology.describe().splitlines()
        assert len(lines) == topology.size + 1
        assert [line.split()[0] for line in lines[1:]] == topology.sites
