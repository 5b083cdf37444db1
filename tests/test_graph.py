"""Port-pair census, frequency filtering, and static graph construction."""

import io
import random
from collections import Counter

import pytest

from keyterrain.flows import PortPair
from keyterrain.graph import (
    GraphBuildError,
    PortPairCensus,
    build_static_graph,
    count_port_pairs,
    filter_port_pairs,
    write_edge_list,
)

from instances import flow, graph_of, random_multigraph


class TestCensus:
    def test_repeated_pair(self):
        records = [flow("10.0.0.1", "10.0.0.2", 51432, 443, i) for i in range(3)]
        census = count_port_pairs(records)
        assert census.counts == {PortPair(51432, 443): 3}
        assert census.total_flows == 3

    def test_empty(self):
        census = count_port_pairs([])
        assert census.counts == {}
        assert census.total_flows == 0

    def test_matches_independent_tally(self):
        rng = random.Random(21)
        records = [
            flow("10.0.0.1", "10.0.0.2", rng.randrange(5), rng.randrange(5), i)
            for i in range(500)
        ]
        expected = Counter()
        for rec in records:
            expected[(rec.src_port, rec.dst_port)] += 1
        census = count_port_pairs(records)
        assert census.total_flows == 500
        assert {tuple(p): c for p, c in census.counts.items()} == dict(expected)


class TestFilter:
    def test_strict_inequality(self):
        census = PortPairCensus(
            {PortPair(1, 1): 400, PortPair(2, 2): 6, PortPair(3, 3): 5}, 1000
        )
        assert filter_port_pairs(census, 0.005) == {PortPair(1, 1), PortPair(2, 2)}

    def test_zero_fraction_keeps_everything(self):
        census = PortPairCensus({PortPair(1, 1): 1, PortPair(2, 2): 400}, 401)
        assert filter_port_pairs(census, 0.0) == {PortPair(1, 1), PortPair(2, 2)}

    def test_full_fraction_drops_everything(self):
        census = PortPairCensus({PortPair(1, 1): 400}, 400)
        assert filter_port_pairs(census, 1.0) == set()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            filter_port_pairs(PortPairCensus({}, 0), 1.5)


class TestBuild:
    def test_single_edge(self):
        records = [flow("10.0.0.1", "10.0.0.2", 5, 6, 0)]
        graph = build_static_graph(records, {PortPair(5, 6)})
        assert graph.n == 2
        assert graph.edge_count == 1
        a, b = graph.vertex_index["10.0.0.1"], graph.vertex_index["10.0.0.2"]
        assert graph.out_degree[a] == 1
        assert graph.out_degree[b] == 0
        assert list(graph.edges()) == [(a, b, PortPair(5, 6))]

    def test_empty_retained_set_is_an_error(self):
        records = [flow("10.0.0.1", "10.0.0.2", 5, 6, 0)]
        with pytest.raises(GraphBuildError):
            build_static_graph(records, set())

    def test_ten_random_records(self):
        rng = random.Random(8)
        records = [
            flow(f"10.0.0.{rng.randrange(4)}", f"10.0.0.{rng.randrange(4)}",
                 rng.randrange(3), rng.randrange(3), i)
            for i in range(10)
        ]
        graph = build_static_graph(records, {r.port_pair() for r in records})
        assert graph.edge_count == 10
        assert int(graph.out_degree.sum()) == 10

    def test_unretained_records_dropped(self):
        records = [
            flow("10.0.0.1", "10.0.0.2", 5, 6, 0),
            flow("10.0.0.3", "10.0.0.4", 7, 8, 1),
        ]
        graph = build_static_graph(records, {PortPair(5, 6)})
        assert graph.n == 2
        assert "10.0.0.3" not in graph.vertex_index

    def test_parallel_edges_kept(self):
        edges = [
            ("10.0.0.1", "10.0.0.2", (5, 6)),
            ("10.0.0.1", "10.0.0.2", (7, 8)),
            ("10.0.0.1", "10.0.0.2", (5, 6)),
        ]
        graph = graph_of(edges)
        assert graph.edge_count == 3
        assert graph.out_degree[graph.vertex_index["10.0.0.1"]] == 3

    def test_self_loop_counts_toward_out_degree(self):
        graph = graph_of([("10.0.0.1", "10.0.0.1", (5, 6))])
        assert graph.n == 1
        assert graph.out_degree[0] == 1
        assert list(graph.edges()) == [(0, 0, PortPair(5, 6))]


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_degree_and_adjacency_consistency(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_n=20, max_edges=80)
        assert int(graph.out_degree.sum()) == graph.edge_count
        from_edges = Counter(s for s, _, _ in graph.edges())
        assert all(graph.out_degree[v] == from_edges[v] for v in range(graph.n))

    @pytest.mark.parametrize("seed", range(5))
    def test_no_isolated_vertices(self, seed):
        rng = random.Random(100 + seed)
        graph = random_multigraph(rng, max_n=20, max_edges=30)
        incident = set()
        for s, d, _ in graph.edges():
            incident.add(s)
            incident.add(d)
        assert incident == set(range(graph.n))

    def test_every_edge_pair_is_retained(self):
        rng = random.Random(55)
        graph = random_multigraph(rng)
        for _, _, pair in graph.edges():
            assert pair in graph.pairs


def test_edge_list_dump():
    graph = graph_of(
        [("10.0.0.1", "10.0.0.2", (5, 6)), ("10.0.0.2", "10.0.0.1", (443, 50000))]
    )
    buf = io.StringIO()
    write_edge_list(graph, buf)
    lines = buf.getvalue().splitlines()
    assert "10.0.0.1,10.0.0.2,5,6" in lines
    assert "10.0.0.2,10.0.0.1,443,50000" in lines
    assert len(lines) == 2
