"""Port-pair census, frequency filtering, and static graph construction."""

import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyterrain.flows import PortPair, dedupe_flows
from keyterrain.graph import (
    GraphBuildError,
    PortPairCensus,
    build_static_graph,
    count_port_pairs,
    filter_port_pairs,
    learning_graph,
    write_edge_list,
)

from instances import (
    count_port_pairs_by_records,
    edge_triples,
    flow,
    graph_of,
    learning_graph_by_rows,
    random_multigraph,
    static_graph_by_triples,
)


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
        assert edge_triples(graph) == [(a, b, PortPair(5, 6))]

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
        assert graph.max_degree == 2
        assert edge_triples(graph) == [(0, 0, PortPair(5, 6))]


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_degree_and_adjacency_consistency(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng, max_n=20, max_edges=80)
        assert int(graph.out_degree.sum()) == graph.edge_count
        from_edges = Counter(s for s, _, _ in edge_triples(graph))
        assert all(graph.out_degree[v] == from_edges[v] for v in range(graph.n))
        # a self-loop puts both of its ends on one vertex
        ends = Counter(v for s, d, _ in edge_triples(graph) for v in (s, d))
        assert graph.max_degree == max(ends.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_no_isolated_vertices(self, seed):
        rng = random.Random(100 + seed)
        graph = random_multigraph(rng, max_n=20, max_edges=30)
        incident = set()
        for s, d, _ in edge_triples(graph):
            incident.add(s)
            incident.add(d)
        assert incident == set(range(graph.n))

    def test_every_edge_pair_is_retained(self):
        rng = random.Random(55)
        graph = random_multigraph(rng)
        for _, _, pair in edge_triples(graph):
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


# Few IPs and ports, so self-loops, parallel edges, reversed pairs such as
# (80, 443) / (443, 80) and IPs on both ends of edges are all common.
ORACLE_IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "2001:db8::1")
ORACLE_PORTS = (22, 80, 443)
ORACLE_PAIRS = [PortPair(a, b) for a in ORACLE_PORTS for b in ORACLE_PORTS]
oracle_records = st.lists(
    st.builds(
        flow,
        st.sampled_from(ORACLE_IPS),
        st.sampled_from(ORACLE_IPS),
        st.sampled_from(ORACLE_PORTS),
        st.sampled_from(ORACLE_PORTS),
        st.integers(0, 3),
    ),
    max_size=40,
)
MIXED_RECORDS = [
    flow("10.0.0.1", "10.0.0.1", 80, 443, 0),  # self-loop
    flow("10.0.0.2", "10.0.0.1", 443, 80, 1),  # reversed pair; 10.0.0.1 now both ends
    flow("10.0.0.1", "10.0.0.2", 80, 443, 2),
    flow("10.0.0.1", "10.0.0.2", 80, 443, 3),  # parallel edge
    flow("10.0.0.3", "10.0.0.2", 22, 22, 4),  # unretained below
]


@settings(max_examples=300, deadline=None, database=None)
@given(records=oracle_records, retained=st.sets(st.sampled_from(ORACLE_PAIRS)))
@example(records=MIXED_RECORDS, retained={PortPair(80, 443), PortPair(443, 80)})
@example(records=MIXED_RECORDS, retained=set())
def test_census_and_build_match_triple_oracle(records, retained):
    counts, total = count_port_pairs_by_records(records)
    census = count_port_pairs(records)
    assert list(census.counts.items()) == list(counts.items())
    assert all(type(pair) is PortPair for pair in census.counts)
    assert census.total_flows == total

    try:
        expected = static_graph_by_triples(records, retained)
    except GraphBuildError:
        with pytest.raises(GraphBuildError):
            build_static_graph(records, retained)
        return
    graph = build_static_graph(records, retained)
    assert graph.vertices == expected["vertices"]
    assert graph.vertex_index == expected["vertex_index"]
    assert graph.pairs == expected["pairs"]
    assert all(type(pair) is PortPair for pair in graph.pairs)
    for name in ("edge_src", "edge_dst", "edge_pair_id", "out_degree"):
        column = getattr(graph, name)
        assert column.dtype == np.int64
        assert column.tolist() == expected[name], name
    buf = io.StringIO()
    write_edge_list(graph, buf)
    assert buf.getvalue() == expected["edge_list"]


# Starts at and beyond the int64 limits, where the column dedupe ranks starts
BIG_STARTS = (-(1 << 63), (1 << 63) - 1, 1 << 63, -(10**30), 10**30)


@st.composite
def flow_files(draw):
    """Plain flow rows with self-flows, IPv6 text, huge starts, and re-exports:
    copies of an earlier row's dedupe key, placed later, with a later end_ts."""
    ip = st.sampled_from(ORACLE_IPS + ("fe80::1",))
    start = st.one_of(st.integers(0, 3), st.sampled_from(BIG_STARTS))
    drawn = draw(st.lists(
        st.tuples(ip, ip, st.sampled_from(ORACLE_PORTS), st.sampled_from(ORACLE_PORTS),
                  start, st.integers(0, 2)),
        max_size=40,
    ))
    rows = [(s, d, sp, dp, t, t + extra) for s, d, sp, dp, t, extra in drawn]
    for _ in range(draw(st.integers(0, 8)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        *key, end = rows[at]
        rows.insert(draw(st.integers(at + 1, len(rows))), (*key, end + draw(st.integers(1, 5))))
    return rows


# four kept flows, two on one pair: the fraction 0.25 puts each other pair's
# count exactly on the threshold (1 == 0.25 * 4 is not retained)
ON_THRESHOLD = [
    ("10.0.0.1", "10.0.0.2", 80, 443, 0, 0),
    ("10.0.0.2", "10.0.0.1", 443, 80, 1, 1),
    ("10.0.0.1", "10.0.0.2", 80, 443, 0, 5),  # a re-export of the first row
    ("10.0.0.2", "10.0.0.1", 443, 80, 2, 2),
    ("2001:db8::1", "2001:db8::1", 22, 22, 3, 3),
]


# one key with a start of 0 and a start beyond int64: two flows, not duplicates
PAST_INT64 = [
    ("10.0.0.1", "10.0.0.2", 80, 443, 0, 0),
    ("10.0.0.1", "10.0.0.2", 80, 443, 1 << 63, 1 << 63),
    ("10.0.0.1", "10.0.0.2", 80, 443, 10**30, 10**30),
    ("10.0.0.1", "10.0.0.2", 80, 443, 1 << 63, 1 << 64),
]


@settings(max_examples=300, deadline=None, database=None)
@given(rows=flow_files(), data=st.data())
@example(rows=ON_THRESHOLD, data=None)
@example(rows=PAST_INT64, data=None)
def test_learning_graph_matches_row_path_oracle(rows, data):
    if data is None:
        split, fraction = 1.0, 0.25
    else:
        split = data.draw(st.one_of(
            st.floats(0.0, 1.0, exclude_min=True), st.sampled_from((1e-9, 0.5, 1.0))
        ))
        # a pair count over the kept flows lands exactly on count == fraction * kept
        kept = list(dedupe_flows(rows[: int(len(rows) * split)]))
        counts = sorted(set(Counter((r[2], r[3]) for r in kept).values()))
        on_count = [c / len(kept) for c in counts]
        fraction = data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(on_count or [0.0])))
    try:
        expected, expected_info = learning_graph_by_rows(rows, split, fraction)
    except GraphBuildError as exc:
        with pytest.raises(GraphBuildError) as excinfo:
            learning_graph(iter(rows), split, fraction)
        assert str(excinfo.value) == str(exc)
        return
    graph, info = learning_graph(iter(rows), split, fraction)
    assert info == expected_info
    assert graph.vertices == expected.vertices
    assert graph.vertex_index == expected.vertex_index
    assert graph.pairs == expected.pairs
    assert all(type(pair) is PortPair for pair in graph.pairs)
    for name in ("edge_src", "edge_dst", "edge_pair_id", "out_degree"):
        column = getattr(graph, name)
        assert column.dtype == np.int64
        assert column.tolist() == getattr(expected, name).tolist(), name
    assert graph.max_degree == expected.max_degree

    # build_static_graph takes the same column path from deduplicated records
    kept = list(dedupe_flows(rows[: info["flows_learning"]]))
    built = build_static_graph(kept, filter_port_pairs(count_port_pairs(kept), fraction))
    assert built.vertices == graph.vertices
    assert built.edge_src.tolist() == graph.edge_src.tolist()
    assert built.edge_dst.tolist() == graph.edge_dst.tolist()
    assert built.edge_pair_id.tolist() == graph.edge_pair_id.tolist()


def test_on_threshold_example_drops_the_pair_on_the_threshold():
    graph, info = learning_graph(iter(ON_THRESHOLD), 1.0, 0.25)
    assert info["flows_after_dedupe"] == 4
    assert graph.pairs == [PortPair(443, 80)]
    assert graph.vertices == ["10.0.0.2", "10.0.0.1"]


@pytest.mark.parametrize("split, fraction", [(0.1, 0.0), (1.0, 1.0)])
def test_empty_prefix_or_no_retained_pair_is_an_error(split, fraction):
    with pytest.raises(GraphBuildError, match="learning graph would be empty"):
        learning_graph(iter(ON_THRESHOLD), split, fraction)


def test_learning_graph_drains_every_row():
    drawn = []

    def rows():
        for row in ON_THRESHOLD:
            drawn.append(row)
            yield row

    _, info = learning_graph(rows(), 0.5, 0.0)
    assert drawn == ON_THRESHOLD
    assert info["flows_total"] == 5 and info["flows_learning"] == 2
