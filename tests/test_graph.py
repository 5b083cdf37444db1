"""Port-pair census, frequency filtering, static graph construction, and the
flow file readers."""

import io
import random
import tempfile
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from keyterrain import cli as cli_module
from keyterrain import flows as flows_module
from keyterrain import graph as graph_module
from keyterrain.flows import (
    CANONICAL_COLUMNS,
    FlowParseError,
    FlowRecord,
    ParseStats,
    PortPair,
    dedupe_flows,
    parse_flow_rows,
    sort_flows,
    write_flows,
)
from keyterrain.graph import (
    GraphBuildError,
    PortPairCensus,
    StaticGraph,
    build_static_graph,
    count_port_pairs,
    filter_port_pairs,
    flow_blocks,
    prepared_rows,
    read_learning_graph,
    write_edge_list,
)
from keyterrain.labels import AddressSet
from keyterrain.pagerank import DampingTable
from keyterrain.streaming import StreamConfig, StreamState, run_stream

from instances import (
    count_port_pairs_by_records,
    edge_triples,
    flow,
    graph_of,
    learning_graph_by_rows,
    port_pairs_of,
    prepared_by_rows,
    random_multigraph,
    static_graph_by_triples,
    vertex_of,
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
        a, b = vertex_of(graph, "10.0.0.1"), vertex_of(graph, "10.0.0.2")
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
        graph = build_static_graph(records, port_pairs_of(records))
        assert graph.edge_count == 10
        assert int(graph.out_degree.sum()) == 10

    def test_unretained_records_dropped(self):
        records = [
            flow("10.0.0.1", "10.0.0.2", 5, 6, 0),
            flow("10.0.0.3", "10.0.0.4", 7, 8, 1),
        ]
        graph = build_static_graph(records, {PortPair(5, 6)})
        assert graph.n == 2
        assert "10.0.0.3" not in graph.vertices

    def test_parallel_edges_kept(self):
        edges = [
            ("10.0.0.1", "10.0.0.2", (5, 6)),
            ("10.0.0.1", "10.0.0.2", (7, 8)),
            ("10.0.0.1", "10.0.0.2", (5, 6)),
        ]
        graph = graph_of(edges)
        assert graph.edge_count == 3
        assert graph.out_degree[vertex_of(graph, "10.0.0.1")] == 3

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
    assert graph.pairs == expected["pairs"]
    assert all(type(pair) is PortPair for pair in graph.pairs)
    for name in ("edge_src", "edge_dst", "edge_pair_id", "out_degree"):
        column = getattr(graph, name)
        assert column.dtype == np.int64
        assert column.tolist() == expected[name], name
    buf = io.StringIO()
    write_edge_list(graph, buf)
    assert buf.getvalue() == expected["edge_list"]


CANONICAL_HEADER = ",".join(CANONICAL_COLUMNS) + "\n"

# Starts at the int64 limits, the widest the parser lets through
INT64_MAX = (1 << 63) - 1
BIG_STARTS = (-(1 << 63), INT64_MAX)


@st.composite
def flow_files(draw):
    """Plain flow rows with self-flows, IPv6 text, starts at the int64 limits,
    and re-exports: copies of an earlier row's dedupe key, placed later, with
    a later end_ts (capped at the int64 limit)."""
    ip = st.sampled_from(ORACLE_IPS + ("fe80::1",))
    start = st.one_of(st.integers(0, 3), st.sampled_from(BIG_STARTS))
    drawn = draw(st.lists(
        st.tuples(ip, ip, st.sampled_from(ORACLE_PORTS), st.sampled_from(ORACLE_PORTS),
                  start, st.integers(0, 2)),
        max_size=40,
    ))
    rows = [(s, d, sp, dp, t, min(t + extra, INT64_MAX)) for s, d, sp, dp, t, extra in drawn]
    for _ in range(draw(st.integers(0, 8)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        *key, end = rows[at]
        end = min(end + draw(st.integers(1, 5)), INT64_MAX)
        rows.insert(draw(st.integers(at + 1, len(rows))), (*key, end))
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


# one key with starts at 0 and at both int64 limits: three flows, and one
# re-export of the lowest
AT_INT64_LIMITS = [
    ("10.0.0.1", "10.0.0.2", 80, 443, 0, 0),
    ("10.0.0.1", "10.0.0.2", 80, 443, INT64_MAX, INT64_MAX),
    ("10.0.0.1", "10.0.0.2", 80, 443, -(1 << 63), 0),
    ("10.0.0.1", "10.0.0.2", 80, 443, -(1 << 63), 5),
]


def assert_same_graph(graph, expected):
    assert graph.vertices == expected.vertices
    assert graph.pairs == expected.pairs
    assert all(type(pair) is PortPair for pair in graph.pairs)
    for name in ("edge_src", "edge_dst", "edge_pair_id", "out_degree"):
        column = getattr(graph, name)
        assert column.dtype == np.int64
        assert column.tolist() == getattr(expected, name).tolist(), name
    assert graph.max_degree == expected.max_degree


# a quoted header keeps a file off numpy's reader, so its rows come through
# the row parser and the row blocks
QUOTED_HEADER = ",".join(f'"{name}"' for name in CANONICAL_COLUMNS) + "\n"


def flow_file(rows, header=CANONICAL_HEADER):
    """``rows`` as the text of a flow file under ``header``, open for reading."""
    text = io.StringIO(newline="")
    write_flows(rows, text)
    return io.StringIO(header + text.getvalue().partition("\n")[2], newline="")


@settings(max_examples=300, deadline=None, database=None)
@given(rows=flow_files(), data=st.data())
@example(rows=ON_THRESHOLD, data=None)
@example(rows=AT_INT64_LIMITS, data=None)
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
        expected = learning_graph_by_rows(rows, split, fraction)
    except GraphBuildError as exc:
        expected = str(exc)
    # both block sources: numpy's reader under the canonical header, the row
    # blocks under the quoted one
    for header in (CANONICAL_HEADER, QUOTED_HEADER):
        with mock.patch.object(graph_module, "parse_flow_rows", wraps=parse_flow_rows) as parser:
            try:
                read = read_learning_graph(flow_file(rows, header), split, fraction)
            except GraphBuildError as exc:
                read = str(exc)
        assert parser.called == (header is QUOTED_HEADER)
        if isinstance(expected, str):
            assert read == expected
            continue
        graph, info = read
        assert info == expected[1]
        assert_same_graph(graph, expected[0])
    if isinstance(expected, str):
        return

    # build_static_graph takes the same column path from deduplicated records
    kept = list(dedupe_flows(rows[: info["flows_learning"]]))
    built = build_static_graph(kept, filter_port_pairs(count_port_pairs(kept), fraction))
    assert built.vertices == graph.vertices
    assert built.edge_src.tolist() == graph.edge_src.tolist()
    assert built.edge_dst.tolist() == graph.edge_dst.tolist()
    assert built.edge_pair_id.tolist() == graph.edge_pair_id.tolist()


def test_build_names_vertices_by_canonical_ip():
    records = [flow("2001:DB8::1", "10.0.0.1", 5, 6), flow("10.0.0.1", "2001:db8::1", 5, 6, 1)]
    graph = build_static_graph(records, {PortPair(5, 6)})
    assert graph.vertices == ["2001:db8::1", "10.0.0.1"]
    assert edge_triples(graph) == [(0, 1, PortPair(5, 6)), (1, 0, PortPair(5, 6))]
    with pytest.raises(ValueError, match="^bad IP address 'x'$"):
        build_static_graph([flow("x", "10.0.0.1", 5, 6)], {PortPair(5, 6)})


@pytest.mark.parametrize("src_port, dst_port", [(0, 65616), (-1, 80)])
def test_a_port_outside_16_bits_is_rejected_not_aliased(src_port, dst_port):
    # (0, 65616) would pack to the key of (1, 80), and -1 would set the sign bit
    row = ("10.0.0.1", "10.0.0.2", src_port, dst_port, 1, 1)
    for retained in ({PortPair(1, 80)}, {PortPair(src_port, dst_port)}):
        with pytest.raises(ValueError, match="^port out of range$"):
            build_static_graph([row], retained)


@pytest.mark.parametrize("key", [-1, 1 << 32, 1 << 40])
def test_a_pair_key_outside_32_bits_is_rejected_not_decoded(key):
    # -1 would decode to PortPair(-1, 65535) and 1 << 40 to PortPair(16777216, 0)
    with pytest.raises(ValueError, match="^port pair key out of range$"):
        StaticGraph(["a", "b"], [0, 1], [1, 0], [key, 1])
    assert StaticGraph(["a"], [0], [0], [(1 << 32) - 1]).pairs == [PortPair(65535, 65535)]


# a key with a start of 0 and starts beyond int64, as flow file text
PAST_INT64 = "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n" + "".join(
    f"{start},{end},10.0.0.1,10.0.0.2,80,443\n"
    for start, end in [(0, 0), (1 << 63, 1 << 63), ("1e30", "1e30"), (1 << 63, 1 << 64)]
)


def test_starts_past_int64_never_reach_the_graph():
    message = "line 3: timestamp '9223372036854775808' out of int64 range"
    with pytest.raises(FlowParseError, match=message):
        read_learning_graph(io.StringIO(PAST_INT64), 1.0, 0.25)
    # skipped, as prepare --on-error skip skips them, the rows never reach the file
    stats = ParseStats()
    rows = parse_flow_rows(io.StringIO(PAST_INT64), on_error="skip", stats=stats)
    graph, info = read_learning_graph(flow_file(rows), 1.0, 0.25)
    assert info["flows_total"] == 1 and graph.edge_count == 1
    assert [line for line, _ in stats.errors] == [3, 4, 5]


def test_on_threshold_example_drops_the_pair_on_the_threshold():
    graph, info = read_learning_graph(flow_file(ON_THRESHOLD), 1.0, 0.25)
    assert info["flows_after_dedupe"] == 4
    assert graph.pairs == [PortPair(443, 80)]
    assert graph.vertices == ["10.0.0.2", "10.0.0.1"]


@pytest.mark.parametrize("split, fraction", [(0.1, 0.0), (1.0, 1.0)])
def test_empty_prefix_or_no_retained_pair_is_an_error(split, fraction):
    with pytest.raises(GraphBuildError, match="learning graph would be empty"):
        read_learning_graph(flow_file(ON_THRESHOLD), split, fraction)


FIFTY_ROWS = [flow(f"10.0.0.{i % 7}", f"10.0.1.{i % 5}", 80, 443, i) for i in range(50)]


@pytest.mark.parametrize(
    "split, fraction, message",
    [pytest.param(bad, 0.01, f"--learn-split must be in (0, 1], got {bad}", id=f"split {bad}")
     for bad in (-0.5, 1.5, float("nan"), float("inf"))]
    + [pytest.param(1.0, bad, f"fraction must be in [0, 1], got {bad}", id=f"fraction {bad}")
       for bad in (-1.0, 1.5, float("nan"))],
)
def test_bad_split_or_fraction_is_rejected_before_a_row_is_read(split, fraction, message):
    # each value once failed its own way, or only after the whole file was read
    fh = flow_file(FIFTY_ROWS)
    with pytest.raises(ValueError) as info:
        read_learning_graph(fh, split, fraction)
    assert str(info.value) == message
    assert fh.tell() == 0


# Field texts Python's int() and numpy's int64 reader could read differently,
# or that the row parser rejects: padding, signs, digit separators, float
# forms, whitespace int() strips, non-ASCII digits, a bare CR, a NUL, 2^63
# and out-of-range values.
ODD_INT_TEXTS = (
    " 12", "12 ", "+5", "-0", "007", "1_000", "1.6e12", "1.5", "\x0b12", "\x0c12", "\x1c12",
    "12\x1f", "\xa012", "\u0661\u0662", "1\r2", "12\x00", str(1 << 63), str(-(1 << 63) - 1),
    "-1", "65536", "", "0x10",
)
# IP texts that canonicalise to an IP drawn elsewhere in plain form, and bad ones
ODD_IP_TEXTS = (
    " 10.0.0.1", "10.0.0.2\t", "2001:DB8::1", "2001:db8:0::1", "10.0.0.01", "10.0.0.1\x00",
    "\u00a010.0.0.3", "x", "",
)
# Lines that are no flow row, or a row in a form only the csv tokenizer reads
ODD_LINES = ("", " ", "\t", "\x0c", '1,2,"10.0.0.1",10.0.0.2,80,443', "1,2,10.0.0.1,10.0.0.2,80")
INT_FIELDS = ("start_ts", "end_ts", "src_port", "dst_port")
# Lines with a character str.splitlines() ends a line at and csv does not: a
# reader that split a block that way would read the first as two valid rows
SPLITLINES_ONLY = (
    "1,2,10.0.0.1,10.0.0.2,80,443\x0b5,6,10.0.0.3,10.0.0.4,1,2",
    "9,9,10.0.0.3\x0c,10.0.0.4,1,2",
    "9,9,10.0.0.3,10.0.0.4,\x1c1,2",
)


@st.composite
def flow_file_texts(draw):
    """The text of a flow file: plain canonical CSV, as prepare writes it,
    with now and then a header in another form (reordered, padded, quoted or
    with an extra column), an odd field, an odd line, CRLF line ends or no
    final newline."""
    names = list(CANONICAL_COLUMNS)
    if draw(st.booleans()):
        names = draw(st.permutations(names))
    header_form = draw(st.sampled_from(("plain",) * 4 + ("padded", "quoted", "extra")))
    header = {
        "plain": ",".join(names),
        "padded": " , ".join(names),
        "quoted": ",".join(f'"{name}"' for name in names),
        "extra": ",".join(names) + ",bytes",
    }[header_form]
    odd = st.integers(0, 19).map(lambda n: n == 0)
    lines = [header]
    for src_ip, dst_ip, src_port, dst_port, start, end in draw(flow_files()):
        fields = {"start_ts": start, "end_ts": end, "src_ip": src_ip, "dst_ip": dst_ip,
                  "src_port": src_port, "dst_port": dst_port}
        if draw(odd):
            fields[draw(st.sampled_from(INT_FIELDS))] = draw(st.sampled_from(ODD_INT_TEXTS))
        if draw(odd):
            ip_field = draw(st.sampled_from(("src_ip", "dst_ip")))
            fields[ip_field] = draw(st.sampled_from(ODD_IP_TEXTS))
        texts = [str(fields[name]) for name in names]
        lines.append(",".join(texts + ["7"] * (header_form == "extra")))
        if draw(odd):
            lines.append(draw(st.sampled_from(ODD_LINES)))
    end = draw(st.sampled_from(("\n",) * 4 + ("\r\n",)))
    return end.join(lines) + (end if draw(st.integers(0, 4)) else "")


def assert_file_reads_as_rows(text, split=1.0, fraction=0.0, block=1 << 16):
    """The file path gives the graph and info of the row path over the
    parsed rows, or raises the same error."""

    def read():
        with mock.patch.object(graph_module, "_BLOCK", block):
            return read_learning_graph(io.StringIO(text, newline=""), split, fraction)

    try:
        rows = list(parse_flow_rows(io.StringIO(text, newline="")))
        expected, expected_info = learning_graph_by_rows(rows, split, fraction)
    except (FlowParseError, GraphBuildError) as exc:
        with pytest.raises(ValueError) as excinfo:
            read()
        assert type(excinfo.value) is type(exc)
        assert str(excinfo.value) == str(exc)
        return
    graph, info = read()
    assert info == expected_info
    assert_same_graph(graph, expected)


@settings(max_examples=400, deadline=None, database=None)
@given(
    text=flow_file_texts(),
    block=st.sampled_from((1, 7, 64, 1 << 16)),
    split=st.sampled_from((0.5, 1.0)),
    fraction=st.sampled_from((0.0, 0.1, 0.3)),
)
@example(text=CANONICAL_HEADER + "1,2,10.0.0.1,10.0.0.2,80,443\n\n", block=1 << 16, split=1.0,
         fraction=0.0)
@example(text=CANONICAL_HEADER + SPLITLINES_ONLY[0] + "\n", block=1 << 16, split=1.0,
         fraction=0.0)
@example(text=CANONICAL_HEADER + SPLITLINES_ONLY[1] + "\n", block=1 << 16, split=1.0,
         fraction=0.0)
@example(text=CANONICAL_HEADER + SPLITLINES_ONLY[2] + "\n", block=1 << 16, split=1.0,
         fraction=0.0)
@example(text=CANONICAL_HEADER, block=1 << 16, split=1.0, fraction=0.0)
@example(text="", block=1 << 16, split=1.0, fraction=0.0)
def test_flow_file_reader_matches_row_parser(text, block, split, fraction):
    assert_file_reads_as_rows(text, split, fraction, block)


def block_rows(fh):
    """The rows of ``flow_blocks(fh, _IpTable())``, rebuilt from its blocks."""
    for src_ips, dst_ips, _, rows in flow_blocks(fh, flows_module._IpTable()):
        ports_and_times = (rows[name].tolist() for name in FlowRecord._fields[2:])
        yield from zip(src_ips, dst_ips, *ports_and_times)


def assert_stream_reads_as_rows(text, block=1 << 16):
    """``flow_blocks`` holds the rows of the row parser, as the same str and
    int values, then raises the same error, or none. Before an error, the
    blocks may hold only a prefix of the rows the parser gave."""

    def read(reader):
        rows = []
        try:
            for row in reader(io.StringIO(text, newline="")):
                rows.append(row)
        except ValueError as exc:
            return rows, type(exc), str(exc)
        return rows, None, None

    expected = read(parse_flow_rows)
    with mock.patch.object(graph_module, "_BLOCK", block):
        got = read(block_rows)
    assert got[1:] == expected[1:]
    if got[1] is None:
        assert got[0] == expected[0]
    else:
        assert got[0] == expected[0][: len(got[0])]
    assert [list(map(type, row)) for row in got[0]] == [
        list(map(type, row)) for row in expected[0][: len(got[0])]
    ]


# about 220 KB of plain rows: a line after them lies past three 64 KB blocks
PLAIN_BLOCKS = CANONICAL_HEADER + "".join(
    f"{i},{i + 1},10.0.{i % 7}.1,10.0.{i % 5}.2,{1000 + i % 3},443\n" for i in range(6000)
)


def after_plain_blocks(line):
    return PLAIN_BLOCKS + line + "\n" + "1,2,10.0.0.1,2001:db8::1,80,443\n"


@settings(max_examples=400, deadline=None, database=None)
@given(text=flow_file_texts(), block=st.sampled_from((1, 7, 64, 1 << 16)))
@example(text=after_plain_blocks("9,9,10.0.0.3,nope,1,2"), block=1 << 16)
@example(text=after_plain_blocks("9,9,010.0.0.3 ,10.0.0.4,1,2"), block=1 << 16)
@example(text=after_plain_blocks('9,9,"10.0.0.3",10.0.0.4,1,2'), block=1 << 16)
@example(text=after_plain_blocks("9,9,10.0.0.3,10.0.0.4,1\r,2"), block=1 << 16)
@example(text=after_plain_blocks("9,9,10.0.0.3,10.0.0.4,1,65536"), block=1 << 16)
@example(text=after_plain_blocks("9,8,10.0.0.3,10.0.0.4,1,2"), block=1 << 16)
@example(text=after_plain_blocks(f"{1 << 63},{1 << 63},10.0.0.3,10.0.0.4,1,2"), block=1 << 16)
@example(text=after_plain_blocks(SPLITLINES_ONLY[0]), block=1 << 16)
@example(text=after_plain_blocks(SPLITLINES_ONLY[1]), block=1 << 16)
@example(text=after_plain_blocks(SPLITLINES_ONLY[2]), block=1 << 16)
@example(text=CANONICAL_HEADER, block=1 << 16)
@example(text="", block=1 << 16)
def test_stream_reader_matches_row_parser(text, block):
    assert_stream_reads_as_rows(text, block)


# plain rows with long runs of equal start_ts and of equal end_ts, and 660
# dedupe keys whose later copies may end before the first: what a stable sort
# keeps in order, and which copy an end sort keeps
TIED_ROWS = CANONICAL_HEADER + "".join(
    f"{i % 5},{i % 5 + 7 - i % 7},10.0.{i % 3}.1,10.0.{i % 11}.2,{1000 + i % 4},443\n"
    for i in range(3000)
)


def prepare_file(text, args, block=1 << 16):
    """What ``prepare`` over a flow file of ``text`` gives: its exit code,
    the count lines it prints, its standard error and the bytes it writes, or
    None when it leaves no file."""
    with tempfile.TemporaryDirectory() as tmp:
        flows_path, out = Path(tmp, "flows.csv"), Path(tmp, "out.csv")
        with open(flows_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(graph_module, "_BLOCK", block), \
                redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_module.main(["prepare", "--flows", str(flows_path), "--out", str(out),
                                    *args])
        # the config block names the temporary paths
        counts = [line for line in stdout.getvalue().splitlines()
                  if not line.startswith(("[keyterrain prepare]", "  "))]
        return code, counts, stderr.getvalue(), out.read_bytes() if out.exists() else None


def quoted_ip_then_bad_row(at):
    """``PLAIN_BLOCKS`` with a quoted IP as its line ``at``, which the block
    reader rejects and the row parser reads, and 500 lines later a row that
    starts after it ends, which the row parser rejects. Line 3002 lies past
    the first 64 KB block, line 2 inside it."""
    lines = PLAIN_BLOCKS.splitlines(keepends=True)
    return "".join([*lines[: at - 1], '9,9,"10.0.0.3",10.0.0.4,1,2\n', *lines[at - 1 : at + 499],
                    "9,8,10.0.0.3,10.0.0.4,1,2\n", *lines[at + 499 :]])


# --columns values: none, one that renames nothing, one that swaps the IP
# columns of a canonical header, one that reads one column as two fields, one
# with a key that is no field, and one that names a column no header has
COLUMN_MAPPINGS = (
    None, {"src_ip": "src_ip"}, {"src_ip": "dst_ip", "dst_ip": "src_ip"},
    {"start_ts": "end_ts"}, {"src_ip": "src_ip", "proto": "proto"}, {"dst_port": "dp"},
)
# names an exporter may give the six fields; none is a canonical name or holds one
RENAMED = dict(zip(CANONICAL_COLUMNS, ("first_ts", "last_ts", "sa", "da", "sp", "dp")))

# PLAIN_BLOCKS with start_ts renamed and a seventh column
SEVEN_COLUMNS = "".join(
    f"{line},7\n" for line in PLAIN_BLOCKS.replace("start_ts", "first_ts", 1).splitlines()
)


@st.composite
def flow_files_and_columns(draw):
    """A text of ``flow_file_texts`` and a parsed ``--columns`` for it: one
    of COLUMN_MAPPINGS, or, with a "renamed" header that calls some fields
    by their RENAMED names, the mapping that names them back."""
    text = draw(flow_file_texts())
    if draw(st.booleans()):
        return text, draw(st.sampled_from(COLUMN_MAPPINGS))
    fields = draw(st.lists(st.sampled_from(CANONICAL_COLUMNS), min_size=1, unique=True))
    header, newline, rows = text.partition("\n")
    for field in fields:
        header = header.replace(field, RENAMED[field])
    return header + newline + rows, {field: RENAMED[field] for field in fields}


@settings(max_examples=300, deadline=None, database=None)
@given(
    file=flow_files_and_columns(),
    block=st.sampled_from((1, 7, 64, 1 << 16)),
    sort=st.sampled_from(("start", "end", "none")),
    on_error=st.sampled_from(("abort", "skip")),
)
@example(file=(PLAIN_BLOCKS + PLAIN_BLOCKS[len(CANONICAL_HEADER):], None), block=1 << 16,
         sort="end", on_error="abort")
@example(file=(TIED_ROWS, None), block=1 << 16, sort="start", on_error="abort")
@example(file=(TIED_ROWS, None), block=64, sort="end", on_error="abort")
@example(file=(after_plain_blocks("9,9,10.0.0.3,nope,1,2"), None), block=1 << 16, sort="start",
         on_error="skip")
@example(file=(quoted_ip_then_bad_row(3002), None), block=1 << 16, sort="start", on_error="skip")
@example(file=(quoted_ip_then_bad_row(3002), None), block=1 << 16, sort="end", on_error="skip")
@example(file=(quoted_ip_then_bad_row(3002), None), block=1 << 16, sort="none", on_error="skip")
@example(file=(quoted_ip_then_bad_row(2), None), block=1 << 16, sort="start", on_error="skip")
@example(file=(quoted_ip_then_bad_row(2), None), block=1 << 16, sort="end", on_error="skip")
@example(file=(quoted_ip_then_bad_row(2), None), block=1 << 16, sort="none", on_error="skip")
@example(file=(PLAIN_BLOCKS, COLUMN_MAPPINGS[2]), block=1 << 16, sort="start",
         on_error="abort")
@example(file=(PLAIN_BLOCKS.replace("start_ts", "first_ts", 1), {"start_ts": "first_ts"}),
         block=1 << 16, sort="end", on_error="abort")
@example(file=(SEVEN_COLUMNS, {"start_ts": "first_ts"}), block=1 << 16, sort="start",
         on_error="abort")
@example(file=(PLAIN_BLOCKS, COLUMN_MAPPINGS[3]), block=1 << 16, sort="start",
         on_error="abort")
@example(file=(PLAIN_BLOCKS, COLUMN_MAPPINGS[4]), block=1 << 16, sort="start",
         on_error="abort")
@example(file=(PLAIN_BLOCKS, COLUMN_MAPPINGS[5]), block=1 << 16, sort="start",
         on_error="abort")
@example(file=(CANONICAL_HEADER, None), block=1 << 16, sort="start", on_error="abort")
@example(file=("", None), block=1 << 16, sort="none", on_error="abort")
def test_prepare_dedupe_by_blocks_writes_what_the_row_path_writes(file, block, sort, on_error):
    text, mapping = file
    args = ["--sort", sort, "--dedupe", "--on-error", on_error]
    if mapping is not None:
        args += ["--columns", ",".join(f"{field}={name}" for field, name in mapping.items())]
    expected = prepared_by_rows(text, sort, on_error, mapping)
    assert len(expected[1]) == 5 or expected[0] == 1
    assert prepare_file(text, args, block) == expected


@pytest.mark.parametrize("sort", ["middle", "", "START", None])
def test_prepared_rows_reject_what_sort_flows_rejects(sort):
    fh = io.StringIO(TIED_ROWS)
    with pytest.raises(ValueError) as expected:
        list(sort_flows([], sort))
    with pytest.raises(ValueError) as excinfo:
        prepared_rows(fh, sort, "abort", None, None)
    assert str(excinfo.value) == str(expected.value)
    assert fh.tell() == 0


def stream_one_row_at_a_time(rows, table, config, labels, state):
    """The samples of ``run_stream`` over ``rows``, each row applied by a
    call of its own on ``state``."""
    samples = []
    for row in rows:
        samples += run_stream([row], table, config, labels, state)[:-1]
    return samples + run_stream([], table, config, labels, state)


def assert_same_state(state, expected):
    assert state.rank_mass.tobytes() == expected.rank_mass.tobytes()
    assert array("d", state.active_mass).tobytes() == array("d", expected.active_mass).tobytes()
    assert state.vertices == expected.vertices
    assert state.flows_processed == expected.flows_processed


STREAM_LABELS = AddressSet(["10.0.0.2", "2001:db8::1"])


@settings(max_examples=300, deadline=None, database=None)
@given(
    text=flow_file_texts(),
    block=st.sampled_from((1, 7, 64, 1 << 16)),
    interval=st.sampled_from((0, 1, 3, 7, 1000)),
    factors=st.dictionaries(st.sampled_from(ORACLE_PAIRS), st.sampled_from((0.0, 0.3, 1.0))),
    default=st.sampled_from((0.0, 0.85, 1.0)),
)
@example(text=PLAIN_BLOCKS, block=1 << 16, interval=1000, factors={PortPair(1001, 443): 0.5},
         default=0.85)
@example(text=after_plain_blocks("9,9,10.0.0.3,nope,1,2"), block=1 << 16, interval=7,
         factors={}, default=0.85)
def test_stream_over_a_file_applies_the_parsers_rows(text, block, interval, factors, default):
    # the file feed resolves a block's factors at once and cuts its blocks at
    # every sample; one call per parsed row is the plain rule
    table = DampingTable(factors, default)
    config = StreamConfig(sample_interval=interval, top_k=3)
    rows, error = [], None
    try:
        rows.extend(parse_flow_rows(io.StringIO(text, newline="")))
    except ValueError as exc:
        error = exc
    state = StreamState()
    with mock.patch.object(graph_module, "_BLOCK", block):
        if error is None:
            samples = run_stream(io.StringIO(text, newline=""), table, config, STREAM_LABELS, state)
        else:
            with pytest.raises(type(error)) as excinfo:
                run_stream(io.StringIO(text, newline=""), table, config, STREAM_LABELS, state)
            assert str(excinfo.value) == str(error)
    # after an error, the file has applied some prefix of the rows before it
    assert state.flows_processed <= len(rows)
    expected = StreamState()
    expected_samples = stream_one_row_at_a_time(
        rows[: state.flows_processed], table, config, STREAM_LABELS, expected
    )
    assert_same_state(state, expected)
    if error is None:
        assert samples == expected_samples


def test_plain_blocks_stop_at_a_bad_ip_before_its_block(monkeypatch):
    monkeypatch.setattr(graph_module, "_BLOCK", 1)  # one line a block
    rows = ["1,2,10.0.0.1,10.0.0.2,80,443", "3,4,10.0.0.2,10.0.0.1,443,80",
            "5,6,10.0.0.3,nope,1,2", "7,8,10.0.0.1,10.0.0.3,1,2"]
    text = io.StringIO(CANONICAL_HEADER + "\n".join(rows) + "\n")
    blocks = graph_module._plain_blocks(text, flows_module._IpTable(), None)
    assert [(src, dst, len(block)) for src, dst, _, block in islice(blocks, 2)] == [
        (["10.0.0.1"], ["10.0.0.2"], 1), (["10.0.0.2"], ["10.0.0.1"], 1)
    ]
    with pytest.raises(ValueError, match="^bad IP address 'nope'$"):
        next(blocks)


def test_row_fallback_canonicalises_each_ip_text_once(monkeypatch):
    # the quoted header sends the file to the row parser, whose IP text is
    # already canonical; patched wherever the package binds the name
    spy = mock.Mock(wraps=flows_module._canonical_ip)
    for module in (flows_module, graph_module):
        if hasattr(module, "_canonical_ip"):
            monkeypatch.setattr(module, "_canonical_ip", spy)
    rows = [("10.0.0.1", "2001:DB8::1", 80, 443, 0, 0), ("2001:db8::1", "10.0.0.2", 443, 80, 1, 1),
            ("10.0.0.1", "10.0.0.2", 80, 443, 2, 2)]
    graph, _ = read_learning_graph(flow_file(rows, QUOTED_HEADER), 1.0, 0.0)
    assert graph.vertices == ["10.0.0.1", "2001:db8::1", "10.0.0.2"]
    assert sorted(call.args[0] for call in spy.call_args_list) == [
        "10.0.0.1", "10.0.0.2", "2001:DB8::1", "2001:db8::1"
    ]


THREE_ROWS = [
    {"start_ts": 1, "end_ts": 2, "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2", "src_port": 80,
     "dst_port": 443},
    {"start_ts": 3, "end_ts": 4, "src_ip": "10.0.0.2", "dst_ip": "10.0.0.3", "src_port": 22,
     "dst_port": 22},
    {"start_ts": 5, "end_ts": 12, "src_ip": "10.0.0.3", "dst_ip": "10.0.0.1", "src_port": 80,
     "dst_port": 443},
]


@pytest.mark.parametrize(
    "field, odd",
    [(name, text) for name in INT_FIELDS for text in ODD_INT_TEXTS]
    + [(name, text) for name in ("src_ip", "dst_ip") for text in ODD_IP_TEXTS],
)
def test_odd_field_reads_as_the_row_parser_reads_it(field, odd):
    rows = [dict(row) for row in THREE_ROWS]
    rows[1][field] = odd
    text = CANONICAL_HEADER + "".join(
        ",".join(str(row[name]) for name in CANONICAL_COLUMNS) + "\n" for row in rows
    )
    assert_file_reads_as_rows(text)
    assert_stream_reads_as_rows(text, block=1)


@pytest.mark.parametrize("odd", ODD_LINES)
@pytest.mark.parametrize("block", [1, 1 << 16])
def test_odd_line_reads_as_the_row_parser_reads_it(odd, block):
    lines = [",".join(str(row[name]) for name in CANONICAL_COLUMNS) for row in THREE_ROWS]
    lines.insert(1, odd)
    text = CANONICAL_HEADER + "\n".join(lines) + "\n"
    assert_file_reads_as_rows(text, block=block)
    assert_stream_reads_as_rows(text, block=block)


def test_plain_file_never_reaches_the_row_parser(monkeypatch):
    # a prepared file of several 64 KB blocks, IPv6 among its IPs
    rng = random.Random(3)
    ips = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(400)] + ["2001:db8::7", "fe80::1"]
    ports = (22, 53, 80, 443, 3389, 50000)
    rows = []
    for start in range(6000):
        rows.append((rng.choice(ips), rng.choice(ips), rng.choice(ports), rng.choice(ports),
                     start // 2, start // 2 + rng.randrange(5)))
    rows += rows[:50]  # copies to dedupe
    text = io.StringIO(newline="")
    write_flows(rows, text)
    assert len(text.getvalue()) > 3 * graph_module._BLOCK

    def refuse(*args, **kwargs):
        raise AssertionError("a plain flow file went through the row parser")

    monkeypatch.setattr(graph_module, "parse_flow_rows", refuse)
    text.seek(0)
    graph, info = read_learning_graph(text, 0.8, 0.01)
    expected, expected_info = learning_graph_by_rows(rows, 0.8, 0.01)
    assert info == expected_info
    assert_same_graph(graph, expected)
