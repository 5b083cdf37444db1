"""Property tests of ingestion: the flow parser against the helper-per-field
oracle, the record form against the plain row form, and the invariants
``prepare`` relies on when it reorders its steps."""

import io
import ipaddress
import tempfile
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keyterrain.flows as flows_module
from keyterrain.cli import main
from keyterrain.flows import (
    CANONICAL_COLUMNS,
    FlowParseError,
    FlowRecord,
    ParseStats,
    dedupe_flows,
    parse_flow_rows,
    parse_flows,
    sort_flows,
    write_flows,
)
from keyterrain.graph import build_static_graph, count_port_pairs

from instances import edge_triples, parse_flows_by_helpers, write_flows_by_csv_writer

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None)

# "\x1c" is stripped by str.strip() but rejected by a bare int()
padding = st.sampled_from(("", " ", "  ", "\t", "\xa0", "\u2003", "\x1c"))


def padded(text):
    return st.tuples(padding, text, padding).map("".join)


def underscored(value: int) -> str:
    return format(value, "_")


timestamps = st.integers(-(10**13), 2 * 10**12)
INT64_EDGE_TEXTS = (
    str((1 << 63) - 1), str(1 << 63), str(-(1 << 63)), str(-(1 << 63) - 1), "9.3e18", "-9.3e18"
)
timestamp_text = padded(
    st.one_of(
        timestamps.map(str),
        timestamps.map(underscored),
        st.floats(-1e13, 1e13, allow_nan=False).map(repr),
        st.sampled_from(("nope", "", "1e3", "nan", "inf", "-inf", "1e400", "1__0", "0x10")),
        # at and just past the int64 limits, as int text and as float text
        st.sampled_from(INT64_EDGE_TEXTS),
    )
)
ports = st.one_of(st.integers(-5, 70_000), st.sampled_from((-1, 0, 65535, 65536)))
port_text = padded(
    st.one_of(
        ports.map(str),
        ports.map(underscored),
        st.sampled_from(("x", "", "1.5", "+80", "٣")),
    )
)
ip_text = padded(
    st.sampled_from(
        (
            "10.0.0.1",
            "10.0.0.2",
            "192.168.7.9",
            "2001:DB8::1",
            "2001:db8:0:0:0:0:0:1",
            "::ffff:10.0.0.1",
            "10.0.0.999",
            "bad",
            "",
            "fe80::1%eth0",
        )
    )
)


@st.composite
def flow_rows(draw):
    fields = [
        draw(timestamp_text),
        draw(timestamp_text),
        draw(ip_text),
        draw(ip_text),
        draw(port_text),
        draw(port_text),
    ]
    arity = draw(st.sampled_from((6, 6, 6, 6, 5, 7)))
    if arity == 5:
        del fields[draw(st.integers(0, 5))]
    elif arity == 7:
        fields.append(draw(port_text))
    return ",".join(fields)


# mostly valid rows, so the error cases land among parsed ones, with start
# after end among them
well_formed_rows = st.builds(
    lambda start, end, src, dst, sport, dport: f"{start},{end},{src},{dst},{sport},{dport}",
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    ip_text,
    ip_text,
    st.integers(0, 65535),
    st.integers(0, 65535),
)


def run_parser(parser, text, on_error):
    """Records, stats and the error (line number and message) of one parse."""
    stats = ParseStats()
    records = []
    error = None
    try:
        for record in parser(io.StringIO(text), on_error=on_error, stats=stats):
            records.append(record)
    except FlowParseError as exc:
        error = (exc.line_no, str(exc))
    return records, (stats.rows, stats.parsed, stats.skipped, stats.errors), error


@PROPERTY_SETTINGS
@given(
    rows=st.lists(st.one_of(flow_rows(), well_formed_rows), max_size=30),
    on_error=st.sampled_from(("abort", "skip")),
)
def test_parser_matches_helper_oracle(rows, on_error):
    text = ",".join(CANONICAL_COLUMNS) + "\n" + "".join(row + "\n" for row in rows)
    assert run_parser(parse_flows, text, on_error) == run_parser(
        parse_flows_by_helpers, text, on_error
    )


@PROPERTY_SETTINGS
@given(
    rows=st.lists(st.one_of(flow_rows(), well_formed_rows), max_size=30),
    on_error=st.sampled_from(("abort", "skip")),
)
def test_record_parser_wraps_the_row_parser(rows, on_error):
    text = ",".join(CANONICAL_COLUMNS) + "\n" + "".join(row + "\n" for row in rows)
    records, record_stats, record_error = run_parser(parse_flows, text, on_error)
    plain, plain_stats, plain_error = run_parser(parse_flow_rows, text, on_error)
    assert all(type(r) is FlowRecord for r in records)
    assert all(type(r) is tuple for r in plain)
    assert records == plain
    assert (record_stats, record_error) == (plain_stats, plain_error)


addresses = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v))),
    st.integers(0, 2**128 - 1).map(lambda v: str(ipaddress.IPv6Address(v))),
)


flow_records = st.builds(
    lambda src, dst, sport, dport, start, length: FlowRecord(
        src, dst, sport, dport, start, start + length
    ),
    addresses,
    addresses,
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.integers(-(10**13), 10**13),
    st.integers(0, 10**6),
)


@PROPERTY_SETTINGS
@given(records=st.lists(flow_records, max_size=40))
def test_write_then_parse_returns_the_input(records):
    buf = io.StringIO()
    assert write_flows(records, buf) == len(records)
    buf.seek(0)
    assert list(parse_flows(buf)) == records


@pytest.mark.parametrize("sort", ["none", "start", "end"])
def test_prepare_keeps_int64_edge_timestamps_byte_identical(tmp_path, sort):
    low, high = -(1 << 63), (1 << 63) - 1
    text = ",".join(CANONICAL_COLUMNS) + "\n" + "".join(
        f"{start},{end},10.0.0.{i},10.0.0.9,1,2\n"
        for i, (start, end) in enumerate([(low, low), (low, high), (0, high), (high, high)])
    )
    flows_path, out = tmp_path / "flows.csv", tmp_path / "out.csv"
    flows_path.write_text(text)
    assert main(["prepare", "--flows", str(flows_path), "--out", str(out),
                 "--sort", sort, "--dedupe"]) == 0
    assert out.read_text() == text


# scoped IPv6 text keeps its scope as given; these scopes hold every
# character csv quotes, "\r" among them (quoted from Python 3.12 on only)
scoped = st.builds(
    lambda address, scope: f"{address}%{scope}",
    st.sampled_from(("fe80::1", "fe80::2")),
    st.text(alphabet=st.sampled_from(('a', '1', ',', '"', '\n', '\r', ' ')), min_size=1),
)
any_address = st.one_of(addresses, scoped)


@PROPERTY_SETTINGS
@given(
    records=st.lists(
        st.builds(
            FlowRecord,
            any_address,
            any_address,
            st.integers(0, 65535),
            st.integers(0, 65535),
            st.integers(-(10**13), 0),
            st.integers(0, 10**13),
        ),
        max_size=30,
    ),
    as_rows=st.booleans(),
)
def test_writer_matches_csv_writer_oracle(records, as_rows):
    flows = [tuple(r) for r in records] if as_rows else records
    written, expected = io.StringIO(), io.StringIO()
    assert write_flows(iter(flows), written) == write_flows_by_csv_writer(flows, expected)
    assert written.getvalue() == expected.getvalue()


# few IPs, ports and start times, so keys repeat and sort keys tie
crowded = st.builds(
    lambda src, dst, sport, dport, start, length: FlowRecord(
        src, dst, sport, dport, start, start + length
    ),
    st.sampled_from(("10.0.0.1", "10.0.0.2", "2001:db8::1")),
    st.sampled_from(("10.0.0.1", "10.0.0.2")),
    st.integers(0, 2),
    st.integers(0, 1),
    st.integers(0, 4),
    st.integers(0, 4),
)
chunk_sizes = st.integers(1, 8) | st.just(500_000)


@PROPERTY_SETTINGS
@given(
    records=st.lists(crowded, max_size=60),
    key=st.sampled_from(("start", "none")),
    chunk_size=chunk_sizes,
)
def test_dedupe_then_sort_equals_sort_then_dedupe(records, key, chunk_size):
    first = list(sort_flows(dedupe_flows(records), key=key, chunk_size=chunk_size))
    assert first == list(dedupe_flows(sort_flows(records, key=key, chunk_size=chunk_size)))


@PROPERTY_SETTINGS
@given(
    records=st.lists(crowded, max_size=60),
    key=st.sampled_from(("start", "end")),
    chunk_size=chunk_sizes,
)
def test_spill_sort_is_stable_across_runs(records, key, chunk_size):
    # the source port carries the input position, so records with equal sort
    # keys differ and any reordering among them shows
    tagged = [
        FlowRecord(r.src_ip, r.dst_ip, i, r.dst_port, r.start_ts, r.end_ts)
        for i, r in enumerate(records)
    ]
    attr = "start_ts" if key == "start" else "end_ts"
    out = list(sort_flows(tagged, key=key, chunk_size=chunk_size))
    assert out == sorted(tagged, key=attrgetter(attr))


def test_spill_merge_reads_runs_batch_by_batch(monkeypatch):
    # more rows per run than one batch, so a run is read back in several loads
    monkeypatch.setattr(flows_module, "_SPILL_BATCH", 3)
    records = [
        FlowRecord("10.0.0.1", "10.0.0.2", i, 1, (i * 7) % 5, 10) for i in range(40)
    ]
    out = list(sort_flows(records, key="start", chunk_size=16))
    assert out == sorted(records, key=attrgetter("start_ts"))


def test_abandoned_sort_closes_its_spills(monkeypatch):
    opened = []
    original = tempfile.TemporaryFile

    def tracked(*args, **kwargs):
        opened.append(original(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", tracked)
    records = [FlowRecord("10.0.0.1", "10.0.0.2", i, 1, 10 - i, 20) for i in range(10)]
    stream = sort_flows(records, key="start", chunk_size=3)
    next(stream)
    stream.close()
    assert len(opened) == 4 and all(f.closed for f in opened)


@PROPERTY_SETTINGS
@given(
    records=st.lists(crowded, max_size=60),
    key=st.sampled_from(("start", "end")),
    chunk_size=st.integers(1, 8),
    as_rows=st.booleans(),
)
def test_spill_sort_equals_in_memory_sort(records, key, chunk_size, as_rows):
    flows = [tuple(r) for r in records] if as_rows else records
    spilled = list(sort_flows(flows, key=key, chunk_size=chunk_size))
    assert spilled == list(sort_flows(flows, key=key))
    # each flow comes back in the form it went in as
    assert all(type(r) is (tuple if as_rows else FlowRecord) for r in spilled)


@PROPERTY_SETTINGS
@given(records=st.lists(crowded, min_size=1, max_size=60))
def test_consumers_treat_records_and_rows_alike(records):
    rows = [tuple(r) for r in records]
    assert list(dedupe_flows(rows)) == list(dedupe_flows(records))
    written = []
    for flows in (records, rows):
        buf = io.StringIO()
        assert write_flows(flows, buf) == len(records)
        written.append(buf.getvalue())
    assert written[0] == written[1]
    assert count_port_pairs(rows) == count_port_pairs(records)
    retained = set(count_port_pairs(records).counts)
    by_rows, by_records = build_static_graph(rows, retained), build_static_graph(records, retained)
    assert by_rows.vertices == by_records.vertices
    assert edge_triples(by_rows) == edge_triples(by_records)
