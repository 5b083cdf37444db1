"""Parsing, ordering, and deduplication of flow records."""

import csv
import io
import random

import pytest

from keyterrain import flows as flows_module
from keyterrain.flows import (
    CANONICAL_COLUMNS,
    FlowParseError,
    FlowRecord,
    ParseStats,
    PortPair,
    dedupe_flows,
    parse_flow_rows,
    parse_flows,
    sort_flows,
    write_flows,
)

from instances import flow

HEADER = "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port"


def parse_text(text, **kwargs):
    return list(parse_flows(io.StringIO(text), **kwargs))


class TestParse:
    def test_single_row(self):
        rows = parse_text(HEADER + "\n1554101000000,1554101002000,10.0.0.5,10.0.0.9,51432,443\n")
        assert rows == [
            FlowRecord("10.0.0.5", "10.0.0.9", 51432, 443, 1554101000000, 1554101002000)
        ]

    def test_port_out_of_range_reports_line(self):
        text = HEADER + "\n1,2,10.0.0.5,10.0.0.9,51432,443\n3,4,10.0.0.5,10.0.0.9,70000,443\n"
        with pytest.raises(FlowParseError, match="line 3"):
            parse_text(text)

    def test_empty_after_header(self):
        assert parse_text(HEADER + "\n") == []

    def test_missing_header(self):
        with pytest.raises(FlowParseError, match="header"):
            parse_text("")

    def test_wrong_arity(self):
        with pytest.raises(FlowParseError, match="expected 6 fields"):
            parse_text(HEADER + "\n1,2,10.0.0.5,10.0.0.9,51432\n")

    def test_bad_ip(self):
        with pytest.raises(FlowParseError, match="bad IP"):
            parse_text(HEADER + "\n1,2,10.0.0.999,10.0.0.9,51432,443\n")

    def test_bad_timestamp(self):
        with pytest.raises(FlowParseError, match="bad timestamp"):
            parse_text(HEADER + "\nnope,2,10.0.0.5,10.0.0.9,51432,443\n")

    def test_start_after_end_rejected(self):
        with pytest.raises(FlowParseError, match="after end_ts"):
            parse_text(HEADER + "\n9,2,10.0.0.5,10.0.0.9,51432,443\n")

    def test_sub_millisecond_truncated(self):
        rows = parse_text(HEADER + "\n1554101000000.9,1554101002000.2,10.0.0.5,10.0.0.9,1,2\n")
        assert rows[0].start_ts == 1554101000000
        assert rows[0].end_ts == 1554101002000

    def test_ipv6_canonicalized(self):
        rows = parse_text(HEADER + "\n1,2,2001:DB8::1,2001:db8:0:0:0:0:0:2,1,2\n")
        assert rows[0].src_ip == "2001:db8::1"
        assert rows[0].dst_ip == "2001:db8::2"

    def test_skip_policy_counts(self):
        text = (
            HEADER
            + "\n1,2,10.0.0.5,10.0.0.9,51432,443\n"
            + "1,2,bad,10.0.0.9,51432,443\n"
            + "3,4,10.0.0.5,10.0.0.9,51432,443\n"
        )
        stats = ParseStats()
        rows = parse_text(text, on_error="skip", stats=stats)
        assert len(rows) == 2
        assert stats.rows == 3
        assert stats.parsed == 2
        assert stats.skipped == 1
        assert stats.errors[0][0] == 3

    def test_tokenizer_error_reports_line(self):
        # a bare CR inside an unquoted field, in lines not split on CR
        lines = [HEADER + "\n", "1,2,10.0.0.5,10.0.0.9,1,2\n", "1,2,10.0\r.0.5,10.0.0.9,1,2\n"]
        with pytest.raises(FlowParseError, match="line 3: new-line character"):
            list(parse_flow_rows(lines))
        with pytest.raises(FlowParseError, match="line 1: new-line character"):
            list(parse_flow_rows(["start_ts\r,end_ts\n"]))

    @pytest.mark.parametrize("on_error", ["abort", "skip"])
    def test_tokenizer_error_is_fatal_in_both_modes(self, on_error):
        # a bare CR in an unquoted field: skip mode must not resume after it
        lines = [
            HEADER + "\n",
            "1,2,10.0.0.5,10.0.0.9,1,2\n",
            "1,2,10.0\r.0.5,10.0.0.9,1,2\n",
            "3,4,10.0.0.5,10.0.0.9,1,2\n",
        ]
        stats = ParseStats()
        rows = []
        with pytest.raises(FlowParseError, match="line 3: new-line character"):
            rows.extend(parse_flow_rows(lines, on_error=on_error, stats=stats))
        assert [row[4] for row in rows] == [1]
        assert (stats.rows, stats.parsed, stats.skipped) == (1, 1, 0)

    @pytest.mark.parametrize("on_error", ["abort", "skip"])
    def test_overlong_quoted_field_yields_nothing_from_inside_it(self, on_error):
        # A quoted field opens on line 3 past the field limit and closes on
        # line 5; line 4, inside it, would read as a whole flow if the
        # reader resumed after the error.
        lines = [
            HEADER + "\n",
            "1,2,10.0.0.5,10.0.0.9,1,2\n",
            '3,4,10.0.0.5,10.0.0.9,1,"' + "x" * 60 + "\n",
            "5,6,10.0.0.9,10.0.0.8,7,8\n",
            '9"\n',
        ]
        rows = []
        limit = csv.field_size_limit(50)
        try:
            with pytest.raises(FlowParseError, match="line 3: field larger than field limit"):
                rows.extend(parse_flow_rows(lines, on_error=on_error))
        finally:
            csv.field_size_limit(limit)
        assert ("10.0.0.9", "10.0.0.8", 7, 8, 5, 6) not in rows
        assert rows == [("10.0.0.5", "10.0.0.9", 1, 2, 1, 2)]

    @pytest.mark.parametrize("ts", [str(1 << 63), str(-(1 << 63) - 1), "1e30", " 9.3e18"])
    def test_timestamp_outside_int64_rejected(self, ts):
        message = f"timestamp {ts.strip()!r} out of int64 range"
        # the bad timestamp as start and end, then as end only
        for bad_row in (f"{ts},{ts},10.0.0.5,10.0.0.9,1,2", f"0,{ts},10.0.0.5,10.0.0.9,1,2"):
            text = f"{HEADER}\n1,2,10.0.0.5,10.0.0.9,1,2\n{bad_row}\n3,4,10.0.0.5,10.0.0.9,1,2\n"
            with pytest.raises(FlowParseError, match=f"line 3: {message}"):
                parse_text(text)
            stats = ParseStats()
            rows = parse_text(text, on_error="skip", stats=stats)
            assert [row.start_ts for row in rows] == [1, 3]
            assert stats.errors == [(3, message)]

    def test_int64_limits_accepted(self):
        low, high = -(1 << 63), (1 << 63) - 1
        text = f"{HEADER}\n{low},{high},10.0.0.5,10.0.0.9,1,2\n{high},{high},a::1,b::2,3,4\n"
        rows = parse_text(text)
        assert [(row.start_ts, row.end_ts) for row in rows] == [(low, high), (high, high)]

    def test_column_mapping_and_extra_columns(self):
        text = (
            "ts_first,ts_last,initiator,responder,sport,dport,bytes\n"
            "5,6,10.1.1.1,10.2.2.2,1234,80,999\n"
        )
        columns = {
            "start_ts": "ts_first",
            "end_ts": "ts_last",
            "src_ip": "initiator",
            "dst_ip": "responder",
            "src_port": "sport",
            "dst_port": "dport",
        }
        rows = parse_text(text, columns=columns)
        assert rows == [FlowRecord("10.1.1.1", "10.2.2.2", 1234, 80, 5, 6)]

    def test_missing_column(self):
        with pytest.raises(FlowParseError, match="missing column 'dst_port'"):
            parse_text("start_ts,end_ts,src_ip,dst_ip,src_port\n")

    def test_unknown_mapping_key(self):
        with pytest.raises(ValueError, match="unknown column mapping"):
            parse_text(HEADER + "\n", columns={"whatever": "x"})

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="on_error"):
            parse_text(HEADER + "\n", on_error="ignore")


class TestRowForm:
    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("1,2,10.0.0.999,10.0.0.9,51432,443", "line 3: bad IP address '10.0.0.999'"),
            ("1,2,10.0.0.5,10.0.0.9,51432,x443", "line 3: bad port 'x443'"),
            ("9,2,10.0.0.5,10.0.0.9,51432,443", "line 3: start_ts 9 after end_ts 2"),
        ],
    )
    def test_records_and_rows_fail_alike(self, bad_row, message):
        text = HEADER + "\n1,2,10.0.0.5,10.0.0.9,51432,443\n" + bad_row + "\n"
        for parser in (parse_flows, parse_flow_rows):
            with pytest.raises(FlowParseError) as excinfo:
                list(parser(io.StringIO(text)))
            assert (excinfo.value.line_no, str(excinfo.value)) == (3, message)

    def test_records_and_rows_skip_alike(self):
        text = (
            HEADER
            + "\n1,2,10.0.0.5,10.0.0.9,51432,443\n"
            + "9,2,10.0.0.5,10.0.0.9,51432,443\n"
            + "3,4,10.0.0.5,10.0.0.9,51432,70000\n"
            + "3,4,10.0.0.6,10.0.0.9,51432,443\n"
        )
        parsed = []
        for parser in (parse_flows, parse_flow_rows):
            stats = ParseStats()
            flows = list(parser(io.StringIO(text), on_error="skip", stats=stats))
            parsed.append((flows, stats))
        (records, record_stats), (rows, row_stats) = parsed
        assert rows == [
            ("10.0.0.5", "10.0.0.9", 51432, 443, 1, 2),
            ("10.0.0.6", "10.0.0.9", 51432, 443, 3, 4),
        ]
        assert records == rows and all(type(r) is FlowRecord for r in records)
        assert record_stats == row_stats
        assert row_stats.errors == [
            (3, "start_ts 9 after end_ts 2"), (4, "port out of range: 70000")
        ]

    def test_record_is_its_row(self):
        rec = FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, 3, 4)
        assert rec == ("10.0.0.1", "10.0.0.2", 1, 2, 3, 4)
        assert hash(rec) == hash(tuple(rec))


def random_records(rng, count=200):
    records = []
    for i in range(count):
        start = rng.randrange(10**12, 10**12 + 10**6)
        records.append(
            FlowRecord(
                f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
                rng.choice(["10.1.2.3", "192.168.0.9", "2001:db8::5"]),
                rng.randrange(65536),
                rng.randrange(65536),
                start,
                start + rng.randrange(10**4),
            )
        )
    return records


def test_round_trip_identity():
    records = random_records(random.Random(11))
    buf = io.StringIO()
    assert write_flows(records, buf) == len(records)
    buf.seek(0)
    assert list(parse_flows(buf)) == records


def test_written_header_is_canonical():
    buf = io.StringIO()
    write_flows([], buf)
    assert buf.getvalue().strip() == ",".join(CANONICAL_COLUMNS)


class TestSort:
    def test_two_element_end_sort(self):
        a, b = flow("10.0.0.1", "10.0.0.2", 1, 2, 0, 5), flow("10.0.0.3", "10.0.0.4", 1, 2, 0, 3)
        assert list(sort_flows([a, b], key="end")) == [b, a]

    def test_none_is_identity(self):
        records = random_records(random.Random(3), 50)
        assert list(sort_flows(records, key="none")) == records

    def test_stability_on_equal_keys(self):
        records = [flow("10.0.0.1", "10.0.0.2", p, 1, 7, 7) for p in (5, 3, 9, 1)]
        assert list(sort_flows(records, key="start")) == records

    def test_bad_key(self):
        with pytest.raises(ValueError, match="sort key"):
            list(sort_flows([], key="middle"))

    @pytest.mark.parametrize("key,attr", [("start", "start_ts"), ("end", "end_ts")])
    def test_permutation_and_monotone(self, key, attr):
        records = random_records(random.Random(4), 300)
        out = list(sort_flows(records, key=key))
        assert sorted(map(repr, out)) == sorted(map(repr, records))
        values = [getattr(r, attr) for r in out]
        assert values == sorted(values)

    def test_chunked_matches_in_memory(self):
        rng = random.Random(9)
        records = [
            flow("10.0.0.1", "10.0.0.2", i % 7, 1, rng.randrange(10), rng.randrange(10, 20))
            for i in range(57)
        ]
        expected = sorted(records, key=lambda r: r.start_ts)
        out = list(sort_flows(records, key="start", chunk_size=5))
        assert out == expected  # heapq.merge keeps the chunked path stable too


class TestDedupe:
    def test_identical_collapse(self):
        a = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 9)
        assert list(dedupe_flows([a, a])) == [a]

    def test_different_start_both_kept(self):
        a = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 9)
        b = flow("10.0.0.1", "10.0.0.2", 1, 2, 6, 9)
        assert list(dedupe_flows([a, b])) == [a, b]

    def test_end_ts_not_in_key(self):
        a = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 9)
        b = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 99)
        assert list(dedupe_flows([a, b])) == [a]

    @pytest.mark.parametrize(
        "other",
        [
            flow("10.0.0.7", "10.0.0.2", 1, 2, 5),
            flow("10.0.0.1", "10.0.0.7", 1, 2, 5),
            flow("10.0.0.1", "10.0.0.2", 7, 2, 5),
            flow("10.0.0.1", "10.0.0.2", 1, 7, 5),
            flow("10.0.0.1", "10.0.0.2", 1, 2, 7),
        ],
    )
    def test_each_key_field_distinguishes(self, other):
        base = flow("10.0.0.1", "10.0.0.2", 1, 2, 5)
        assert list(dedupe_flows([base, other])) == [base, other]

    def test_idempotent(self):
        rng = random.Random(2)
        records = [
            flow("10.0.0.1", "10.0.0.2", rng.randrange(3), rng.randrange(3), rng.randrange(3))
            for _ in range(100)
        ]
        once = list(dedupe_flows(records))
        assert list(dedupe_flows(once)) == once


class TestRecordInvariants:
    def test_start_after_end(self):
        with pytest.raises(ValueError):
            FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, 9, 5)

    def test_port_bounds(self):
        with pytest.raises(ValueError):
            FlowRecord("10.0.0.1", "10.0.0.2", -1, 2, 1, 2)
        with pytest.raises(ValueError):
            FlowRecord("10.0.0.1", "10.0.0.2", 1, 65536, 1, 2)

    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, 1e30])
    def test_timestamp_outside_int64(self, value):
        with pytest.raises(ValueError, match="start_ts out of int64 range"):
            FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, value, value)
        with pytest.raises(ValueError, match="end_ts out of int64 range"):
            FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, 0, value)

    def test_self_flow_is_legal(self):
        rec = FlowRecord("10.0.0.1", "10.0.0.1", 1, 2, 1, 2)
        assert rec.src_ip == rec.dst_ip

    def test_port_pair_is_ordered(self):
        assert PortPair(80, 443) != PortPair(443, 80)


@pytest.mark.parametrize(
    "header, columns, fields",
    [
        (HEADER, None, list(CANONICAL_COLUMNS)),
        (" dst_port , src_ip,start_ts,end_ts,dst_ip,src_port", None,
         ["dst_port", "src_ip", "start_ts", "end_ts", "dst_ip", "src_port"]),
        (HEADER, {"src_ip": "dst_ip", "dst_ip": "src_ip"},
         ["start_ts", "end_ts", "dst_ip", "src_ip", "src_port", "dst_port"]),
        ("first,last,sa,da,sp,dp",
         dict(zip(CANONICAL_COLUMNS, ("first", "last", "sa", "da", "sp", "dp"))),
         list(CANONICAL_COLUMNS)),
    ],
)
def test_plain_names_give_the_field_of_each_column(header, columns, fields):
    assert flows_module._plain_names(header + "\n", columns) == fields


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (HEADER + ",bytes", None, "not a plain six-column header"),
        (HEADER, {"start_ts": "end_ts"}, "not a plain six-column header"),
        ("ts,src_ip,dst_ip,src_port,dst_port,proto", {"start_ts": "ts", "end_ts": "ts"},
         "not a plain six-column header"),
        ('"start_ts",end_ts,src_ip,dst_ip,src_port,dst_port', {"start_ts": '"start_ts"'},
         "not a plain six-column header"),
        (HEADER, {"proto": "proto"}, "unknown column mapping keys: ['proto']"),
        (HEADER, {"src_ip": "sa"}, "line 1: missing column 'sa'"),
        ("", None, "line 1: missing column 'start_ts'"),
    ],
)
def test_plain_names_reject_what_numpy_cannot_read_as_the_parser_reads(header, columns, message):
    # the parser reads each of these headers, or rejects it with the same
    # words; numpy's reader takes six columns holding the six fields only
    with pytest.raises(ValueError) as excinfo:
        flows_module._plain_names(header + "\n", columns)
    assert str(excinfo.value) == message
