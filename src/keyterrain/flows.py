"""Flow record ingestion: parsing, ordering, and deduplication."""

from __future__ import annotations

import csv
import heapq
import ipaddress
from dataclasses import dataclass, field
from operator import itemgetter
from socket import AF_INET, inet_ntop, inet_pton
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

CANONICAL_COLUMNS = ("start_ts", "end_ts", "src_ip", "dst_ip", "src_port", "dst_port")


class FlowParseError(ValueError):
    """Malformed flow input; carries the 1-based line number of the offending row."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PortPair(NamedTuple):
    """Ordered (source, destination) transport port pair; (80, 443) != (443, 80)."""

    src_port: int
    dst_port: int


FlowRow = tuple[str, str, int, int, int, int]
"""A plain flow row in FlowRecord field order:
``(src_ip, dst_ip, src_port, dst_port, start_ts, end_ts)``."""


class _FlowFields(NamedTuple):
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    start_ts: int
    end_ts: int


# Timestamps are int64 milliseconds, as flow exporters carry them (IPFIX
# dateTimeMilliseconds); the parser and FlowRecord reject anything outside.
_TS_MIN, _TS_MAX = -(1 << 63), (1 << 63) - 1


class FlowRecord(_FlowFields):
    """One directed IP flow. Timestamps are integral milliseconds since epoch,
    within int64.

    A validated named tuple: it equals, hashes and unpacks as the plain
    ``FlowRow`` of its fields, so every flow consumer takes either form.
    Self-flows (src_ip == dst_ip) are legal and become self-loop edges
    downstream.
    """

    __slots__ = ()

    def __new__(cls, src_ip, dst_ip, src_port, dst_port, start_ts, end_ts):
        if not 0 <= src_port <= 65535:
            raise ValueError(f"src_port out of range: {src_port}")
        if not 0 <= dst_port <= 65535:
            raise ValueError(f"dst_port out of range: {dst_port}")
        for name, value in (("start_ts", start_ts), ("end_ts", end_ts)):
            if not _TS_MIN <= value <= _TS_MAX:
                raise ValueError(f"{name} out of int64 range: {value}")
        if start_ts > end_ts:
            raise ValueError(f"start_ts {start_ts} after end_ts {end_ts}")
        return super().__new__(cls, src_ip, dst_ip, src_port, dst_port, start_ts, end_ts)


@dataclass
class ParseStats:
    """Counters of a parse: ``rows`` read and ``parsed`` in either on_error
    mode; ``skipped`` and the first recorded ``errors`` with on_error="skip",
    which skips field errors only. A tokenizer error ends the parse in either
    mode and is not counted."""

    rows: int = 0
    parsed: int = 0
    skipped: int = 0
    errors: list = field(default_factory=list)

    _MAX_RECORDED_ERRORS = 100

    def record_error(self, line_no: int, message: str) -> None:
        self.skipped += 1
        if len(self.errors) < self._MAX_RECORDED_ERRORS:
            self.errors.append((line_no, message))


def packed_ipv4(text) -> bytes | None:
    """The packed address when ``text`` is canonical dotted-quad IPv4 text,
    else None (also for a value that is not a str).

    Canonical means the inet_pton/inet_ntop round trip gives ``text`` back:
    four plain decimal octets, no leading zeros, no padding. That is exactly
    the IPv4 text ``ipaddress`` maps to itself, so such text needs no
    ``ipaddress`` call; every other spelling must go through ``ipaddress``.
    """
    try:
        packed = inet_pton(AF_INET, text)
    except (OSError, ValueError, TypeError):  # ValueError: embedded NUL
        return None
    return packed if inet_ntop(AF_INET, packed) == text else None


def _canonical_ip(text: str) -> str:
    """Canonical form of an IP field's text.

    Canonical IPv4 text is its own canonical form; ``ipaddress`` alone
    canonicalizes (and words the error for) everything else.
    """
    if packed_ipv4(text) is not None:
        return text
    try:
        return str(ipaddress.ip_address(text.strip()))
    except ValueError:
        raise ValueError(f"bad IP address {text.strip()!r}") from None


class _IpTable(dict):
    """``keep`` of the canonical text of each raw IP text, worked out once per
    text, on its first lookup: every flow reader names a host this way. A
    text that is no IP address raises ValueError and is not stored."""

    def __init__(self, keep=str):
        super().__init__()
        self.keep = keep

    def __missing__(self, text: str):
        value = self[text] = self.keep(_canonical_ip(text))
        return value


def _parse_port(text: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ValueError(f"bad port {text!r}") from None
    if not 0 <= value <= 65535:
        raise ValueError(f"port out of range: {value}")
    return value


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        try:
            # sub-millisecond precision is truncated on ingest
            value = int(float(text))
        except (ValueError, OverflowError):
            raise ValueError(f"bad timestamp {text!r}") from None
    if not _TS_MIN <= value <= _TS_MAX:
        raise ValueError(f"timestamp {text!r} out of int64 range")
    return value


def parse_flow_rows(
    lines: Iterable[str],
    columns: Mapping[str, str] | None = None,
    on_error: str = "abort",
    stats: ParseStats | None = None,
) -> Iterator[FlowRow]:
    """Yield one plain ``FlowRow`` per data row of delimiter-separated text.

    ``lines`` is any iterable of text lines whose first row is a header.
    ``columns`` maps the six required field names (see CANONICAL_COLUMNS) to
    the header names actually used in the file; omitted fields default to
    their canonical names. Extra columns are ignored, which also lets biflow
    exports be ingested by simply not mapping the reverse-direction counters.

    Rows are streamed, never buffered, and hold what a FlowRecord checks:
    ports in range, timestamps within int64, and start no later than end. A
    malformed row (wrong arity, unparsable IP/port/timestamp, a timestamp
    outside int64, start after end) raises FlowParseError when ``on_error``
    is "abort", or is counted in ``stats`` and skipped when it is "skip". A
    line the csv tokenizer rejects raises FlowParseError in either mode.
    """
    if on_error not in ("abort", "skip"):
        raise ValueError(f"on_error must be 'abort' or 'skip', got {on_error!r}")
    if stats is None:
        stats = ParseStats()
    ips = _IpTable()
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise FlowParseError(1, "missing header row")
        header = [name.strip() for name in header]
        mapping = dict(columns or {})
        unknown = set(mapping) - set(CANONICAL_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column mapping keys: {sorted(unknown)}")
        positions = []
        for semantic in CANONICAL_COLUMNS:
            name = mapping.get(semantic, semantic)
            try:
                positions.append(header.index(name))
            except ValueError:
                raise FlowParseError(1, f"missing column {name!r}") from None
        i_start, i_end, i_src, i_dst, i_sport, i_dport = positions
        arity = len(header)

        # An IP costs one lookup on its raw text once seen. The ports and
        # timestamps cost one plain int() each; when any of them fails or is
        # out of range, or start is after end, the helpers read all four in
        # field order, and they alone word every field error.
        for row in reader:
            stats.rows += 1
            try:
                if len(row) != arity:
                    raise ValueError(f"expected {arity} fields, got {len(row)}")
                src_ip = ips[row[i_src]]
                dst_ip = ips[row[i_dst]]
                try:
                    src_port = int(row[i_sport])
                    dst_port = int(row[i_dport])
                    start_ts = int(row[i_start])
                    end_ts = int(row[i_end])
                    if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535
                            and _TS_MIN <= start_ts <= end_ts <= _TS_MAX):
                        raise ValueError
                except ValueError:
                    src_port = _parse_port(row[i_sport])
                    dst_port = _parse_port(row[i_dport])
                    start_ts = _parse_timestamp(row[i_start])
                    end_ts = _parse_timestamp(row[i_end])
                    if start_ts > end_ts:
                        raise ValueError(f"start_ts {start_ts} after end_ts {end_ts}")
            except ValueError as exc:
                if on_error == "abort":
                    raise FlowParseError(reader.line_num, str(exc)) from exc
                stats.record_error(reader.line_num, str(exc))
                continue
            stats.parsed += 1
            yield src_ip, dst_ip, src_port, dst_port, start_ts, end_ts
    except csv.Error as exc:
        # A field over csv.field_size_limit() or a bare CR in an unquoted
        # field. The reader cannot tell where the record it gave up on ends,
        # and resuming on the next line could read the inside of a quoted
        # field as rows, so the parse ends here in either mode.
        raise FlowParseError(reader.line_num, str(exc)) from exc


def parse_flows(
    lines: Iterable[str],
    columns: Mapping[str, str] | None = None,
    on_error: str = "abort",
    stats: ParseStats | None = None,
) -> Iterator[FlowRecord]:
    """``parse_flow_rows`` with each row as a FlowRecord; same arguments,
    errors and ``stats``. The rows are already valid, so they are wrapped
    without checking them again."""
    return map(FlowRecord._make, parse_flow_rows(lines, columns, on_error, stats))


# csv quotes a text field holding the delimiter, the quote character or a
# character of the line terminator; it quotes "\r" on some Python versions
# only, so such a field is left to csv as well.
_QUOTE_CHARS = frozenset(',"\n\r')


class _Unquoted(dict):
    """Whether csv writes a text field as it is, worked out once per distinct text."""

    def __missing__(self, text: str) -> bool:
        plain = self[text] = _QUOTE_CHARS.isdisjoint(text)
        return plain


def write_flows(records: Iterable[FlowRow], out: IO[str]) -> int:
    """Write records as canonical CSV (header plus one row each); returns the count.

    The output is the text ``csv.writer`` writes. Ports and timestamps are
    integers and never quoted, so a row whose IP texts need no quoting is
    formatted directly; any other row goes through ``csv.writer``.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    write = out.write
    unquoted = _Unquoted()
    written = 0
    for written, (src, dst, sport, dport, start, end) in enumerate(records, 1):
        if unquoted[src] and unquoted[dst]:
            write(f"{start},{end},{src},{dst},{sport},{dport}\n")
        else:
            writer.writerow((start, end, src, dst, sport, dport))
    return written


# Records per pickled batch of a spill run; a merge holds one batch per run.
_SPILL_BATCH = 4096


def _spill_run(chunk: list[FlowRow]) -> IO[bytes]:
    # only a sort that outgrows one chunk loads these two
    import pickle
    import tempfile

    spill = tempfile.TemporaryFile()
    for lo in range(0, len(chunk), _SPILL_BATCH):
        pickle.dump(chunk[lo : lo + _SPILL_BATCH], spill, pickle.HIGHEST_PROTOCOL)
    spill.seek(0)
    return spill


def _read_run(spill: IO[bytes]) -> Iterator[FlowRow]:
    import pickle

    while True:
        try:
            batch = pickle.load(spill)
        except EOFError:
            return
        yield from batch


def sort_flows(
    records: Iterable[FlowRow],
    key: str = "start",
    chunk_size: int = 500_000,
) -> Iterator[FlowRow]:
    """Stable sort by the chosen timestamp; key="none" passes input through unchanged.

    Records are sorted in chunks of ``chunk_size``. Once the input outgrows
    one chunk, every chunk is spilled to a temporary file, so the full input
    never has to fit in memory. The sorted chunks are merged by timestamp,
    one batch per spilled chunk at a time; the merge breaks ties by chunk
    order, so ties keep their input order and records are never compared.
    Each record comes back as the object it went in as (a FlowRecord or a
    plain row).
    """
    if key == "none":
        yield from records
        return
    if key not in ("start", "end"):
        raise ValueError(f"sort key must be 'start', 'end' or 'none', got {key!r}")
    sort_key = itemgetter(4 if key == "start" else 5)

    spills: list[IO[bytes]] = []
    chunk: list[FlowRow] = []
    try:
        for rec in records:
            chunk.append(rec)
            if len(chunk) >= chunk_size:
                chunk.sort(key=sort_key)
                spills.append(_spill_run(chunk))
                chunk = []
        chunk.sort(key=sort_key)
        if spills and chunk:
            spills.append(_spill_run(chunk))
            chunk = []
        yield from heapq.merge(*map(_read_run, spills), chunk, key=sort_key)
    finally:
        for spill in spills:
            spill.close()


def dedupe_flows(records: Iterable[FlowRow]) -> Iterator[FlowRow]:
    """Keep the first record per (src_ip, dst_ip, src_port, dst_port, start_ts).

    end_ts is deliberately left out of the key: re-exports of the same flow
    with a refreshed end timestamp must still collapse. Used when preparing
    the learning graph only; the streaming phase consumes every flow. The set
    of seen keys is never trimmed, so memory grows with the number of
    distinct keys (not with the number of records).
    """
    seen: set[tuple] = set()
    for rec in records:
        k = rec[:5]
        if k not in seen:
            seen.add(k)
            yield rec
