"""Static learning graph: port-pair census, frequency filter, multigraph build."""

from __future__ import annotations

import warnings
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np

from .flows import (
    FlowRecord, FlowRow, PortPair, _check_sort_key, _IpTable, _plain, _plain_names, parse_flow_rows
)


class GraphBuildError(ValueError):
    """No usable learning graph could be built from the given flows."""


@dataclass
class PortPairCensus:
    counts: dict[PortPair, int]
    total_flows: int


def count_port_pairs(records: Iterable[FlowRow]) -> PortPairCensus:
    """Tally every record's port pair; total_flows is the record count."""
    counts = Counter(map(itemgetter(2, 3), records))
    return PortPairCensus(
        {PortPair(*pair): count for pair, count in counts.items()}, sum(counts.values())
    )


def check_split(split: float) -> None:
    """Reject a learn split, the share of the flow file learned on, outside (0, 1]."""
    if not 0.0 < split <= 1.0:
        raise ValueError(f"--learn-split must be in (0, 1], got {split}")


def check_fraction(fraction: float) -> None:
    """Reject a port-pair retention fraction outside [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")


def _retained(counts, total_flows: int, fraction: float) -> np.ndarray:
    """The retention rule: which pair ``counts`` exceed ``fraction`` of all flows."""
    return np.asarray(counts, dtype=np.int64) > fraction * total_flows


def filter_port_pairs(census: PortPairCensus, fraction: float) -> set[PortPair]:
    """Port pairs occurring in strictly more than ``fraction`` of all flows."""
    check_fraction(fraction)
    keep = _retained(list(census.counts.values()), census.total_flows, fraction)
    return set(compress(census.counts, keep))


class StaticGraph:
    """Directed multigraph over IP addresses with a port pair on every edge.

    Edge ``e`` runs from vertex ``src[e]`` to vertex ``dst[e]`` on the port
    pair of key ``pair_key[e] = (src_port << 16) | dst_port``, given as three
    int columns of equal length, and vertex ``i`` is the ``i``-th IP of
    ``vertices``. A key outside 0..2^32-1 raises ValueError. Parallel edges
    and self-loops are kept and each one counts toward its source's
    out-degree. Edges are stored sorted by (source, destination, pair) so that
    per-vertex sums accumulate in ascending source order, which keeps
    iteration results reproducible for a given platform.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Iterable[str], src, dst, pair_key):
        self.vertices: list[str] = list(vertices)
        src, dst, pair_key = (np.asarray(c, dtype=np.int64) for c in (src, dst, pair_key))
        # a key of two 16-bit ports has no bit set above the 32nd, and no sign bit
        if np.any(pair_key >> 32):
            raise ValueError("port pair key out of range")
        order = np.lexsort((pair_key, dst, src))
        keys, pair_id = np.unique(pair_key[order], return_inverse=True)
        self.pairs: list[PortPair] = [PortPair(*_ports(k)) for k in keys.tolist()]
        self.edge_src = src[order]
        self.edge_dst = dst[order]
        self.edge_pair_id = pair_id.astype(np.int64)
        self.out_degree = np.bincount(self.edge_src, minlength=self.n).astype(np.int64)
        # the largest in- plus out-degree; a self-loop counts in both
        in_degree = np.bincount(self.edge_dst, minlength=self.n)
        self.max_degree = int((in_degree + self.out_degree).max(initial=0))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edge_src)


def _pair_key(src_port, dst_port):
    """The key ``(src_port << 16) | dst_port`` of a port pair, or of each pair
    of two int64 arrays: the one packing of ports, which orders pairs as
    ``(src_port, dst_port)`` does. Raises ValueError unless every port is in
    0..65535."""
    # a port in 0..65535 has no bit set above the 16th, and no sign bit
    if np.any((src_port | dst_port) >> 16):
        raise ValueError("port out of range")
    return (src_port << 16) | dst_port


def _ports(pair_key):
    """The source and destination port of a ``_pair_key``, or the two port
    arrays of an array of keys."""
    return pair_key >> 16, pair_key & 0xFFFF


# Characters of text to read a block at a time, before the cut at the next line
# end. A block's structured array and IP strings are a few hundred KB, so
# larger blocks would raise the peak memory of a read.
_BLOCK = 1 << 16
# Rows per block of row tuples: enough that numpy converts each block at C
# speed, few enough that one block of tuples costs little.
_BATCH = 4096


def _dtype(names) -> np.dtype:
    """One structured row per flow: the IP fields as text, the rest int64."""
    return np.dtype([(name, object if name.endswith("_ip") else np.int64) for name in names])


_ROW_DTYPE = _dtype(FlowRecord._fields)


# A checked block: its source and destination IPs, each named as the reader's
# caller names it, its port pair keys and its structured rows
_Block = tuple[list, list, np.ndarray, np.ndarray]


def _checked(rows: np.ndarray, name) -> _Block:
    """A structured block as four parts: its source and destination IP texts
    named by ``name``, which raises ValueError on a text that is no IP
    address, its int64 port pair keys, and the rows. A port outside 0..65535
    raises ValueError before any IP is named."""
    key = _pair_key(rows["src_port"], rows["dst_port"])
    src, dst = (list(map(name, rows[field].tolist())) for field in ("src_ip", "dst_ip"))
    return src, dst, key, rows


def _plain_blocks(fh: IO[str], ips: dict, mapping) -> Iterator[_Block]:
    """The rows of a plain flow file, read by numpy's C reader in blocks of
    about ``_BLOCK`` characters, each yielded as ``_checked`` gives it once
    every field is checked. Raises ValueError when the header is not plain
    under the column ``mapping`` (see ``_plain_names``), a block is not plain
    or an IP text is no address, and ValueError, OverflowError or
    DeprecationWarning on a row numpy cannot read or the row parser would
    reject; the messages are not the row parser's."""
    dtype = _dtype(_plain_names(fh.readline(), mapping))
    while block := fh.read(_BLOCK):
        block += fh.readline()
        if not _plain(block):
            raise ValueError("not plain text")
        # numpy 1.23 reads a float text such as 8e1 into an int field and only
        # warns that this is deprecated; the row parser rejects it as a port.
        # Lines are cut at "\n" alone, as csv cuts them: str.splitlines()
        # would also cut at "\x0b", "\x0c" and "\x1c" to "\x1e".
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                block.split("\n"), delimiter=",", dtype=dtype, comments=None, quotechar=None,
                ndmin=1,
            )
        if (rows["start_ts"] > rows["end_ts"]).any():
            raise ValueError("start_ts after end_ts")
        yield _checked(rows, ips.__getitem__)


def _row_blocks(rows: Iterable[FlowRow], name) -> Iterator[_Block]:
    """``rows`` in structured blocks of ``_BATCH`` rows, as ``_checked`` gives
    them. A value must fit its int64 field, as the parser and FlowRecord make
    sure."""
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        yield _checked(np.array(batch, dtype=_ROW_DTYPE), name)


def _columns(blocks: Iterable[_Block]) -> list[np.ndarray]:
    """Drain blocks whose IPs are looked up as ids into five columns, 28
    bytes a row: int32 source and destination ids, the uint32 port pair key,
    and int64 start_ts and end_ts."""
    src, dst, *rest = columns = [array(code) for code in "iiIqq"]
    for src_ids, dst_ids, keys, rows in blocks:
        src.extend(src_ids)
        dst.extend(dst_ids)
        for column, values in zip(rest, (keys, rows["start_ts"], rows["end_ts"])):
            column.frombytes(values.astype(column.typecode, copy=False).tobytes())
    return [np.frombuffer(c, dtype=c.typecode) for c in columns]


def flow_blocks(
    fh: IO[str], ips: _IpTable, on_error="abort", stats=None, mapping=None
) -> Iterator[_Block]:
    """The rows of ``parse_flow_rows(fh, mapping, on_error, stats)`` in
    blocks of four parts, as ``_checked`` gives them: source IPs and
    destination IPs, each IP as ``ips`` names its text, port pair keys and
    structured rows; and the parser's error, if it raises one, after blocks
    that hold a prefix of the rows before it; ``stats`` is a ParseStats or
    None, and ``mapping`` the parser's column mapping or None. The one place
    that chooses between numpy's reader and the row parser.

    A plain file whose six columns hold the six fields under ``mapping``,
    one each, as ``write_flows`` writes it, is read in blocks of about 64 KB
    by numpy's C reader. Memory is the block being read, the one the caller
    still holds, and one entry of ``ips`` per distinct raw IP text. A whole
    file read so sets ``stats.rows`` and ``stats.parsed`` to its row count.

    A file that cannot seek back goes straight to the row parser. Another
    header (extra columns, one column serving two fields), or the first block
    that is not plain or holds a row numpy cannot read or the parser would
    reject, sends the file to the row parser, which reads it again from its
    start, counts into ``stats`` and skips the rows already yielded. So every
    error, skipped row and count is the parser's own, with its message and
    line number, at the cost of parsing the yielded prefix once more. The
    parser's IP text is already canonical, so ``ips.keep`` names it.
    """
    done = 0
    if fh.seekable():
        try:
            for block in _plain_blocks(fh, ips, mapping):
                done += len(block[3])
                yield block
            if stats is not None:
                stats.rows = stats.parsed = done
            return
        # what numpy's reader raises on a file or row it cannot read as the
        # row parser would; _plain_blocks says when
        except (ValueError, OverflowError, DeprecationWarning):
            fh.seek(0)
    rows = parse_flow_rows(fh, columns=mapping, on_error=on_error, stats=stats)
    yield from _row_blocks(islice(rows, done, None), ips.keep)


def flow_columns(
    fh: IO[str], on_error="abort", stats=None, mapping=None
) -> tuple[list[str], list[np.ndarray]]:
    """The canonical IPs in id order and the ``_columns`` of the rows of
    ``parse_flow_rows(fh, mapping, on_error, stats)``, up to the order of
    the IP ids, read by ``flow_blocks``. Ids are keyed by canonical text, so
    those given out before a fall back to the row parser stay valid."""
    ids = defaultdict(count().__next__)
    columns = _columns(flow_blocks(fh, _IpTable(ids.__getitem__), on_error, stats, mapping))
    # only now that the blocks are drained does ids hold every IP
    return list(ids), columns


def prepared_rows(fh: IO[str], sort: str, on_error: str, stats, mapping) -> Iterator[FlowRow]:
    """The rows ``prepare --dedupe --sort <sort> --on-error <on_error>``
    writes from the flow file ``fh``, its columns named as ``mapping`` (the
    parsed ``--columns``, or None) names them, read by ``flow_columns``, by
    blocks for a plain file with or without a mapping, counted into
    ``stats`` as the row parser counts. The one reader of ``prepare --dedupe``.

    The rows are the first of each dedupe key, in input order (``sort``
    "none") or stably sorted by start_ts ("start"); with "end", the rows are
    stably sorted by end_ts first, so the kept row of a key is its
    earliest-ending one. Any other ``sort`` raises ``sort_flows``' ValueError
    before a row is read. The whole file is read before the first row is
    given, into the five ``_columns``, 28 bytes a row, plus one entry per
    distinct IP.
    """
    _check_sort_key(sort)
    ips, columns = flow_columns(fh, on_error, stats, mapping)
    if sort == "end":
        order = np.argsort(columns[4], kind="stable")
        # in place, so that each column is freed once its sorted copy is made
        for i, column in enumerate(columns):
            columns[i] = column[order]
    kept = np.flatnonzero(_first_rows(columns[:4]))
    if sort == "start":
        kept = kept[np.argsort(columns[3][kept], kind="stable")]
    return _sliced_rows(ips, [column[kept] for column in columns])


# Rows per slice of _sliced_rows: one slice's Python objects are alive at a time
_SLICE = 1 << 14


def _sliced_rows(ips: list[str], columns: list[np.ndarray]) -> Iterator[FlowRow]:
    """The rows of the columns of ``prepared_rows``, with each IP id named by
    ``ips``, converted to Python values ``_SLICE`` rows at a time."""
    src, dst, key, start, end = columns
    for at in range(0, len(src), _SLICE):
        part = slice(at, at + _SLICE)
        src_port, dst_port = _ports(key[part])
        yield from zip(
            [ips[i] for i in src[part].tolist()], [ips[i] for i in dst[part].tolist()],
            src_port.tolist(), dst_port.tolist(), start[part].tolist(), end[part].tolist(),
        )


def _graph_from_edges(ips: list[str], src, dst, pair_key) -> StaticGraph:
    """The graph over the edges of id columns, its vertices the IPs incident to
    them in order of first appearance, a row's source before its destination."""
    if not len(src):
        raise GraphBuildError(
            "no flows carry a retained port pair; the learning graph would be empty"
        )
    ends = np.empty(2 * len(src), dtype=np.int64)
    ends[0::2], ends[1::2] = src, dst
    seen, first = np.unique(ends, return_index=True)
    del ends
    ids = seen[np.argsort(first)]
    vertex = np.empty(len(ips), dtype=np.int64)
    vertex[ids] = np.arange(len(ids))
    vertices = [ips[i] for i in ids.tolist()]
    return StaticGraph(vertices, vertex[src], vertex[dst], pair_key)


def build_static_graph(records: Iterable[FlowRow], retained: set[PortPair]) -> StaticGraph:
    """Materialize the learning graph: one edge per record with a retained pair.

    ``records`` must already be deduplicated. Vertices are exactly the IPs
    incident to surviving edges, named by their canonical text as the flow
    file readers name them (``2001:DB8::1`` is ``2001:db8::1``); IP text that
    is no address and a port outside 0..65535 raise ValueError. An empty
    surviving edge set is an error because nothing could be learned from it.
    """
    ids = defaultdict(count().__next__)
    name = _IpTable(ids.__getitem__).__getitem__
    src, dst, key = _columns(_row_blocks(records, name))[:3]
    edge = np.isin(key, np.array([_pair_key(*pair) for pair in retained], dtype=np.int64))
    return _graph_from_edges(list(ids), src[edge], dst[edge], key[edge])


def _first_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The keep-first dedupe: a mask of the rows that are the first of their
    key, the tuple of their values across ``columns``."""
    # the stable sort leaves each key's first row at the head of its run of
    # equal keys
    order = np.lexsort(columns[::-1])
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for column in columns:
        ordered = column[order]
        head[1:] |= ordered[1:] != ordered[:-1]
        del ordered  # before the next column's copy
    kept = np.zeros(len(order), dtype=bool)
    kept[order[head]] = True
    return kept


def _learning_edges(fh: IO[str], split: float, fraction: float):
    """The edge columns of the learning graph over ``flow_columns(fh)`` and
    its ``info`` without the graph counts; the row columns are freed on
    return."""
    ips, columns = flow_columns(fh)
    total = len(columns[0])
    prefix = int(total * split)
    # the dedupe key: source, destination, port pair and start_ts
    columns = [column[:prefix] for column in columns[:4]]
    kept = _first_rows(columns)
    src, dst, key = (column[kept] for column in columns[:3])
    del columns, kept
    after_dedupe = len(src)
    _, pair_of, counts = np.unique(key, return_inverse=True, return_counts=True)
    retained = _retained(counts, after_dedupe, fraction)
    edge = retained[pair_of]
    info = {
        "flows_total": total,
        "flows_learning": prefix,
        "flows_after_dedupe": after_dedupe,
        "retained_pairs": int(retained.sum()),
    }
    return ips, (src[edge], dst[edge], key[edge]), info


def read_learning_graph(fh: IO[str], split: float, fraction: float) -> tuple[StaticGraph, dict]:
    """The learning graph of the first ``int(total * split)`` rows of the
    flow file ``fh``, deduplicated, with the port pairs in strictly more than
    ``fraction`` of the deduplicated flows; and an ``info`` dict of its row
    and graph counts. The one entry from flows to the learning graph.

    A split outside (0, 1] or a fraction outside [0, 1] is rejected before
    a row is read. The whole file is then read by ``flow_columns``, so a
    malformed row anywhere fails the call. The result equals
    ``build_static_graph`` over ``dedupe_flows`` of the prefix with the
    pairs ``filter_port_pairs`` retains from its census.
    """
    check_split(split)
    check_fraction(fraction)
    ips, edges, info = _learning_edges(fh, split, fraction)
    graph = _graph_from_edges(ips, *edges)
    info["vertices"] = graph.n
    info["edges"] = graph.edge_count
    return graph, info


def write_edge_list(graph: StaticGraph, out: IO[str]) -> None:
    """Dump edges as ``src_ip,dst_ip,src_port,dst_port`` lines for inspection,
    in stored order."""
    ips = graph.vertices
    pairs = [f"{pair.src_port},{pair.dst_port}" for pair in graph.pairs]
    columns = (graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edge_pair_id.tolist())
    out.writelines(f"{ips[s]},{ips[d]},{pairs[p]}\n" for s, d, p in zip(*columns))
