"""Static learning graph: port-pair census, frequency filter, multigraph build."""

from __future__ import annotations

import csv
import warnings
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np

from .flows import CANONICAL_COLUMNS, FlowRecord, FlowRow, PortPair, _IpTable, parse_flow_rows


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
    ``vertices``. Parallel edges and self-loops are kept and each one counts
    toward its source's out-degree. Edges are stored sorted by (source,
    destination, pair) so that per-vertex sums accumulate in ascending source
    order, which keeps iteration results reproducible for a given platform.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Iterable[str], src, dst, pair_key):
        self.vertices: list[str] = list(vertices)
        src, dst, pair_key = (np.asarray(c, dtype=np.int64) for c in (src, dst, pair_key))
        order = np.lexsort((pair_key, dst, src))
        keys, pair_id = np.unique(pair_key[order], return_inverse=True)
        self.pairs: list[PortPair] = [PortPair(k >> 16, k & 0xFFFF) for k in keys.tolist()]
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


def _plain(text: str) -> bool:
    """Whether ``text``, whole lines of a flow file, reads alike through
    numpy's reader and the csv tokenizer: ASCII with no quote, CR or NUL, no
    empty line (numpy skips one, csv makes it a short row), and no field the
    tokenizer could reject as over ``csv.field_size_limit()``."""
    return (
        text.isascii()
        and len(text) <= csv.field_size_limit()
        and not text.startswith("\n")
        and not any(part in text for part in ('"', "\r", "\0", "\n\n"))
    )


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


def _plain_blocks(fh: IO[str], ips: dict) -> Iterator[_Block]:
    """The rows of a plain canonical flow file, read by numpy's C reader in
    blocks of about ``_BLOCK`` characters, each yielded as ``_checked`` gives
    it once every field is checked. Raises ValueError when the file is not
    plain canonical CSV (see ``_plain``) or an IP text is no address, and
    ValueError, OverflowError or DeprecationWarning on a row numpy cannot
    read or the row parser would reject; the messages are not the row
    parser's."""
    header = fh.readline()
    names = [name.strip() for name in header.split(",")]
    if not _plain(header) or sorted(names) != sorted(CANONICAL_COLUMNS):
        raise ValueError("not the canonical header")
    dtype = _dtype(names)
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
    """Drain blocks whose IPs are looked up as ids into four int64 columns:
    source id, destination id, port pair key and start_ts."""
    src, dst, key, start = (array("q") for _ in range(4))
    for src_ids, dst_ids, keys, rows in blocks:
        src.extend(src_ids)
        dst.extend(dst_ids)
        key.frombytes(keys.tobytes())
        start.frombytes(rows["start_ts"].tobytes())
    return [np.frombuffer(c, dtype=np.int64) for c in (src, dst, key, start)]


def flow_blocks(fh: IO[str], ips: _IpTable) -> Iterator[_Block]:
    """The rows of ``parse_flow_rows(fh)`` in blocks of four parts, as
    ``_checked`` gives them: source IPs and destination IPs, each IP as
    ``ips`` names its text, port pair keys and structured rows; and the
    parser's error, if it raises one, after blocks that hold a prefix of the
    rows before it.

    Plain canonical CSV, as ``write_flows`` writes it, is read in blocks of
    about 64 KB by numpy's C reader. Memory is the block being read, the one
    the caller still holds, and one entry of ``ips`` per distinct raw IP text.

    A file that cannot seek back, and the first block that is not plain or
    holds a row numpy cannot read or the parser would reject, go to the row
    parser, which reads the file again from its start and skips the rows
    already yielded. So every error is the parser's own, with its message
    and line number, at the cost of parsing the yielded prefix once more.
    The parser's IP text is already canonical, so ``ips.keep`` names it.
    """
    done = 0
    if fh.seekable():
        try:
            for block in _plain_blocks(fh, ips):
                done += len(block[3])
                yield block
            return
        except (ValueError, OverflowError, DeprecationWarning):
            fh.seek(0)
    yield from _row_blocks(islice(parse_flow_rows(fh), done, None), ips.keep)


def flow_columns(fh: IO[str]) -> tuple[list[str], list[np.ndarray]]:
    """The canonical IPs in id order and the ``_columns`` of the rows of
    ``parse_flow_rows(fh)``, up to the order of the IP ids, read by
    ``flow_blocks``. Ids are keyed by canonical text, so those given out
    before a fall back to the row parser stay valid."""
    ids = defaultdict(count().__next__)
    columns = _columns(flow_blocks(fh, _IpTable(ids.__getitem__)))
    return list(ids), columns


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
    src, dst, key, _ = _columns(_row_blocks(records, name))
    edge = np.isin(key, np.array([_pair_key(*pair) for pair in retained], dtype=np.int64))
    return _graph_from_edges(list(ids), src[edge], dst[edge], key[edge])


def _learning_edges(fh: IO[str], split: float, fraction: float):
    """The edge columns of the learning graph over ``flow_columns(fh)`` and
    its ``info`` without the graph counts; the row columns are freed on
    return."""
    ips, columns = flow_columns(fh)
    total = len(columns[0])
    prefix = int(total * split)
    columns = [column[:prefix] for column in columns]
    # keep-first dedupe: the stable sort leaves each key's first row at the
    # head of its run of equal keys
    order = np.lexsort(columns[::-1])
    head = np.zeros(prefix, dtype=bool)
    head[:1] = True
    for column in columns:
        ordered = column[order]
        head[1:] |= ordered[1:] != ordered[:-1]
    kept = np.zeros(prefix, dtype=bool)
    kept[order[head]] = True
    del order, head, ordered
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
