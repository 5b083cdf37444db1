"""Static learning graph: port-pair census, frequency filter, multigraph build."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, islice
from operator import itemgetter
from typing import IO, Iterable

import numpy as np

from .flows import FlowRow, PortPair


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


def check_fraction(fraction: float) -> None:
    """Reject a port-pair retention fraction outside [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")


def _retained(counts, total_flows: int, fraction: float) -> np.ndarray:
    """The retention rule: which pair ``counts`` exceed ``fraction`` of all flows."""
    check_fraction(fraction)
    return np.asarray(counts, dtype=np.int64) > fraction * total_flows


def filter_port_pairs(census: PortPairCensus, fraction: float) -> set[PortPair]:
    """Port pairs occurring in strictly more than ``fraction`` of all flows."""
    keep = _retained(list(census.counts.values()), census.total_flows, fraction)
    return set(compress(census.counts, keep))


class StaticGraph:
    """Directed multigraph over IP addresses with a port pair on every edge.

    Edge ``e`` runs from vertex ``src[e]`` to vertex ``dst[e]`` on the port
    pair ``(src_port[e], dst_port[e])``, given as four int columns of equal
    length, and vertex ``i`` is the ``i``-th IP of ``vertices``. Parallel
    edges and self-loops are kept and each one counts toward its source's
    out-degree. Edges are stored sorted by (source, destination, pair) so
    that per-vertex sums accumulate in ascending source order, which keeps
    iteration results reproducible for a given platform.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Iterable[str], src, dst, src_port, dst_port):
        self.vertices: list[str] = list(vertices)
        self.vertex_index: dict[str, int] = {ip: i for i, ip in enumerate(self.vertices)}
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        pair_key = _pair_key(
            np.asarray(src_port, dtype=np.int64), np.asarray(dst_port, dtype=np.int64)
        )
        order = np.lexsort((pair_key, dst, src))
        keys, pair_id = np.unique(pair_key[order], return_inverse=True)
        self.pairs: list[PortPair] = [PortPair(int(k) >> 16, int(k) & 0xFFFF) for k in keys]
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


def _pair_key(src_port: np.ndarray, dst_port: np.ndarray) -> np.ndarray:
    # ports are 16-bit, so this key orders pairs as (src_port, dst_port) does
    return (src_port << 16) | dst_port


# Rows per batch of the column fill: enough that map runs at C speed over each
# field of a batch, few enough that one batch of row tuples costs little.
_BATCH = 4096
_SRC_IP, _DST_IP, _SRC_PORT, _DST_PORT, _START = map(itemgetter, range(5))
_INT64 = range(-(1 << 63), 1 << 63)


def _row_columns(rows: Iterable[FlowRow]) -> tuple[list[str], list[np.ndarray]]:
    """Drain ``rows`` into five int64 columns: source id, destination id,
    source port, destination port and start_ts. Returns the IPs in id order
    and the columns.

    Only an IP not seen before goes through Python code. A start_ts beyond
    int64 keeps only what a dedupe key needs of it, its equality with the
    other starts: the column then holds every start's dense rank instead.
    """
    ids: dict[str, int] = {}
    src, dst, src_port, dst_port, start = (array("q") for _ in range(5))
    huge: list[tuple[int, int]] = []  # (row, start_ts) of the starts beyond int64
    rows = iter(rows)
    while batch := list(islice(rows, _BATCH)):
        ips = chain(map(_SRC_IP, batch), map(_DST_IP, batch))
        ids.update(zip(dict.fromkeys(filterfalse(ids.__contains__, ips)), count(len(ids))))
        src.extend(map(ids.__getitem__, map(_SRC_IP, batch)))
        dst.extend(map(ids.__getitem__, map(_DST_IP, batch)))
        src_port.extend(map(_SRC_PORT, batch))
        dst_port.extend(map(_DST_PORT, batch))
        try:
            start.extend(array("q", map(_START, batch)))
        except OverflowError:
            starts = list(map(_START, batch))
            huge += [(len(start) + i, ts) for i, ts in enumerate(starts) if ts not in _INT64]
            start.extend(ts if ts in _INT64 else 0 for ts in starts)
    columns = [np.frombuffer(c, dtype=np.int64) for c in (src, dst, src_port, dst_port, start)]
    if huge:
        ranks = np.unique(columns[4], return_inverse=True)[1].astype(np.int64)
        at, values = zip(*huge)
        codes = {ts: code for code, ts in enumerate(dict.fromkeys(values), len(ranks))}
        ranks[list(at)] = [codes[ts] for ts in values]
        columns[4] = ranks
    return list(ids), columns


def _graph_from_edges(ips: list[str], src, dst, src_port, dst_port) -> StaticGraph:
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
    return StaticGraph(vertices, vertex[src], vertex[dst], src_port, dst_port)


def build_static_graph(records: Iterable[FlowRow], retained: set[PortPair]) -> StaticGraph:
    """Materialize the learning graph: one edge per record with a retained pair.

    ``records`` must already be deduplicated. Vertices are exactly the IPs
    incident to surviving edges; an empty surviving edge set is an error
    because nothing could be learned from it.
    """
    ips, (src, dst, src_port, dst_port, _) = _row_columns(records)
    keys = np.array([_pair_key(*pair) for pair in retained], dtype=np.int64)
    edge = np.isin(_pair_key(src_port, dst_port), keys)
    return _graph_from_edges(ips, src[edge], dst[edge], src_port[edge], dst_port[edge])


def _learning_edges(rows: Iterable[FlowRow], split: float, fraction: float):
    """The edge columns of ``learning_graph`` and its ``info`` without the
    graph counts; the row columns are freed on return."""
    ips, columns = _row_columns(rows)
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
    src, dst, src_port, dst_port, _ = (column[kept] for column in columns)
    del columns, kept
    after_dedupe = len(src)
    _, pair_of, counts = np.unique(
        _pair_key(src_port, dst_port), return_inverse=True, return_counts=True
    )
    retained = _retained(counts, after_dedupe, fraction)
    edge = retained[pair_of]
    info = {
        "flows_total": total,
        "flows_learning": prefix,
        "flows_after_dedupe": after_dedupe,
        "retained_pairs": int(retained.sum()),
    }
    return ips, (src[edge], dst[edge], src_port[edge], dst_port[edge]), info


def learning_graph(
    rows: Iterable[FlowRow], split: float, fraction: float
) -> tuple[StaticGraph, dict]:
    """The learning graph of the first ``int(total * split)`` of ``rows``,
    deduplicated, with the port pairs in strictly more than ``fraction`` of
    the deduplicated flows; and an ``info`` dict of its row and graph counts.

    Every row is drained, so a malformed row anywhere fails the call, but
    only five int64 values per row and one id per distinct IP are held. The
    result equals ``build_static_graph`` over ``dedupe_flows`` of the prefix
    with the pairs ``filter_port_pairs`` retains from its census.
    """
    ips, edges, info = _learning_edges(rows, split, fraction)
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
