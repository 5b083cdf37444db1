"""Static learning graph: port-pair census, frequency filter, multigraph build."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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


def filter_port_pairs(census: PortPairCensus, fraction: float) -> set[PortPair]:
    """Port pairs occurring in strictly more than ``fraction`` of all flows."""
    check_fraction(fraction)
    threshold = fraction * census.total_flows
    return {pair for pair, count in census.counts.items() if count > threshold}


class StaticGraph:
    """Directed multigraph over IP addresses with a port pair on every edge.

    ``edges`` holds one ``(src_vertex, dst_vertex, src_port, dst_port)`` row
    per edge, and vertex ``i`` is the ``i``-th IP of ``vertices``. Parallel
    edges and self-loops are kept and each one counts toward its source's
    out-degree. Edges are stored sorted by (source, destination, pair) so
    that per-vertex sums accumulate in ascending source order, which keeps
    iteration results reproducible for a given platform.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Iterable[str], edges: list[tuple[int, int, int, int]]):
        self.vertices: list[str] = list(vertices)
        self.vertex_index: dict[str, int] = {ip: i for i, ip in enumerate(self.vertices)}
        columns = np.array(edges, dtype=np.int64).reshape(-1, 4)
        src, dst = columns[:, 0], columns[:, 1]
        # ports are 16-bit, so this key orders pairs as (src_port, dst_port) does
        pair_key = (columns[:, 2] << 16) | columns[:, 3]
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


def build_static_graph(records: Iterable[FlowRow], retained: set[PortPair]) -> StaticGraph:
    """Materialize the learning graph: one edge per record with a retained pair.

    ``records`` must already be deduplicated. Vertices are exactly the IPs
    incident to surviving edges; an empty surviving edge set is an error
    because nothing could be learned from it.
    """
    ids: dict[str, int] = {}
    rows: list[tuple[int, int, int, int]] = []
    for src_ip, dst_ip, src_port, dst_port, _, _ in records:
        # a PortPair hashes and compares as its plain tuple
        if (src_port, dst_port) in retained:
            src = ids.setdefault(src_ip, len(ids))
            dst = ids.setdefault(dst_ip, len(ids))
            rows.append((src, dst, src_port, dst_port))
    if not rows:
        raise GraphBuildError(
            "no flows carry a retained port pair; the learning graph would be empty"
        )
    return StaticGraph(ids, rows)


def write_edge_list(graph: StaticGraph, out: IO[str]) -> None:
    """Dump edges as ``src_ip,dst_ip,src_port,dst_port`` lines for inspection,
    in stored order."""
    ips = graph.vertices
    pairs = [f"{pair.src_port},{pair.dst_port}" for pair in graph.pairs]
    columns = (graph.edge_src.tolist(), graph.edge_dst.tolist(), graph.edge_pair_id.tolist())
    out.writelines(f"{ips[s]},{ips[d]},{pairs[p]}\n" for s, d, p in zip(*columns))
