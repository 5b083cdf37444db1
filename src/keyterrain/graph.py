"""Static learning graph: port-pair census, frequency filter, multigraph build."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .flows import FlowRecord, PortPair


class GraphBuildError(ValueError):
    """No usable learning graph could be built from the given flows."""


@dataclass
class PortPairCensus:
    counts: dict[PortPair, int]
    total_flows: int


def count_port_pairs(records: Iterable[FlowRecord]) -> PortPairCensus:
    """Tally every record's port pair; total_flows is the record count."""
    counts: Counter = Counter()
    total = 0
    for rec in records:
        counts[rec.port_pair()] += 1
        total += 1
    return PortPairCensus(dict(counts), total)


def filter_port_pairs(census: PortPairCensus, fraction: float) -> set[PortPair]:
    """Port pairs occurring in strictly more than ``fraction`` of all flows."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    threshold = fraction * census.total_flows
    return {pair for pair, count in census.counts.items() if count > threshold}


class StaticGraph:
    """Directed multigraph over IP addresses with a port pair on every edge.

    Vertices are indexed by first appearance in the edge stream. Parallel
    edges and self-loops are kept and each one counts toward its source's
    out-degree. Edges are stored sorted by (source, destination, pair) so
    that per-vertex sums accumulate in ascending source order, which keeps
    iteration results reproducible for a given platform.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[int, int, PortPair]]):
        self.vertices: list[str] = list(vertices)
        self.vertex_index: dict[str, int] = {ip: i for i, ip in enumerate(self.vertices)}
        ordered = sorted((s, d, PortPair(*p)) for s, d, p in edges)
        self.pairs: list[PortPair] = sorted({pair for _, _, pair in ordered})
        pair_index = {pair: i for i, pair in enumerate(self.pairs)}
        m = len(ordered)
        self.edge_src = np.fromiter((e[0] for e in ordered), dtype=np.int64, count=m)
        self.edge_dst = np.fromiter((e[1] for e in ordered), dtype=np.int64, count=m)
        self.edge_pair_id = np.fromiter(
            (pair_index[e[2]] for e in ordered), dtype=np.int64, count=m
        )
        self.out_degree = np.bincount(self.edge_src, minlength=self.n).astype(np.int64)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edge_src)

    def edges(self) -> Iterable[tuple[int, int, PortPair]]:
        """Edge triples (src_vertex, dst_vertex, pair) in stored order."""
        for s, d, p in zip(self.edge_src, self.edge_dst, self.edge_pair_id):
            yield int(s), int(d), self.pairs[int(p)]


def build_static_graph(
    records: Iterable[FlowRecord], retained: set[PortPair]
) -> StaticGraph:
    """Materialize the learning graph: one edge per record with a retained pair.

    ``records`` must already be deduplicated. Vertices are exactly the IPs
    incident to surviving edges; an empty surviving edge set is an error
    because nothing could be learned from it.
    """
    vertex_index: dict[str, int] = {}
    vertices: list[str] = []
    triples: list[tuple[int, int, PortPair]] = []
    for rec in records:
        pair = rec.port_pair()
        if pair not in retained:
            continue
        src = vertex_index.get(rec.src_ip)
        if src is None:
            src = vertex_index[rec.src_ip] = len(vertices)
            vertices.append(rec.src_ip)
        dst = vertex_index.get(rec.dst_ip)
        if dst is None:
            dst = vertex_index[rec.dst_ip] = len(vertices)
            vertices.append(rec.dst_ip)
        triples.append((src, dst, pair))
    if not triples:
        raise GraphBuildError(
            "no flows carry a retained port pair; the learning graph would be empty"
        )
    return StaticGraph(vertices, triples)


def write_edge_list(graph: StaticGraph, out: IO[str]) -> None:
    """Dump edges as ``src_ip,dst_ip,src_port,dst_port`` lines for inspection."""
    for s, d, pair in graph.edges():
        out.write(
            f"{graph.vertices[s]},{graph.vertices[d]},{pair.src_port},{pair.dst_port}\n"
        )
