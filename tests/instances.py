"""Shared builders: small graphs, planted flow sets, and independent oracles."""

from __future__ import annotations

import random

import numpy as np

from keyterrain.flows import FlowRecord, PortPair
from keyterrain.graph import StaticGraph, build_static_graph
from keyterrain.labels import AddressSet
from keyterrain.pagerank import DampingTable

PORT_POOL = (22, 53, 80, 443, 8080, 50000)


def flow(src, dst, sport, dport, start=0, end=None):
    return FlowRecord(src, dst, sport, dport, start, start if end is None else end)


def graph_of(edges) -> StaticGraph:
    """Build a StaticGraph from (src_ip, dst_ip, (sport, dport)) triples."""
    records = [
        FlowRecord(s, d, p[0], p[1], i, i) for i, (s, d, p) in enumerate(edges)
    ]
    retained = {PortPair(*p) for _, _, p in edges}
    return build_static_graph(records, retained)


def ip_of(i: int) -> str:
    return f"10.50.{i // 256}.{i % 256}"


def random_multigraph(rng: random.Random, max_n=50, max_edges=500) -> StaticGraph:
    """Random directed multigraph with self-loops and parallel edges allowed."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (rng.choice(PORT_POOL), rng.choice(PORT_POOL))
        edges.append((ip_of(u), ip_of(v), pair))
    return graph_of(edges)


def random_damping_table(rng: random.Random, graph: StaticGraph) -> DampingTable:
    """Random factors (off-grid) for a random subset of the graph's pairs."""
    factors = {p: rng.random() for p in graph.pairs if rng.random() < 0.7}
    return DampingTable(factors, default_factor=rng.random())


def without_dangling(graph_edges, n, rng: random.Random):
    """Append one outgoing edge for every vertex that has none."""
    edges = list(graph_edges)
    with_out = {u for u, _ in edges}
    for u in range(n):
        if u not in with_out:
            edges.append((u, rng.randrange(n)))
    return edges


def dense_power_iteration(n, edges, damping, tolerance, max_iters):
    """Plain-Python dense-matrix fixed-point iteration of the classic rule.

    Independent of the library path on purpose: dense row-major matrix,
    list arithmetic, no numpy.
    """
    outdeg = [0] * n
    for u, _ in edges:
        outdeg[u] += 1
    matrix = [[0.0] * n for _ in range(n)]
    for u, v in edges:
        matrix[v][u] += 1.0 / outdeg[u]
    scores = [1.0 / n] * n
    for _ in range(max_iters):
        nxt = [
            (1.0 - damping) / n
            + damping * sum(matrix[v][u] * scores[u] for u in range(n))
            for v in range(n)
        ]
        delta = sum(abs(a - b) for a, b in zip(nxt, scores))
        scores = nxt
        if delta < tolerance:
            break
    return scores


def adjusted_closed_form(graph: StaticGraph, prev, factor: float):
    """Independent evaluation of one uniform-factor adjusted step.

    Dict-based adjacency walk; vertices without outgoing edges surrender
    nothing (empty sum).
    """
    n = graph.n
    outdeg = [0] * n
    incoming = [[] for _ in range(n)]
    for s, d, _ in graph.edges():
        outdeg[s] += 1
        incoming[d].append(s)
    result = []
    for v in range(n):
        surrendered = factor * prev[v] if outdeg[v] > 0 else 0.0
        gained = sum(factor * prev[u] / outdeg[u] for u in incoming[v])
        result.append(1.0 / n - surrendered + gained)
    return result


STAR_SERVER = "10.0.0.1"
STAR_CLIENTS = [f"10.0.1.{i}" for i in range(1, 21)]
STAR_SINK = "10.0.2.1"
STAR_PAIR_IN = PortPair(50000, 443)


def star_instance():
    """20 clients and 1 labeled-critical server, with chatter that misleads
    the default factors.

    Every client talks to the server on one shared port pair and the server
    answers, so the server starts just below the 1/n threshold until its
    inbound factor is raised; the clients also pour noise flows into an
    unlabeled sink that starts far above it. Returns (records, labels).
    """
    records = []
    ts = 0
    for client in STAR_CLIENTS:
        records.append(FlowRecord(client, STAR_SERVER, 50000, 443, ts, ts))
        ts += 1
        records.append(FlowRecord(STAR_SERVER, client, 443, 50000, ts, ts))
        ts += 1
        for _ in range(20):
            records.append(FlowRecord(client, STAR_SINK, 51000, 9999, ts, ts))
            ts += 1
    return records, AddressSet([STAR_SERVER])


def plain_star_instance():
    """20 clients flowing into 1 labeled server on one pair; perfectly
    classified by the default factors already (loop-guard case)."""
    records = [
        FlowRecord(client, STAR_SERVER, 50000, 443, i, i)
        for i, client in enumerate(STAR_CLIENTS)
    ]
    return records, AddressSet([STAR_SERVER])


RING5_IPS = [f"10.9.0.{i}" for i in range(5)]
RING5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 0), (2, 0), (3, 0), (4, 0)]


def ring5_flow(u, v, ts):
    return FlowRecord(RING5_IPS[u], RING5_IPS[v], 1000 + u, 2000 + v, ts, ts)


def ring5_graph() -> StaticGraph:
    """Strongly connected 5-vertex graph with vertex 0 as the clear hub."""
    records = [ring5_flow(u, v, i) for i, (u, v) in enumerate(RING5_EDGES)]
    return build_static_graph(records, {r.port_pair() for r in records})


def ring5_stream(repetitions=200, seed=7):
    """Shuffled repetitions of the ring edge set as a flow list."""
    rng = random.Random(seed)
    flows = []
    ts = 0
    for _ in range(repetitions):
        batch = list(RING5_EDGES)
        rng.shuffle(batch)
        for u, v in batch:
            flows.append(ring5_flow(u, v, ts))
            ts += 1
    return flows


def tangled_instance(seed=11, n=40, flow_count=600):
    """Seeded skewed traffic whose labels the learner does not fit.

    Destinations are drawn with weight 1/(rank+1) over a small port pool, so
    a few hosts carry most of the inbound flows; the labels mix heavy and
    light hosts, so the learner stays below F1 1 and runs to its iteration
    cap. Returns (records, labels).
    """
    rng = random.Random(seed)
    ips = [ip_of(i) for i in range(n)]
    weights = [1.0 / (i + 1) for i in range(n)]
    records = []
    for ts in range(flow_count):
        src = rng.choice(ips)
        dst = rng.choices(ips, weights)[0]
        sport = rng.choice(PORT_POOL)
        dport = rng.choice(PORT_POOL)
        records.append(FlowRecord(src, dst, sport, dport, ts, ts))
    labels = AddressSet([ips[i] for i in (0, 2, 5, 9, 17, 23, 31)])
    return records, labels


def conflict_pair_by_index_set(graph: StaticGraph, misclassified: set, rng: random.Random):
    """Conflict-pair draw over a set of vertex indices via ``np.isin``.

    Independent of the library's mask path: the misclassified set is sorted
    and matched against each edge endpoint array, incoming edges first.
    """
    targets = np.fromiter(sorted(misclassified), dtype=np.int64, count=len(misclassified))
    for endpoint in (graph.edge_dst, graph.edge_src):
        mask = np.isin(endpoint, targets)
        if mask.any():
            candidates = graph.edge_pair_id[mask]
            return graph.pairs[int(candidates[rng.randrange(len(candidates))])]
    return rng.choice(graph.pairs)
