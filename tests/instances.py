"""Shared builders: small graphs, planted flow sets, and independent oracles."""

from __future__ import annotations

import csv
import ipaddress
import random
from collections import Counter
from itertools import count
from operator import itemgetter

import numpy as np

from keyterrain.flows import (
    CANONICAL_COLUMNS,
    FlowParseError,
    FlowRecord,
    PortPair,
    _parse_port,
    _parse_timestamp,
    dedupe_flows,
)
from keyterrain.graph import (
    GraphBuildError,
    StaticGraph,
    build_static_graph,
    count_port_pairs,
    filter_port_pairs,
)
from keyterrain.labels import AddressSet
from keyterrain.metrics import mask_f1
from keyterrain.pagerank import DampingTable, adjusted_iteration, classify

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


def vertex_of(graph: StaticGraph, ip: str) -> int:
    """The vertex id of ``ip`` in ``graph``."""
    return graph.vertices.index(ip)


def port_pairs_of(records) -> set[PortPair]:
    """Every port pair the records carry: the retained set that keeps them all."""
    return {PortPair(r.src_port, r.dst_port) for r in records}


def edge_triples(graph: StaticGraph) -> list[tuple[int, int, PortPair]]:
    """Edge triples (src_vertex, dst_vertex, pair) in stored order."""
    pairs = [graph.pairs[p] for p in graph.edge_pair_id.tolist()]
    return list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist(), pairs))


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
    for s, d, _ in edge_triples(graph):
        outdeg[s] += 1
        incoming[d].append(s)
    result = []
    for v in range(n):
        surrendered = factor * prev[v] if outdeg[v] > 0 else 0.0
        gained = sum(factor * prev[u] / outdeg[u] for u in incoming[v])
        result.append(1.0 / n - surrendered + gained)
    return result


def adjusted_linear_part(graph: StaticGraph, table: DampingTable) -> np.ndarray:
    """Dense M of the adjusted step written as x -> 1/n + Mx, from the edge list.

    Each edge u -> v with factor f moves f/out_degree(u) of u's score: it
    adds that share at row v of column u and takes it off the diagonal, so a
    self-loop adds and removes the same share.
    """
    triples = edge_triples(graph)
    outdeg = Counter(s for s, _, _ in triples)
    m = np.zeros((graph.n, graph.n))
    for s, d, pair in triples:
        share = table.lookup(pair) / outdeg[s]
        m[d, s] += share
        m[s, s] -= share
    return m


def adjusted_fixed_point(graph: StaticGraph, table: DampingTable) -> np.ndarray:
    """The adjusted step's unique fixed point, by a dense solve of (I - M)x = 1/n."""
    n = graph.n
    return np.linalg.solve(np.eye(n) - adjusted_linear_part(graph, table), np.full(n, 1.0 / n))


def step_rounding(graph: StaticGraph, *vectors) -> float:
    """Generous L1 bound on the rounding error of one adjusted or half step
    from, or of summing, vectors no larger than ``vectors`` (L1): each vertex
    sums 1/n and at most max_degree pushes, and a sum of n terms rounds each
    term up to n times."""
    size = max(float(np.abs(v).sum()) for v in vectors)
    return 4 * (graph.max_degree + graph.n + 3) * np.finfo(float).eps * (1.0 + 2.0 * size)


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
    return build_static_graph(records, port_pairs_of(records))


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


def grid_f1s_by_full_recompute(graph, scores, table, pair, label_mask, grid):
    """Trial F1 per grid value the direct way: one full adjusted iteration
    from ``scores`` per value, with the pair's factor replaced."""
    return [
        mask_f1(
            classify(adjusted_iteration(graph, scores, table.with_factor(pair, value))),
            label_mask,
        )
        for value in grid
    ]


def _canonical_ip_by_stripped_text(text: str, cache: dict) -> str:
    text = text.strip()
    try:
        return cache[text]
    except KeyError:
        pass
    try:
        canonical = str(ipaddress.ip_address(text))
    except ValueError:
        raise ValueError(f"bad IP address {text!r}") from None
    cache[text] = canonical
    return canonical


def parse_flows_by_helpers(lines, columns=None, on_error="abort", stats=None):
    """The flow parser's row loop the direct way: every field through its
    helper, the IP cache keyed on stripped text, the line number read on
    every row."""
    if on_error not in ("abort", "skip"):
        raise ValueError(f"on_error must be 'abort' or 'skip', got {on_error!r}")
    reader = csv.reader(lines)
    try:
        header = [name.strip() for name in next(reader)]
    except StopIteration:
        raise FlowParseError(1, "missing header row") from None
    mapping = dict(columns or {})
    positions = []
    for semantic in CANONICAL_COLUMNS:
        name = mapping.get(semantic, semantic)
        try:
            positions.append(header.index(name))
        except ValueError:
            raise FlowParseError(1, f"missing column {name!r}") from None
    i_start, i_end, i_src, i_dst, i_sport, i_dport = positions

    arity = len(header)
    ip_cache: dict[str, str] = {}
    for row in reader:
        line_no = reader.line_num
        if stats is not None:
            stats.rows += 1
        try:
            if len(row) != arity:
                raise ValueError(f"expected {arity} fields, got {len(row)}")
            record = FlowRecord(
                src_ip=_canonical_ip_by_stripped_text(row[i_src], ip_cache),
                dst_ip=_canonical_ip_by_stripped_text(row[i_dst], ip_cache),
                src_port=_parse_port(row[i_sport]),
                dst_port=_parse_port(row[i_dport]),
                start_ts=_parse_timestamp(row[i_start]),
                end_ts=_parse_timestamp(row[i_end]),
            )
        except ValueError as exc:
            if on_error == "abort":
                raise FlowParseError(line_no, str(exc)) from exc
            if stats is not None:
                stats.record_error(line_no, str(exc))
            continue
        if stats is not None:
            stats.parsed += 1
        yield record


# canonical CSV column order (CANONICAL_COLUMNS) from FlowRecord field order
_CSV_ORDER = itemgetter(4, 5, 0, 1, 2, 3)


def write_flows_by_csv_writer(records, out) -> int:
    """The flow writer with every row through ``csv.writer``; returns the count."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    # zip draws from the tally only after a record, so it stops at their count
    tally = count()
    writer.writerows(_CSV_ORDER(rec) for rec, _ in zip(records, tally))
    return next(tally)


def count_port_pairs_by_records(records):
    """Port-pair census the direct way: one PortPair per record, counted one
    at a time. Returns (counts, total_flows)."""
    counts = Counter()
    total = 0
    for rec in records:
        counts[PortPair(rec.src_port, rec.dst_port)] += 1
        total += 1
    return dict(counts), total


def static_graph_by_triples(records, retained):
    """The learning graph the direct way, as plain lists.

    A vertex dict plus a parallel vertex list number the IPs, surviving
    records become (src, dst, PortPair) triples, and the stored edge order is
    a Python sort of those triples. Returns a dict with the graph's vertex,
    pair, edge-column and out-degree lists and the edge-list text.
    """
    vertex_index: dict[str, int] = {}
    vertices: list[str] = []
    triples = []
    for rec in records:
        pair = PortPair(rec.src_port, rec.dst_port)
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
        raise GraphBuildError("no flows carry a retained port pair")
    triples.sort()
    pairs = sorted({pair for _, _, pair in triples})
    out_degree = [0] * len(vertices)
    for src, _, _ in triples:
        out_degree[src] += 1
    return {
        "vertices": vertices,
        "pairs": pairs,
        "edge_src": [s for s, _, _ in triples],
        "edge_dst": [d for _, d, _ in triples],
        "edge_pair_id": [pairs.index(p) for _, _, p in triples],
        "out_degree": out_degree,
        "edge_list": "".join(
            f"{vertices[s]},{vertices[d]},{p[0]},{p[1]}\n" for s, d, p in triples
        ),
    }


def learning_graph_by_rows(rows, split, fraction):
    """The learning graph the row way: every row held as a tuple, the prefix
    cut from the list, ``dedupe_flows``, the census, ``filter_port_pairs``,
    then one id per IP in first-seen order and one edge per retained row.
    Returns (graph, info) as ``graph.read_learning_graph`` does."""
    records = list(rows)
    total = len(records)
    prefix = int(total * split)
    del records[prefix:]
    records = list(dedupe_flows(records))
    retained = filter_port_pairs(count_port_pairs(records), fraction)
    ids: dict[str, int] = {}
    edges = []
    for src_ip, dst_ip, src_port, dst_port, _, _ in records:
        if (src_port, dst_port) in retained:
            src = ids.setdefault(src_ip, len(ids))
            dst = ids.setdefault(dst_ip, len(ids))
            edges.append((src, dst, (src_port << 16) | dst_port))
    if not edges:
        raise GraphBuildError(
            "no flows carry a retained port pair; the learning graph would be empty"
        )
    graph = StaticGraph(ids, *zip(*edges))
    info = {
        "flows_total": total,
        "flows_learning": prefix,
        "flows_after_dedupe": len(records),
        "retained_pairs": len(retained),
        "vertices": graph.n,
        "edges": graph.edge_count,
    }
    return graph, info


def stream_masses_by_rule(records, table: DampingTable, beta: float):
    """The stream update rule written out in its original order, on plain
    lists: (vertices, rank masses, active masses) after ``records``."""
    index: dict[str, int] = {}
    rank: list[float] = []
    active: list[float] = []
    for rec in records:
        for ip in (rec.src_ip, rec.dst_ip):
            if ip not in index:
                index[ip] = len(index)
                rank.append(0.0)
                active.append(0.0)
        u, v = index[rec.src_ip], index[rec.dst_ip]
        d = table.factors.get((rec.src_port, rec.dst_port), table.default_factor)
        rank[u] += 1.0 - d
        active[u] += 1.0 - d
        moving = active[u]
        rank[v] += d * moving
        active[v] += d * beta * moving
        # reread instead of reusing `moving`: v aliases u on self-flows
        active[u] = (1.0 - beta) * active[u]
    return list(index), rank, active


class AddressSetByIpaddress:
    """AddressSet membership the direct way: entries parsed as AddressSet
    parses them, and every query through ``ipaddress``, uncached, tested
    against each exact address and then each prefix in turn."""

    def __init__(self, entries):
        self.addresses = set()
        self.networks = []
        for raw in entries:
            entry = raw.strip()
            if not entry:
                continue
            try:
                self.addresses.add(str(ipaddress.ip_address(entry)))
            except ValueError:
                self.networks.append(ipaddress.ip_network(entry, strict=False))

    def __contains__(self, ip) -> bool:
        addr = ipaddress.ip_address(ip)
        return str(addr) in self.addresses or any(addr in net for net in self.networks)
