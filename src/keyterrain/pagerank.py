"""PageRank iterations, per-port-pair damping tables, and threshold classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .flows import PortPair
from .graph import StaticGraph

DEFAULT_DAMPING = 0.85


@dataclass
class DampingTable:
    """Damping factor per port pair, with a fallback for pairs never seen.

    Lookup resolves the stored value first, then ``default_factor``.
    """

    factors: dict[PortPair, float] = field(default_factory=dict)
    default_factor: float = DEFAULT_DAMPING

    def __post_init__(self):
        if not 0.0 <= self.default_factor <= 1.0:
            raise ValueError(f"default factor out of [0, 1]: {self.default_factor}")
        for pair, value in self.factors.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"factor for {tuple(pair)} out of [0, 1]: {value}")

    def lookup(self, pair: PortPair) -> float:
        return self.factors.get(pair, self.default_factor)

    def with_factor(self, pair: PortPair, value: float) -> "DampingTable":
        """New table with one factor replaced; the original is untouched."""
        updated = dict(self.factors)
        updated[PortPair(*pair)] = value
        return DampingTable(updated, self.default_factor)

    def copy(self) -> "DampingTable":
        return DampingTable(dict(self.factors), self.default_factor)


def write_damping_table(table: DampingTable, out: IO[str]) -> None:
    """Serialize as a ``default,<value>`` line plus sorted ``src,dst,factor`` lines.

    Floats are written with repr, so save/load round-trips exactly and equal
    tables always produce byte-identical files.
    """
    out.write(f"default,{table.default_factor!r}\n")
    for pair in sorted(table.factors):
        out.write(f"{pair.src_port},{pair.dst_port},{table.factors[pair]!r}\n")


def save_damping_table(table: DampingTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_damping_table(table, fh)


def _table_port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise ValueError(f"port out of range: {value}")
    return value


def read_damping_table(lines: Iterable[str]) -> DampingTable:
    factors: dict[PortPair, float] = {}
    default = DEFAULT_DAMPING
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            if parts[0] == "default":
                if len(parts) != 2:
                    raise ValueError("default line needs exactly one value")
                default = float(parts[1])
            elif len(parts) == 3:
                pair = PortPair(_table_port(parts[0]), _table_port(parts[1]))
                factors[pair] = float(parts[2])
            else:
                raise ValueError("expected 'src_port,dst_port,factor' or 'default,value'")
        except ValueError as exc:
            raise ValueError(f"damping table line {line_no}: {exc}") from None
    return DampingTable(factors, default)


def load_damping_table(path) -> DampingTable:
    with open(path, encoding="utf-8") as fh:
        return read_damping_table(fh)


@dataclass
class ConvergenceResult:
    scores: np.ndarray
    converged: bool
    iterations: int


def init_scores(graph: StaticGraph) -> np.ndarray:
    """Uniform initial vector: every vertex starts at 1/n."""
    if graph.n == 0:
        raise ValueError("graph has no vertices")
    return np.full(graph.n, 1.0 / graph.n)


def _check_prev(graph: StaticGraph, prev: np.ndarray) -> np.ndarray:
    prev = np.asarray(prev, dtype=float)
    if prev.shape != (graph.n,):
        raise ValueError(f"score vector length {prev.shape} does not match n={graph.n}")
    return prev


def default_iteration(graph: StaticGraph, prev: np.ndarray, damping: float) -> np.ndarray:
    """One step of the classic iteration with a single shared damping factor.

    Dangling vertices contribute nothing, so total mass may drop below one;
    no teleport redistribution is applied.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping out of [0, 1]: {damping}")
    prev = _check_prev(graph, prev)
    per_edge = prev[graph.edge_src] / graph.out_degree[graph.edge_src]
    incoming = np.bincount(graph.edge_dst, weights=per_edge, minlength=graph.n)
    return (1.0 - damping) / graph.n + damping * incoming


def edge_factor_values(graph: StaticGraph, table: DampingTable) -> np.ndarray:
    """Resolved damping factor for every edge, in stored edge order."""
    if not graph.pairs:
        return np.zeros(0)
    per_pair = np.fromiter(
        (table.lookup(pair) for pair in graph.pairs), dtype=float, count=len(graph.pairs)
    )
    return per_pair[graph.edge_pair_id]


def adjusted_iteration(
    graph: StaticGraph, prev: np.ndarray, table: DampingTable
) -> np.ndarray:
    """One step with per-edge damping factors.

    Each edge's pushed quantity is computed once and enters the total twice,
    positively at the destination and negatively at the source, so the output
    sums to one whenever the input does (vertices without outgoing edges
    simply surrender nothing). Scores may legitimately go negative and are
    never clamped; clamping would break that cancellation.
    """
    prev = _check_prev(graph, prev)
    n = graph.n
    factors = edge_factor_values(graph, table)
    push = factors * prev[graph.edge_src] / graph.out_degree[graph.edge_src]
    incoming = np.bincount(graph.edge_dst, weights=push, minlength=n)
    surrendered = np.bincount(graph.edge_src, weights=push, minlength=n)
    return 1.0 / n - surrendered + incoming


def _converge(graph: StaticGraph, step, tolerance: float, max_iters: int) -> ConvergenceResult:
    """The one convergence loop: apply ``step`` from the uniform vector until
    the L1 change drops below ``tolerance`` or ``max_iters`` is reached."""
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    scores = init_scores(graph)
    for i in range(1, max_iters + 1):
        nxt = step(scores)
        delta = float(np.sum(np.abs(nxt - scores)))
        scores = nxt
        if delta < tolerance:
            return ConvergenceResult(scores, True, i)
    return ConvergenceResult(scores, False, max_iters)


def run_to_convergence(
    graph: StaticGraph,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = 1e-9,
    max_iters: int = 100,
) -> ConvergenceResult:
    """Iterate default_iteration from the uniform vector until the L1 change
    drops below ``tolerance`` or ``max_iters`` is reached.

    Non-convergence is reported through the ``converged`` flag, not an error.
    """
    return _converge(
        graph, lambda prev: default_iteration(graph, prev, damping), tolerance, max_iters
    )


def run_adjusted_to_convergence(
    graph: StaticGraph,
    table: DampingTable,
    tolerance: float = 1e-9,
    max_iters: int = 100,
) -> ConvergenceResult:
    """Convergence driver for the per-edge-factor iteration (same stop rule)."""
    return _converge(
        graph, lambda prev: adjusted_iteration(graph, prev, table), tolerance, max_iters
    )


def classify(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of the vertices whose score strictly exceeds the 1/n
    criticality threshold; the one place that rule is decided."""
    scores = np.asarray(scores)
    if scores.size == 0:
        raise ValueError("empty score vector")
    return scores > 1.0 / scores.size
