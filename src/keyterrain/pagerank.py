"""PageRank iterations, per-port-pair damping tables, and threshold classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .constants import DEFAULT_DAMPING, DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE
from .flows import PortPair, _parse_port
from .graph import StaticGraph


@dataclass
class DampingTable:
    """Damping factor per port pair, with a fallback for pairs never seen.

    A pair is two int ports in 0..65535, as a flow file holds them. Lookup
    resolves the stored value first, then ``default_factor``.
    """

    factors: dict[PortPair, float] = field(default_factory=dict)
    default_factor: float = DEFAULT_DAMPING

    def __post_init__(self):
        check_damping(self.default_factor)
        for pair, value in self.factors.items():
            # plain Python: with_factor checks the whole table on every commit
            src_port, dst_port = pair
            if not (type(src_port) is type(dst_port) is int
                    and 0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
                raise ValueError(f"port pair {tuple(pair)}: ports must be ints in 0..65535")
            try:
                check_damping(value)
            except ValueError as exc:
                raise ValueError(f"factor for {tuple(pair)}: {exc}") from None

    def lookup(self, pair: PortPair) -> float:
        return self.factors.get(pair, self.default_factor)

    def with_factor(self, pair: PortPair, value: float) -> "DampingTable":
        """New table with one factor replaced; the original is untouched."""
        updated = dict(self.factors)
        updated[PortPair(*pair)] = value
        return DampingTable(updated, self.default_factor)


def write_damping_table(table: DampingTable, out: IO[str]) -> None:
    """Serialize as a ``default,<value>`` line plus sorted ``src,dst,factor`` lines.

    Floats are written with repr, so save/load round-trips exactly and equal
    tables always produce byte-identical files.
    """
    out.write(f"default,{table.default_factor!r}\n")
    for src, dst in sorted(table.factors):
        out.write(f"{src},{dst},{table.factors[src, dst]!r}\n")


def save_damping_table(table: DampingTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_damping_table(table, fh)


def read_damping_table(lines: Iterable[str]) -> DampingTable:
    """Parse ``write_damping_table`` output. A malformed line, a factor
    outside [0, 1] and a repeated pair or default line are rejected with
    their line number."""
    factors: dict[PortPair, float] = {}
    default = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        try:
            if parts[0] == "default":
                if len(parts) != 2:
                    raise ValueError("default line needs exactly one value")
                if default is not None:
                    raise ValueError("repeated default line")
                default = float(parts[1])
                check_damping(default)
            elif len(parts) == 3:
                pair = PortPair(_parse_port(parts[0]), _parse_port(parts[1]))
                if pair in factors:
                    raise ValueError(f"repeated pair {tuple(pair)}")
                factors[pair] = float(parts[2])
                check_damping(factors[pair])
            else:
                raise ValueError("expected 'src_port,dst_port,factor' or 'default,value'")
        except ValueError as exc:
            raise ValueError(f"damping table line {line_no}: {exc}") from None
    return DampingTable(factors, DEFAULT_DAMPING if default is None else default)


def load_damping_table(path) -> DampingTable:
    with open(path, encoding="utf-8") as fh:
        return read_damping_table(fh)


@dataclass
class ConvergenceResult:
    """Where a convergence run stopped: the scores, whether the last L1 change
    ``delta`` fell below the tolerance, and the steps taken. ``delta`` is
    ``inf`` when no step was taken."""

    scores: np.ndarray
    converged: bool
    iterations: int
    delta: float


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


def check_damping(damping: float) -> None:
    """Reject a damping factor outside [0, 1]: the one statement of that rule."""
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping out of [0, 1]: {damping}")


def default_iteration(graph: StaticGraph, prev: np.ndarray, damping: float) -> np.ndarray:
    """One step of the classic iteration with a single shared damping factor.

    Dangling vertices contribute nothing, so total mass may drop below one;
    no teleport redistribution is applied.
    """
    check_damping(damping)
    prev = _check_prev(graph, prev)
    per_edge = prev[graph.edge_src] / graph.out_degree[graph.edge_src]
    incoming = np.bincount(graph.edge_dst, weights=per_edge, minlength=graph.n)
    return (1.0 - damping) / graph.n + damping * incoming


def edge_factor_values(graph: StaticGraph, table: DampingTable) -> np.ndarray:
    """Resolved damping factor for every edge, in stored edge order."""
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
    n, src = graph.n, graph.edge_src
    push = edge_factor_values(graph, table) * prev[src] / graph.out_degree[src]
    incoming = np.bincount(graph.edge_dst, weights=push, minlength=n)
    surrendered = np.bincount(src, weights=push, minlength=n)
    return 1.0 / n - surrendered + incoming


def check_stop_rule(tolerance: float, max_iters: int) -> None:
    """Reject a stop rule that cannot mean anything: a tolerance that is not
    a finite positive number, or a negative iteration cap."""
    if not 0.0 < tolerance < np.inf:  # also false for nan
        raise ValueError(f"tolerance must be a finite positive number, got {tolerance}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")


def _converge(graph: StaticGraph, step, tolerance: float, max_iters: int) -> ConvergenceResult:
    """The one convergence loop: apply ``step`` from the uniform vector until
    the L1 change drops below ``tolerance`` or ``max_iters`` is reached."""
    check_stop_rule(tolerance, max_iters)
    scores = init_scores(graph)
    delta = np.inf
    for i in range(1, max_iters + 1):
        nxt = step(scores)
        delta = float(np.sum(np.abs(nxt - scores)))
        scores = nxt
        if delta < tolerance:
            return ConvergenceResult(scores, True, i, delta)
    return ConvergenceResult(scores, False, max_iters, delta)


def run_to_convergence(
    graph: StaticGraph,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ConvergenceResult:
    """Iterate default_iteration from the uniform vector until the L1 change
    drops below ``tolerance`` or ``max_iters`` is reached.

    Non-convergence is reported through the ``converged`` flag, not an error.
    """
    return _converge(
        graph, lambda prev: default_iteration(graph, prev, damping), tolerance, max_iters
    )


def _linear_part(graph: StaticGraph, table: DampingTable):
    """M of the plain adjusted step x -> 1/n + Mx, as one weighted edge per
    distinct (source, destination) pair of different vertices, plus the
    share each vertex pushes out: returns ``(src, dst, weight, pushed)``.

    A weight is the summed share f/out_degree(source) of the pair's parallel
    edges, and column u of M holds the weights out of u, minus their sum
    ``pushed[u]`` on the diagonal. A self-loop pushes a share back to its own
    source, so it moves nothing and is left out.
    """
    shares = edge_factor_values(graph, table) / graph.out_degree[graph.edge_src]
    moving = graph.edge_src != graph.edge_dst
    keys, pair_of_edge = np.unique(
        graph.edge_src[moving] * graph.n + graph.edge_dst[moving], return_inverse=True
    )
    src, dst = np.divmod(keys, graph.n)
    weight = np.bincount(pair_of_edge, weights=shares[moving], minlength=len(keys))
    return src, dst, weight, np.bincount(src, weights=weight, minlength=graph.n)


def run_adjusted_to_convergence(
    graph: StaticGraph,
    table: DampingTable,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ConvergenceResult:
    """Fixed point of the per-edge-factor iteration, by contracting half steps
    x -> (x + adjusted_iteration(x)) / 2 under the same stop rule.

    Written as x -> 1/n + Mx, the plain step need not converge: M has
    eigenvalues down to -2 max r_u (``contraction_bound``), -1.7 on an A<->B
    pair at 0.85, so its iterates oscillate and run away. The half step has
    the same fixed point, and each column of its linear part (I + M)/2 has
    absolute sum exactly 1/2, self-loops included, for every table. So:

    - the L1 change at least halves at each step (up to rounding);
    - a run whose first change is d1 >= tolerance stops by step
      floor(log2(d1 / tolerance)) + 2;
    - a converged vector lies within its last change, below ``tolerance``
      (L1), of the unique fixed point, the solution of (I - M)x = 1/n, plus
      twice the rounding error of one step.

    The table is resolved once per run into M with parallel edges merged
    (``_linear_part``), so each step sums one push per distinct neighbour
    rather than one per edge. That keeps the rounding error of a hub with
    thousands of parallel edges about a hundred times below that of
    ``adjusted_iteration``, whose error alone can keep the change above a
    tolerance of 1e-15.
    """
    src, dst, weight, pushed = _linear_part(graph, table)
    n = graph.n

    def half_step(prev: np.ndarray) -> np.ndarray:
        incoming = np.bincount(dst, weights=weight * prev[src], minlength=n)
        return 0.5 * (prev + (1.0 / n - pushed * prev + incoming))

    return _converge(graph, half_step, tolerance, max_iters)


def contraction_bound(graph: StaticGraph, table: DampingTable) -> float:
    """The column norm ||M||_1 = 2 max r_u of the plain adjusted step
    x -> 1/n + Mx, where r_u is the factor share vertex u pushes to other
    vertices. It bounds every eigenvalue of M, so at most 1 means even the
    plain step cannot diverge."""
    return 2.0 * float(_linear_part(graph, table)[3].max(initial=0.0))


def classify(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of the vertices whose score strictly exceeds the 1/n
    criticality threshold; the one place that rule is decided."""
    scores = np.asarray(scores)
    if scores.size == 0:
        raise ValueError("empty score vector")
    return scores > 1.0 / scores.size
