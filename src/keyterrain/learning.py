"""Damping-factor learning: hill climbing over a factor grid with random-walk escapes.

The search co-evolves a score vector and a factor table. Each loop iteration
picks a port pair on an edge touching a misclassified vertex, either assigns
it a random factor (with a small probability) or grid-searches it, and then
commits one adjusted iteration. The best F1 seen and the factors that
produced it are the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count, takewhile

import numpy as np

from .constants import DEFAULT_DAMPING, HEURISTICS, LearnConfig, check_grid_step
from .flows import PortPair
from .graph import StaticGraph
from .labels import AddressSet
from .metrics import mask_f1
from .pagerank import DampingTable, adjusted_iteration, classify, init_scores


@dataclass
class LearnResult:
    best_f1: float
    best_factors: DampingTable
    iterations_run: int
    f1_trace: list[float] = field(default_factory=list)


def _evaluate(scores: np.ndarray, label_mask: np.ndarray) -> tuple[float, np.ndarray]:
    predicted = classify(scores)
    return mask_f1(predicted, label_mask), predicted != label_mask


def evaluate_classification(
    scores: np.ndarray, graph: StaticGraph, labels: AddressSet
) -> tuple[float, np.ndarray]:
    """F1 of the critical class plus a boolean mask of misclassified vertices.

    A vertex is predicted critical when ``classify`` marks it (score strictly
    above 1/n); F1 is 0 when no vertex is a true positive.
    """
    if not labels:
        raise ValueError("labels are empty")
    return _evaluate(np.asarray(scores, dtype=float), labels.mask(graph.vertices))


def choose_conflict_port_pair(
    graph: StaticGraph, misclassified: np.ndarray, rng: random.Random
) -> PortPair:
    """Uniform draw over the multiset of port pairs on edges of misclassified vertices.

    ``misclassified`` is a boolean mask over the graph's vertices. Incoming
    edges are preferred; outgoing edges are the fallback; when the
    misclassified vertices have no edges at all, the draw is uniform over all
    retained pairs.
    """
    if graph.edge_count == 0:
        raise ValueError("graph has no edges")
    misclassified = np.asarray(misclassified, dtype=bool)
    if misclassified.shape != (graph.n,):
        raise ValueError(
            f"misclassified mask shape {misclassified.shape} does not match n={graph.n}"
        )
    for endpoint in (graph.edge_dst, graph.edge_src):
        mask = misclassified[endpoint]
        if mask.any():
            candidates = graph.edge_pair_id[mask]
            return graph.pairs[int(candidates[rng.randrange(len(candidates))])]
    return rng.choice(graph.pairs)


def random_walk_step(
    table: DampingTable, pair: PortPair, rng: random.Random
) -> DampingTable:
    """Replace one pair's factor with a uniform draw from [0, 1); nothing else changes."""
    return table.with_factor(pair, rng.random())


def grid_values(step: float = LearnConfig.grid_step) -> list[float]:
    """Evenly stepped factor grid over [0, 1]; both endpoints always included."""
    check_grid_step(step)
    below_one = takewhile(lambda v: v < 1.0, (round(i * step, 10) for i in count()))
    return [*below_one, 1.0]


# Rounding slack of a grid estimate, in eps per edge term (see _affine_trial).
_MARGIN_ULPS = 4.0


def _affine_trial(
    graph: StaticGraph, scores: np.ndarray, table: DampingTable, pair: PortPair
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One adjusted iteration from ``scores`` at ``table`` (``base``), and the
    vertices the pair's edges touch with their ``delta`` and ``margin``.

    Only the pair's edges change between trials, so a vertex none of them
    touches sums the same pushes in the same order at every factor and keeps
    ``base`` bitwise. At factor ``v`` a touched vertex scores
    ``base + (v - f_old) * delta`` to within half of ``margin``, where
    ``delta`` is its incoming minus its surrendered share over those edges.
    """
    n = graph.n
    base = adjusted_iteration(graph, scores, table)
    pair_id = next((i for i, p in enumerate(graph.pairs) if p == pair), -1)
    on_pair = np.flatnonzero(graph.edge_pair_id == pair_id)
    src, dst = graph.edge_src[on_pair], graph.edge_dst[on_pair]
    share = scores[src] / graph.out_degree[src]
    touched = np.flatnonzero(np.bincount(np.concatenate((src, dst)), minlength=n))
    delta = (np.bincount(dst, share, n) - np.bincount(src, share, n))[touched]
    # With u = eps/2, a vertex x with k in- plus out-edges gets an estimate
    # within (3k + 11)u * A of its exact trial score, where A = 1/n + |p_x| +
    # the sum of |p_s / d_s| over x's in-edges. As
    #   k <= max_degree  and  A <= 1/n + 2 * |p|_1  (s has at most d_s edges into x),
    # that stays under half this margin. Taking 4 * A first makes the margin
    # inf or nan, forcing a recompute, once a sum could overflow. It is never
    # below x's own 4 * (k + 3) * eps * A, so it only adds recomputes, and it
    # grows loose once scores run away (|p|_1 >> 1).
    margin = (_MARGIN_ULPS * (1.0 / n + 2 * np.abs(scores).sum())) * (
        (graph.max_degree + 3) * np.finfo(float).eps
    )
    return base, touched, delta, margin


def _grid_f1s(
    graph: StaticGraph,
    scores: np.ndarray,
    table: DampingTable,
    pair: PortPair,
    label_mask: np.ndarray,
    grid: list[float],
) -> tuple[list[float], np.ndarray]:
    """F1 of each grid value for ``pair`` after one adjusted iteration from
    ``scores``, bit for bit what a full ``adjusted_iteration`` per value gives,
    and ``base``. Touched vertices take their ``_affine_trial`` estimate
    unless one lies within the margin of 1/n or is not finite; then the whole
    trial is recomputed with ``adjusted_iteration``.
    """
    threshold = 1.0 / graph.n
    base, touched, delta, margin = _affine_trial(graph, scores, table, pair)
    f_old = table.lookup(pair)
    start = base[touched]
    trial = base.copy()
    f1s = []
    for value in grid:
        estimate = start + (value - f_old) * delta
        if np.all(np.abs(estimate - threshold) > margin):
            trial[touched] = estimate
            scored = trial
        else:
            scored = adjusted_iteration(graph, scores, table.with_factor(pair, value))
        f1s.append(mask_f1(classify(scored), label_mask))
    return f1s, base


def _hill_climb(
    graph: StaticGraph,
    scores: np.ndarray,
    table: DampingTable,
    pair: PortPair,
    label_mask: np.ndarray,
    heuristic: str,
    current_f1: float,
    grid: list[float],
) -> tuple[DampingTable, np.ndarray]:
    """The table to commit, and one adjusted iteration from ``scores`` at the
    given ``table``; when that table is returned unchanged, the iteration is
    exactly the commit pass."""
    f1s, base = _grid_f1s(graph, scores, table, pair, label_mask, grid)
    best_f1 = max(f1s)
    allowable = [value for value, f1 in zip(grid, f1s) if f1 == best_f1]

    if best_f1 < current_f1:
        # only reachable when the current factor sits off-grid (random walk)
        return table, base
    improved = best_f1 > current_f1

    if heuristic == "maximum":
        committed = allowable[-1]
    elif heuristic == "minimum":
        if not improved:
            return table, base
        committed = allowable[0]
    elif heuristic == "average":
        committed = sum(allowable) / len(allowable)
    else:  # smallest_difference
        target = table.default_factor
        if improved:
            pool = allowable
        elif target in allowable:
            pool = [target]
        else:
            pool = allowable + [table.lookup(pair)]
        committed = min(pool, key=lambda v: (abs(v - target), -v))
    return table.with_factor(pair, committed), base


def hill_climb_step(
    graph: StaticGraph,
    scores: np.ndarray,
    table: DampingTable,
    pair: PortPair,
    labels: AddressSet,
    heuristic: str,
    current_f1: float,
    grid_step: float = LearnConfig.grid_step,
) -> DampingTable:
    """Grid-search one pair's factor and commit a value per the tie heuristic.

    Each grid value is scored by the F1 of one adjusted iteration started
    from ``scores``; the committed score state is never touched here. The
    whole grid costs about one full iteration: the trials differ only on the
    vertices the pair's edges touch, whose scores are affine in the factor
    (see ``_grid_f1s``), so a full iteration per value runs only when
    rounding could decide a vertex's class. On a strict
    improvement every heuristic commits from the best-scoring grid values
    (minimum takes the smallest, maximum the largest, average their mean,
    smallest_difference the one closest to the default factor, larger value
    on distance ties). When the whole grid only ties the current F1, maximum
    still rewrites, minimum keeps the current value, average commits the mean
    of the tied values, and smallest_difference falls back to the default
    factor when it is among them.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; use one of {HEURISTICS}")
    return _hill_climb(
        graph,
        np.asarray(scores, dtype=float),
        table,
        pair,
        labels.mask(graph.vertices),
        heuristic,
        current_f1,
        grid_values(grid_step),
    )[0]


def learn(
    graph: StaticGraph, labels: AddressSet, config: LearnConfig | None = None
) -> LearnResult:
    """Run the learning loop and return the best F1 with its factor table.

    Every retained pair starts at the default factor. After the first
    committed iteration the loop runs while F1 differs from 1 and the
    iteration counter has not passed max_iterations: draw a conflict pair,
    mutate its factor by random walk (with probability rw_probability) or
    hill climbing, commit one adjusted iteration, and record the best state.
    One seeded generator drives the conflict draw, the random-walk coin, and
    the random-walk value, in that order, so identical inputs give identical
    results.
    """
    config = config if config is not None else LearnConfig()
    if not labels:
        raise ValueError("labels are empty")
    rng = random.Random(config.seed)
    grid = grid_values(config.grid_step)
    label_mask = labels.mask(graph.vertices)

    factors = DampingTable(
        {pair: DEFAULT_DAMPING for pair in graph.pairs}, DEFAULT_DAMPING
    )
    scores = adjusted_iteration(graph, init_scores(graph), factors)
    f1, misclassified = _evaluate(scores, label_mask)
    trace = [f1]
    best_f1, best_factors = f1, factors

    iterations = 0
    while f1 != 1.0 and iterations <= config.max_iterations:
        pair = choose_conflict_port_pair(graph, misclassified, rng)
        if rng.random() > 1.0 - config.rw_probability:
            factors = random_walk_step(factors, pair, rng)
            scores = adjusted_iteration(graph, scores, factors)
        else:
            kept = factors
            factors, base = _hill_climb(
                graph, scores, factors, pair, label_mask, config.heuristic, f1, grid
            )
            # a kept table makes the commit pass the grid's own base pass
            scores = base if factors is kept else adjusted_iteration(graph, scores, factors)
        iterations += 1
        f1, misclassified = _evaluate(scores, label_mask)
        trace.append(f1)
        if f1 > best_f1:
            best_f1, best_factors = f1, factors
    return LearnResult(best_f1, best_factors, iterations, trace)
