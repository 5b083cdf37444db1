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

import numpy as np

from .flows import PortPair
from .graph import StaticGraph
from .labels import AddressSet
from .metrics import mask_f1
from .pagerank import (
    DEFAULT_DAMPING,
    DampingTable,
    adjusted_iteration,
    classify,
    init_scores,
)

HEURISTICS = ("minimum", "maximum", "average", "smallest_difference")


@dataclass
class LearnConfig:
    max_iterations: int = 1000
    rw_probability: float = 0.1
    heuristic: str = "minimum"
    grid_step: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}; use one of {HEURISTICS}")
        if not 0.0 <= self.rw_probability <= 1.0:
            raise ValueError(f"rw_probability out of [0, 1]: {self.rw_probability}")
        if not 0.0 < self.grid_step <= 1.0:
            raise ValueError(f"grid_step out of (0, 1]: {self.grid_step}")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


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


def grid_values(step: float = 0.05) -> list[float]:
    """Evenly stepped factor grid over [0, 1]; both endpoints always included."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid step out of (0, 1]: {step}")
    values = []
    i = 0
    while True:
        v = round(i * step, 10)
        if v >= 1.0:
            break
        values.append(v)
        i += 1
    values.append(1.0)
    return values


def _hill_climb(
    graph: StaticGraph,
    scores: np.ndarray,
    table: DampingTable,
    pair: PortPair,
    label_mask: np.ndarray,
    heuristic: str,
    current_f1: float,
    grid: list[float],
) -> DampingTable:
    trials = []
    for value in grid:
        trial_scores = adjusted_iteration(graph, scores, table.with_factor(pair, value))
        trials.append((value, mask_f1(classify(trial_scores), label_mask)))
    best_f1 = max(f1 for _, f1 in trials)
    allowable = [value for value, f1 in trials if f1 == best_f1]

    if best_f1 < current_f1:
        # only reachable when the current factor sits off-grid (random walk)
        return table
    improved = best_f1 > current_f1

    if heuristic == "maximum":
        committed = allowable[-1]
    elif heuristic == "minimum":
        if not improved:
            return table
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
    return table.with_factor(pair, committed)


def hill_climb_step(
    graph: StaticGraph,
    scores: np.ndarray,
    table: DampingTable,
    pair: PortPair,
    labels: AddressSet,
    heuristic: str,
    current_f1: float,
    grid_step: float = 0.05,
) -> DampingTable:
    """Grid-search one pair's factor and commit a value per the tie heuristic.

    Each grid value is scored by one adjusted iteration started from
    ``scores``; the committed score state is never touched here. On a strict
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
    )


def learn(
    graph: StaticGraph, labels: AddressSet, config: LearnConfig | None = None
) -> LearnResult:
    """Run the learning loop and return the best F1 with its factor table.

    Every retained pair starts at the default factor. After the first
    committed iteration the loop runs while F1 differs from 1 and the
    iteration counter has not passed max_iterations: record the best state,
    draw a conflict pair, mutate its factor by random walk (with probability
    rw_probability) or hill climbing, then commit one adjusted iteration.
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
    best_f1, best_factors = f1, factors.copy()

    iterations = 0
    while f1 != 1.0 and iterations <= config.max_iterations:
        if f1 > best_f1:
            best_f1, best_factors = f1, factors.copy()
        pair = choose_conflict_port_pair(graph, misclassified, rng)
        if rng.random() > 1.0 - config.rw_probability:
            factors = random_walk_step(factors, pair, rng)
        else:
            factors = _hill_climb(
                graph, scores, factors, pair, label_mask, config.heuristic, f1, grid
            )
        iterations += 1
        scores = adjusted_iteration(graph, scores, factors)
        f1, misclassified = _evaluate(scores, label_mask)
        trace.append(f1)
    if f1 > best_f1:
        best_f1, best_factors = f1, factors.copy()
    return LearnResult(best_f1, best_factors, iterations, trace)
