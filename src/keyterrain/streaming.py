"""Single-pass rank computation over an ordered flow stream.

Each flow moves a little rank mass: the source gains fresh mass, a damped
share of the source's active mass rides the edge to the destination, and the
transition probability beta controls how much of it keeps travelling. One
flow is one edge; memory grows only with distinct IPs, never with flow count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .flows import FlowRow
from .labels import AddressSet
from .metrics import mask_f1
from .pagerank import DampingTable, classify


@dataclass
class StreamConfig:
    beta: float = 0.5
    sample_interval: int = 0  # 0 means only the end-of-stream sample
    top_k: int = 100

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta out of (0, 1]: {self.beta}")
        if self.sample_interval < 0:
            raise ValueError("sample_interval must be non-negative")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass
class SamplePoint:
    """State summary taken between updates: ranking head plus optional quality."""

    flows_processed: int
    vertices_seen: int
    top: list[tuple[str, float]]
    f1: float | None = None
    topk_tp: int | None = None


class StreamState:
    """Per-vertex rank mass and active mass; the registry is append-only.

    ``rank_mass`` is an ``array('d')``, so a sample reads it through a
    zero-copy numpy view. An array cannot grow while such a view is alive, so
    no view may outlive the call that made it. ``active_mass`` is never
    sampled and stays a list, whose items the update reads without boxing.
    """

    def __init__(self):
        self.vertex_index: dict[str, int] = {}
        self.vertices: list[str] = []
        self.rank_mass = array("d")
        self.active_mass: list[float] = []
        self.flows_processed = 0

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_id(self, ip: str) -> int:
        idx = self.vertex_index.get(ip)
        if idx is None:
            idx = len(self.vertices)
            self.vertex_index[ip] = idx
            self.vertices.append(ip)
            self.rank_mass.append(0.0)
            self.active_mass.append(0.0)
        return idx


def _normalized_scores(state: StreamState) -> np.ndarray:
    """A new array; the view of the rank masses ends with this call."""
    ranks = np.frombuffer(state.rank_mass, dtype=float)
    total = ranks.sum()
    return ranks / total if total > 0.0 else np.zeros_like(ranks)


def snapshot(state: StreamState) -> tuple[np.ndarray, list[str]]:
    """Normalized scores and the descending IP ranking.

    Ties rank by registration order; an all-zero state yields all-zero
    scores (no division) and the registration order itself.
    """
    scores = _normalized_scores(state)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return scores, [state.vertices[i] for i in order]


def _top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k vertices of ``snapshot``'s ranking, without ranking the rest:
    only scores at or above the k-th highest are sorted."""
    candidates = np.arange(len(scores))
    if k < len(scores):
        kth = -np.partition(-scores, k - 1)[k - 1]
        candidates = candidates[scores >= kth]
    return candidates[np.lexsort((candidates, -scores[candidates]))][:k]


def _take_sample(
    state: StreamState,
    config: StreamConfig,
    labels: AddressSet | None,
    label_flags: bytearray,
) -> SamplePoint:
    """``label_flags`` holds the label membership of the vertices registered
    by the previous sample, one 0/1 byte each, and is extended over the ones
    registered since. It is read through a zero-copy view that must not
    outlive the sample: a bytearray with a live view cannot grow."""
    scores = _normalized_scores(state)
    top_ids = _top_indices(scores, config.top_k)
    top = [(state.vertices[i], float(scores[i])) for i in top_ids]
    f1 = None
    topk_tp = None
    if labels is not None:
        label_flags.extend(labels.mask(state.vertices[len(label_flags):]))
        labeled = np.frombuffer(label_flags, dtype=bool)
        f1 = mask_f1(classify(scores), labeled) if state.n else 0.0
        topk_tp = int(np.count_nonzero(labeled[top_ids]))
    return SamplePoint(state.flows_processed, state.n, top, f1, topk_tp)


def run_stream(
    flows: Iterable[FlowRow],
    table: DampingTable,
    config: StreamConfig | None = None,
    labels: AddressSet | None = None,
    state: StreamState | None = None,
) -> list[SamplePoint]:
    """Single pass over ``flows`` in the caller's order, advancing ``state``.

    A flow is any 6-tuple in FlowRecord field order (a FlowRecord or a plain
    row from ``parse_flow_rows``).

    Each flow's damping factor comes from the table; pairs never learned
    resolve to its default. Every increment is a product of non-negative
    terms, so masses stay non-negative. Passing the same ``state`` to
    successive calls continues one stream.

    A sample is taken every ``sample_interval`` flows and once more at end of
    stream (always, even when it coincides with an interval sample). With
    labels, each sample carries the F1 of the 1/n-threshold classification
    over all vertices seen so far plus the top-k true-positive count.
    """
    config = config if config is not None else StreamConfig()
    state = state if state is not None else StreamState()
    interval = config.sample_interval
    beta = config.beta
    keep = 1.0 - beta
    factor = table.factors.get
    default = table.default_factor
    known = state.vertex_index.get
    vertex_id = state.vertex_id
    rank = state.rank_mass
    active = state.active_mass
    samples = []
    label_flags = bytearray()
    for src_ip, dst_ip, src_port, dst_port, _, _ in flows:
        u = known(src_ip)
        if u is None:
            u = vertex_id(src_ip)
        v = known(dst_ip)
        if v is None:
            v = vertex_id(dst_ip)
        d = factor((src_port, dst_port), default)
        # Each mass is read and written once, because every array access
        # boxes or unboxes a float. The rule, in order: u gains fresh = 1 - d
        # in both masses, v gains d * moving in rank and d * beta * moving
        # in active, and u keeps (1 - beta) of its active mass after that.
        fresh = 1.0 - d
        moving = active[u] + fresh
        rank[u] += fresh
        rank[v] += d * moving
        if u != v:
            active[v] += d * beta * moving
            active[u] = keep * moving
        else:  # a self-flow's share lands back on u before u decays
            active[u] = keep * (moving + d * beta * moving)
        state.flows_processed += 1
        if interval and state.flows_processed % interval == 0:
            samples.append(_take_sample(state, config, labels, label_flags))
    samples.append(_take_sample(state, config, labels, label_flags))
    return samples


def write_samples_csv(samples: Sequence[SamplePoint], out) -> None:
    """Plot-ready sample rows; f1/topk_tp are empty when the run was unlabeled."""
    out.write("flows_processed,vertices_seen,f1,topk_tp\n")
    for sp in samples:
        f1 = "" if sp.f1 is None else repr(sp.f1)
        tp = "" if sp.topk_tp is None else sp.topk_tp
        out.write(f"{sp.flows_processed},{sp.vertices_seen},{f1},{tp}\n")


def write_topk_csv(sample: SamplePoint, out) -> None:
    """One sample's ranking head as ``rank,ip,score`` lines."""
    out.write("rank,ip,score\n")
    for rank, (ip, score) in enumerate(sample.top, start=1):
        out.write(f"{rank},{ip},{score!r}\n")
