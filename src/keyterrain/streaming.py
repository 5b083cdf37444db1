"""Single-pass rank computation over an ordered flow stream.

Each flow moves a little rank mass: the source gains fresh mass, a damped
share of the source's active mass rides the edge to the destination, and the
transition probability beta controls how much of it keeps travelling. One
flow is one edge; memory grows only with distinct IPs, never with flow count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .flows import FlowRecord
from .labels import AddressSet
from .metrics import mask_f1, topk_true_positives
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
    """Per-vertex rank mass and active mass; the registry is append-only."""

    def __init__(self):
        self.vertex_index: dict[str, int] = {}
        self.vertices: list[str] = []
        self.rank_mass: list[float] = []
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
    ranks = np.asarray(state.rank_mass, dtype=float)
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
    top = [(state.vertices[i], float(scores[i])) for i in _top_indices(scores, config.top_k)]
    f1 = None
    topk_tp = None
    if labels is not None:
        label_flags.extend(ip in labels for ip in state.vertices[len(label_flags):])
        f1 = mask_f1(classify(scores), np.frombuffer(label_flags, dtype=bool)) if state.n else 0.0
        topk_tp = topk_true_positives([ip for ip, _ in top], labels, config.top_k)[0]
    return SamplePoint(state.flows_processed, state.n, top, f1, topk_tp)


def run_stream(
    flows: Iterable[FlowRecord],
    table: DampingTable,
    config: StreamConfig | None = None,
    labels: AddressSet | None = None,
    state: StreamState | None = None,
) -> list[SamplePoint]:
    """Single pass over ``flows`` in the caller's order, advancing ``state``.

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
    factor = table.factors.get
    default = table.default_factor
    vertex_id = state.vertex_id
    rank = state.rank_mass
    active = state.active_mass
    samples = []
    label_flags = bytearray()
    for flow in flows:
        u = vertex_id(flow.src_ip)
        v = vertex_id(flow.dst_ip)
        d = factor((flow.src_port, flow.dst_port), default)
        rank[u] += 1.0 - d
        active[u] += 1.0 - d
        moving = active[u]
        rank[v] += d * moving
        active[v] += d * beta * moving
        # reread instead of reusing `moving`: v aliases u on self-flows
        active[u] = (1.0 - beta) * active[u]
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
