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


def stream_update(
    state: StreamState, flow: FlowRecord, table: DampingTable, beta: float = 0.5
) -> StreamState:
    """Apply one flow to the state and return it.

    The flow's damping factor comes from the table (pairs never learned
    resolve to its default). All increments are products of non-negative
    terms, so masses stay non-negative.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta out of (0, 1]: {beta}")
    u = state.vertex_id(flow.src_ip)
    v = state.vertex_id(flow.dst_ip)
    d = table.factors.get((flow.src_port, flow.dst_port), table.default_factor)
    rank = state.rank_mass
    active = state.active_mass
    rank[u] += 1.0 - d
    active[u] += 1.0 - d
    moving = active[u]
    rank[v] += d * moving
    active[v] += d * beta * moving
    # reread instead of reusing `moving`: v aliases u on self-flows
    active[u] = (1.0 - beta) * active[u]
    state.flows_processed += 1
    return state


def snapshot(state: StreamState) -> tuple[np.ndarray, list[str]]:
    """Normalized scores and the descending IP ranking.

    Ties rank by registration order; an all-zero state yields all-zero
    scores (no division) and the registration order itself.
    """
    ranks = np.asarray(state.rank_mass, dtype=float)
    total = ranks.sum()
    scores = ranks / total if total > 0.0 else np.zeros_like(ranks)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return scores, [state.vertices[i] for i in order]


def _take_sample(
    state: StreamState, config: StreamConfig, labels: AddressSet | None
) -> SamplePoint:
    scores, ranking = snapshot(state)
    top = [(ip, float(scores[state.vertex_index[ip]])) for ip in ranking[: config.top_k]]
    f1 = None
    topk_tp = None
    if labels is not None:
        f1 = mask_f1(classify(scores), labels.mask(state.vertices)) if state.n else 0.0
        topk_tp = topk_true_positives(ranking, labels, config.top_k)[0]
    return SamplePoint(state.flows_processed, state.n, top, f1, topk_tp)


def run_stream(
    flows: Iterable[FlowRecord],
    table: DampingTable,
    config: StreamConfig | None = None,
    labels: AddressSet | None = None,
    state: StreamState | None = None,
) -> list[SamplePoint]:
    """Single pass over ``flows`` in the caller's order.

    A sample is taken every ``sample_interval`` flows and once more at end of
    stream (always, even when it coincides with an interval sample). With
    labels, each sample carries the F1 of the 1/n-threshold classification
    over all vertices seen so far plus the top-k true-positive count.
    """
    config = config if config is not None else StreamConfig()
    state = state if state is not None else StreamState()
    interval = config.sample_interval
    samples = []
    for flow in flows:
        stream_update(state, flow, table, config.beta)
        if interval and state.flows_processed % interval == 0:
            samples.append(_take_sample(state, config, labels))
    samples.append(_take_sample(state, config, labels))
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
