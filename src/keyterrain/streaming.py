"""Single-pass rank computation over an ordered flow stream.

Each flow moves a little rank mass: the source gains fresh mass, a damped
share of the source's active mass rides the edge to the destination, and the
transition probability beta controls how much of it keeps travelling. One
flow is one edge; memory grows only with distinct IPs, never with flow count.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .constants import StreamConfig
from .flows import FlowRow, _IpTable
from .graph import _pair_key, flow_blocks
from .labels import AddressSet
from .metrics import mask_f1
from .pagerank import DampingTable, classify


@dataclass
class SamplePoint:
    """State summary taken between updates: ranking head plus optional quality."""

    flows_processed: int
    vertices_seen: int
    top: list[tuple[str, float]]
    f1: float | None = None
    topk_tp: int | None = None


class _VertexIndex(dict):
    """IP text to vertex id. Looking up an IP that is not there registers it:
    it gets the next id, and zero masses."""

    def __init__(self, vertices: list[str], rank_mass: array, active_mass: list[float]):
        super().__init__()
        self._registers = (vertices, rank_mass, active_mass)

    def __missing__(self, ip: str) -> int:
        vertices, rank_mass, active_mass = self._registers
        idx = self[ip] = len(vertices)
        vertices.append(ip)
        rank_mass.append(0.0)
        active_mass.append(0.0)
        return idx


class StreamState:
    """Per-vertex rank mass and active mass; the registry is append-only.

    ``vertex_index[ip]`` is the id of ``ip`` and registers an IP it has not
    seen; ``vertex_index.get(ip)`` and ``ip in vertex_index`` register none.

    ``rank_mass`` is an ``array('d')``, so a sample reads it through a
    zero-copy numpy view. An array cannot grow while such a view is alive, so
    no view may outlive the call that made it. ``active_mass`` is never
    sampled and stays a list, whose items the update reads without boxing.
    """

    def __init__(self):
        self.vertices: list[str] = []
        self.rank_mass = array("d")
        self.active_mass: list[float] = []
        self.vertex_index: dict[str, int] = _VertexIndex(
            self.vertices, self.rank_mass, self.active_mass
        )
        self.flows_processed = 0

    @property
    def n(self) -> int:
        return len(self.vertices)


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
    return scores, [state.vertices[i] for i in _top_indices(scores, len(scores))]


def _top_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """The first k vertices by descending score, ties by id, without ranking
    the rest: only scores at or above the k-th highest are sorted."""
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


# A chunk of flows: source IP texts, destination IP texts and damping
# factors, three lists of equal length
_Chunk = tuple[list, list, list]
# Flows per chunk of rows from a caller
_CHUNK = 4096


def _row_chunks(flows: Iterable[FlowRow], table: DampingTable) -> Iterator[_Chunk]:
    """``flows``, 6-tuples in FlowRecord field order, in chunks of ``_CHUNK``
    flows with their factors from ``table``. When ``flows`` raises, the rows
    it gave since the last chunk come as one more chunk first."""
    factor = table.factors.get
    default = table.default_factor
    flows = iter(flows)
    while True:
        chunk = src, dst, factors = [], [], []
        try:
            for src_ip, dst_ip, src_port, dst_port, _, _ in islice(flows, _CHUNK):
                src.append(src_ip)
                dst.append(dst_ip)
                factors.append(factor((src_port, dst_port), default))
        except Exception:
            if factors:
                yield chunk
            raise
        if not factors:
            return
        yield chunk


def _file_chunks(fh: IO[str], table: DampingTable) -> Iterator[_Chunk]:
    """The flows of the flow file ``fh``, one chunk per block of
    ``flow_blocks``, with IPs named by their canonical text. A block's
    factors are found at once: its port pair keys are searched among the
    table's, sorted, and a key that is not there gets the default."""
    pairs = sorted((_pair_key(*pair), value) for pair, value in table.factors.items())
    # a last key above every port pair key keeps each search position in range
    keys = np.array([key for key, _ in pairs] + [np.iinfo(np.int64).max], dtype=np.int64)
    values = np.array([value for _, value in pairs] + [table.default_factor], dtype=float)
    for src_ips, dst_ips, key, _ in flow_blocks(fh, _IpTable()):
        at = keys.searchsorted(key)
        yield src_ips, dst_ips, np.where(keys[at] == key, values[at], values[-1]).tolist()


def run_stream(
    flows: Iterable[FlowRow] | IO[str],
    table: DampingTable,
    config: StreamConfig | None = None,
    labels: AddressSet | None = None,
    state: StreamState | None = None,
) -> list[SamplePoint]:
    """Single pass over ``flows`` in the caller's order, advancing ``state``.

    ``flows`` is either any iterable of 6-tuples in FlowRecord field order (a
    FlowRecord or a plain row from ``parse_flow_rows``), whose IP text is
    used as given; or a flow file open in text mode, which is read as
    ``parse_flow_rows`` reads it, with every error of the parser, by
    ``graph.flow_blocks``. When an iterable raises, every flow it gave is
    applied; when reading a file raises, a prefix of the rows before the
    error is.

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
    vertex = state.vertex_index.__getitem__
    rank = state.rank_mass
    active = state.active_mass
    samples = []
    label_flags = bytearray()
    if isinstance(flows, io.TextIOBase):
        chunks = _file_chunks(flows, table)
    else:
        chunks = _row_chunks(flows, table)
    for src_ips, dst_ips, factors in chunks:
        # zip draws from its arguments in order, so a flow's source is
        # registered before its destination, and both before the next flow's
        updates = zip(map(vertex, src_ips), map(vertex, dst_ips), factors)
        left = len(factors)
        while left:
            # up to the next sample at a time, so that a sample sees the
            # state after exactly its flows, vertices registered included
            take = min(left, interval - state.flows_processed % interval) if interval else left
            for u, v, d in islice(updates, take):
                # Each mass is read and written once, because every array
                # access boxes or unboxes a float. The rule, in order: u
                # gains fresh = 1 - d in both masses, v gains d * moving in
                # rank and d * beta * moving in active, and u keeps
                # (1 - beta) of its active mass after that.
                fresh = 1.0 - d
                moving = active[u] + fresh
                rank[u] += fresh
                rank[v] += d * moving
                if u != v:
                    active[v] += d * beta * moving
                    active[u] = keep * moving
                else:  # a self-flow's share lands back on u before u decays
                    active[u] = keep * (moving + d * beta * moving)
            state.flows_processed += take
            left -= take
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
