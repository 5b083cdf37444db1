"""Property tests: the mask-based F1 and conflict draw against set-based oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyterrain.labels import AddressSet
from keyterrain.learning import choose_conflict_port_pair
from keyterrain.metrics import f1_from_counts, precision_recall_f1
from keyterrain.pagerank import DampingTable
from keyterrain.streaming import StreamConfig, StreamState, run_stream, snapshot

from instances import conflict_pair_by_index_set, ip_of, random_multigraph

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

masses = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(
    rank_mass=st.lists(masses, min_size=1, max_size=40),
    labeled=st.sets(st.integers(min_value=0, max_value=60), max_size=20),
    all_equal=st.booleans(),
)
def test_stream_f1_matches_set_based_f1(rank_mass, labeled, all_equal):
    # labels may name IPs outside the universe, which must not count anywhere
    state = StreamState()
    for i, mass in enumerate(rank_mass):
        state.vertex_id(ip_of(i))
        state.rank_mass[i] = mass
    # equal masses put every score exactly on the 1/n threshold
    if all_equal:
        state.rank_mass[:] = [1.0] * len(rank_mass)
    labels = AddressSet([ip_of(i) for i in labeled])

    sample = run_stream([], DampingTable(), StreamConfig(), labels, state)[-1]

    scores, _ = snapshot(state)
    predicted = [ip for ip, score in zip(state.vertices, scores) if score > 1.0 / state.n]
    assert sample.f1 == precision_recall_f1(predicted, labels, state.vertices).f1


@PROPERTY_SETTINGS
@given(
    tp=st.integers(min_value=0, max_value=10**6),
    fp=st.integers(min_value=0, max_value=10**6),
    fn=st.integers(min_value=0, max_value=10**6),
)
def test_f1_from_counts_is_the_harmonic_mean(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    harmonic = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert f1_from_counts(tp, fp, fn) == pytest.approx(harmonic, rel=1e-14, abs=0.0)


@PROPERTY_SETTINGS
@given(graph_seed=st.integers(0, 2**32 - 1), draw_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_conflict_draw_matches_index_set_oracle(graph_seed, draw_seed, data):
    graph = random_multigraph(random.Random(graph_seed), max_n=30, max_edges=120)
    chosen = data.draw(st.sets(st.integers(0, graph.n - 1), max_size=graph.n))
    mask = np.zeros(graph.n, dtype=bool)
    mask[list(chosen)] = True

    by_mask, by_set = random.Random(draw_seed), random.Random(draw_seed)
    for _ in range(8):
        assert choose_conflict_port_pair(graph, mask, by_mask) == conflict_pair_by_index_set(
            graph, chosen, by_set
        )
    # both paths consumed the generator identically
    assert by_mask.random() == by_set.random()
