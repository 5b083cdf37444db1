"""Property tests: the mask-based F1, conflict draw and incremental grid search
against direct oracles, the stream sampler against a full ranking, and the
contraction and mass conservation of the adjusted steps."""

import io
import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyterrain.labels import AddressSet
from keyterrain.learning import (
    _affine_trial,
    _grid_f1s,
    choose_conflict_port_pair,
    grid_values,
)
from keyterrain.metrics import f1_from_counts, precision_recall_f1, topk_true_positives
from keyterrain.pagerank import (
    DampingTable,
    adjusted_iteration,
    contraction_bound,
    init_scores,
    read_damping_table,
    run_adjusted_to_convergence,
    write_damping_table,
)
from keyterrain.streaming import StreamConfig, StreamState, run_stream, snapshot

from instances import (
    adjusted_linear_part,
    conflict_pair_by_index_set,
    flow,
    graph_of,
    grid_f1s_by_full_recompute,
    ip_of,
    random_multigraph,
    step_rounding,
    stream_masses_by_rule,
)

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
        state.rank_mass[state.vertex_index[ip_of(i)]] = mass
    # equal masses put every score exactly on the 1/n threshold
    if all_equal:
        state.rank_mass[:] = array("d", [1.0] * len(rank_mass))
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


GRID_FACTORS = (0.0, 0.5, 0.85, 1.0)
GRID_PAIRS = ((22, 80), (80, 22), (443, 443))
NON_FINITE = (math.inf, -math.inf, math.nan, 1e308)


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    scores_kind=st.sampled_from(("uniform", "stepped", "random", "tiny", "non-finite")),
    symmetric_tie=st.booleans(),
    data=st.data(),
)
def test_grid_f1s_match_full_recompute(n, scores_kind, symmetric_tie, data):
    if symmetric_tie:
        # A <-> B on one pair and nothing else: from equal scores both land on 1/n
        edges = [(0, 1, GRID_PAIRS[0]), (1, 0, GRID_PAIRS[0])]
    else:
        vertex = st.integers(0, n - 1)
        edges = data.draw(
            st.lists(st.tuples(vertex, vertex, st.sampled_from(GRID_PAIRS)), min_size=1, max_size=40)
        )
        # a self-loop and a parallel edge on every such graph
        edges += [(0, 0, edges[0][2]), edges[0]]
    graph = graph_of([(ip_of(u), ip_of(v), pair) for u, v, pair in edges])
    factor = st.sampled_from(GRID_FACTORS)
    table = DampingTable({p: data.draw(factor) for p in graph.pairs}, data.draw(factor))

    scores = init_scores(graph)
    if scores_kind == "stepped":
        for _ in range(data.draw(st.integers(1, 4))):
            scores = adjusted_iteration(graph, scores, table)
    elif scores_kind != "uniform":
        # tiny scores push less than one ulp of 1/n along every edge
        bound = 1e-300 if scores_kind == "tiny" else 1.0
        unit = st.floats(-bound, bound, allow_nan=False)
        scores = np.array(data.draw(st.lists(unit, min_size=graph.n, max_size=graph.n)))
        if scores_kind == "non-finite":
            at = data.draw(st.integers(0, graph.n - 1))
            scores[at] = data.draw(st.sampled_from(NON_FINITE))
    label_mask = np.array(data.draw(st.lists(st.booleans(), min_size=graph.n, max_size=graph.n)))
    pair = data.draw(st.sampled_from(graph.pairs))

    grid = grid_values(0.05)
    # non-finite and huge scores overflow on purpose; a warning from any other
    # case still shows
    with np.errstate(over="ignore", invalid="ignore"):
        f1s, base = _grid_f1s(graph, scores, table, pair, label_mask, grid)
        assert f1s == grid_f1s_by_full_recompute(graph, scores, table, pair, label_mask, grid)
        np.testing.assert_array_equal(base, adjusted_iteration(graph, scores, table))


SCORE_SCALES = {"unit": 1.0, "tiny": 1e-300, "huge": 1e150}


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    hub_edges=st.sampled_from((0, 50, 300)),
    scale=st.sampled_from(sorted(SCORE_SCALES)),
    at_threshold=st.booleans(),
    data=st.data(),
)
def test_grid_margin_bounds_the_estimate_error(n, hub_edges, scale, at_threshold, data):
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex, st.sampled_from(GRID_PAIRS))
    edges = data.draw(st.lists(edge, min_size=1, max_size=40))
    # a self-loop on every graph, and optionally a hub with edges both ways
    edges.append((0, 0, edges[0][2]))
    for _ in range(hub_edges):
        other, pair = data.draw(vertex), data.draw(st.sampled_from(GRID_PAIRS))
        edges.append((0, other, pair) if data.draw(st.booleans()) else (other, 0, pair))
    graph = graph_of([(ip_of(u), ip_of(v), pair) for u, v, pair in edges])
    factor = st.sampled_from(GRID_FACTORS) | st.floats(0.0, 1.0)
    table = DampingTable({p: data.draw(factor) for p in graph.pairs}, data.draw(factor))
    threshold = 1.0 / graph.n
    bound = SCORE_SCALES[scale]
    score = st.floats(-bound, bound)
    if at_threshold:
        score = score | st.just(threshold)
    scores = np.array(data.draw(st.lists(score, min_size=graph.n, max_size=graph.n)))
    pair = data.draw(st.sampled_from(graph.pairs))

    base, touched, delta, margin = _affine_trial(graph, scores, table, pair)
    assert np.isfinite(margin)
    untouched = np.ones(graph.n, dtype=bool)
    untouched[touched] = False
    for value in grid_values(0.05):
        exact = adjusted_iteration(graph, scores, table.with_factor(pair, value))
        np.testing.assert_array_equal(exact[untouched], base[untouched])
        estimate = base[touched] + (value - table.lookup(pair)) * delta
        accepted = np.abs(estimate - threshold) > margin
        assert np.all(np.abs(estimate - exact[touched])[accepted] <= margin / 2)
        assert np.array_equal(
            (estimate > threshold)[accepted], (exact[touched] > threshold)[accepted]
        )


def multigraph_with_loop_and_sink(data, n):
    """A drawn multigraph over n vertices with a self-loop and a sink, and a
    drawn damping table for it."""
    vertex = st.integers(0, n - 1)
    edges = data.draw(
        st.lists(st.tuples(vertex, vertex, st.sampled_from(GRID_PAIRS)), min_size=1, max_size=60)
    )
    # vertex n only receives
    edges += [(0, 0, edges[0][2]), (0, n, edges[0][2])]
    graph = graph_of([(ip_of(u), ip_of(v), pair) for u, v, pair in edges])
    factor = st.sampled_from(GRID_FACTORS) | st.floats(0.0, 1.0)
    return graph, DampingTable({p: data.draw(factor) for p in graph.pairs}, data.draw(factor))


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    tolerance=st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12)),
    data=st.data(),
)
def test_half_step_change_halves_and_bounds_the_run(n, tolerance, data):
    graph, table = multigraph_with_loop_and_sink(data, n)
    prev = scores = init_scores(graph)
    changes = []
    for _ in range(40):
        nxt = 0.5 * (scores + adjusted_iteration(graph, scores, table))
        changes.append(float(np.sum(np.abs(nxt - scores))))
        if len(changes) > 1:
            assert changes[-1] <= changes[-2] / 2 + 2 * step_rounding(graph, prev, scores, nxt)
        assert abs(nxt.sum() - 1.0) <= step_rounding(graph, scores, nxt)
        prev, scores = scores, nxt

    result = run_adjusted_to_convergence(graph, table, tolerance, max_iters=100)
    assert result.converged
    first = changes[0]
    bound = 1 if first < tolerance else math.floor(math.log2(first / tolerance)) + 2
    assert result.iterations <= bound


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=12), data=st.data())
def test_plain_step_conserves_mass_while_bounded(n, data):
    # a plain step's output sums to 1 whatever its input sums to, so the
    # error never accumulates; a runaway trajectory is followed to 1e6
    graph, table = multigraph_with_loop_and_sink(data, n)
    scores = init_scores(graph)
    for _ in range(40):
        nxt = adjusted_iteration(graph, scores, table)
        if np.sum(np.abs(nxt)) > 1e6:
            break
        assert abs(nxt.sum() - 1.0) <= step_rounding(graph, scores, nxt)
        scores = nxt


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(min_value=1, max_value=12), data=st.data())
def test_contraction_bound_is_the_column_norm(n, data):
    graph, table = multigraph_with_loop_and_sink(data, n)
    m = adjusted_linear_part(graph, table)
    bound = contraction_bound(graph, table)
    assert bound == pytest.approx(np.abs(m).sum(axis=0).max(), rel=0.0, abs=1e-12)
    assert np.abs(np.linalg.eigvals(m)).max() <= bound * (1 + 1e-9) + 1e-12


tied_masses = st.sampled_from((0.0, 1.0, 2.5))


@PROPERTY_SETTINGS
@given(
    rank_mass=st.lists(masses | tied_masses, max_size=40),
    top_k=st.integers(min_value=1, max_value=50),
    all_equal=st.booleans(),
)
def test_sampled_top_k_is_the_snapshot_head(rank_mass, top_k, all_equal):
    state = StreamState()
    for i, mass in enumerate(rank_mass):
        state.rank_mass[state.vertex_index[ip_of(i)]] = 1.0 if all_equal else mass

    sample = run_stream([], DampingTable(), StreamConfig(top_k=top_k), None, state)[-1]

    scores, ranking = snapshot(state)
    head = [(ip, float(scores[state.vertex_index[ip]])) for ip in ranking[:top_k]]
    assert sample.top == head
    # both sides rank through one function, so its order is checked on its own
    assert ranking == [ip_of(i) for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i))]


@PROPERTY_SETTINGS
@given(
    rank_mass=st.lists(masses | tied_masses, max_size=40),
    labeled=st.sets(st.integers(min_value=0, max_value=60), max_size=20),
    top_k=st.integers(min_value=1, max_value=50),
    with_prefix=st.booleans(),
)
def test_sampled_topk_tp_counts_labeled_top_ips(rank_mass, labeled, top_k, with_prefix):
    # labels may name IPs outside the universe, and a prefix may cover some
    state = StreamState()
    for i, mass in enumerate(rank_mass):
        state.rank_mass[state.vertex_index[ip_of(i)]] = mass
    labels = AddressSet([ip_of(i) for i in labeled] + (["10.50.0.0/30"] if with_prefix else []))

    sample = run_stream([], DampingTable(), StreamConfig(top_k=top_k), labels, state)[-1]

    ranking = [ip for ip, _ in sample.top]
    assert sample.topk_tp == topk_true_positives(ranking, labels, top_k)[0]


@PROPERTY_SETTINGS
@given(
    flows=st.lists(
        st.tuples(
            st.integers(0, 9),
            st.integers(0, 9),
            st.sampled_from(GRID_PAIRS),
        ),
        max_size=200,
    ),
    factors=st.lists(st.floats(0.0, 1.0) | st.sampled_from(GRID_FACTORS), min_size=4, max_size=4),
    beta=st.floats(0.0, 1.0, exclude_min=True),
)
def test_stream_masses_stay_non_negative(flows, factors, beta):
    table = DampingTable(dict(zip(GRID_PAIRS, factors)), factors[-1])
    records = [flow(ip_of(u), ip_of(v), *pair) for u, v, pair in flows]
    state = StreamState()

    run_stream(records, table, StreamConfig(beta=beta, sample_interval=7), None, state)

    assert all(mass >= 0.0 for mass in state.rank_mass)
    assert all(mass >= 0.0 for mass in state.active_mass)
    # the rule in its written-out order, self-flows included, to the last bit
    expected = stream_masses_by_rule(records, table, beta)
    assert (state.vertices, list(state.rank_mass), list(state.active_mass)) == expected

    # one call per flow over a shared state continues the same stream exactly
    stepped = StreamState()
    for record in records:
        run_stream([record], table, StreamConfig(beta=beta), None, stepped)
    assert stepped.rank_mass == state.rank_mass
    assert stepped.active_mass == state.active_mass
    assert stepped.vertices == state.vertices
    assert stepped.flows_processed == state.flows_processed


@PROPERTY_SETTINGS
@given(
    flows=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=150),
    labeled=st.sets(st.integers(0, 30), max_size=10),
    interval=st.integers(min_value=1, max_value=20),
    top_k=st.integers(min_value=1, max_value=8),
)
def test_interval_samples_match_fresh_end_of_stream_samples(flows, labeled, interval, top_k):
    # the label flags grow between samples; each sample must equal a run that
    # stops at that point and builds them from scratch
    records = [flow(ip_of(u), ip_of(v), 80, 443) for u, v in flows]
    labels = AddressSet([ip_of(i) for i in labeled])
    config = StreamConfig(sample_interval=interval, top_k=top_k)

    samples = run_stream(records, DampingTable(), config, labels)

    for sample in samples:
        fresh = run_stream(records[: sample.flows_processed], DampingTable(),
                           StreamConfig(top_k=top_k), labels)[-1]
        assert (sample.top, sample.f1, sample.topk_tp) == (fresh.top, fresh.f1, fresh.topk_tp)


@PROPERTY_SETTINGS
@given(
    flows=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from(GRID_PAIRS)),
        max_size=150,
    ),
    labeled=st.sets(st.integers(0, 15), max_size=6),
    interval=st.integers(min_value=0, max_value=20),
    factors=st.lists(st.sampled_from(GRID_FACTORS), min_size=4, max_size=4),
)
def test_stream_over_rows_equals_stream_over_records(flows, labeled, interval, factors):
    table = DampingTable(dict(zip(GRID_PAIRS, factors)), factors[-1])
    records = [flow(ip_of(u), ip_of(v), *pair, ts) for ts, (u, v, pair) in enumerate(flows)]
    rows = [tuple(record) for record in records]
    labels = AddressSet([ip_of(i) for i in labeled])
    config = StreamConfig(sample_interval=interval, top_k=5)
    by_records, by_rows = StreamState(), StreamState()

    samples = run_stream(records, table, config, labels, by_records)

    assert run_stream(rows, table, config, labels, by_rows) == samples
    assert by_rows.vertices == by_records.vertices
    assert by_rows.vertex_index == by_records.vertex_index
    assert by_rows.rank_mass == by_records.rank_mass
    assert by_rows.active_mass == by_records.active_mass
    assert by_rows.flows_processed == by_records.flows_processed == len(flows)


ports = st.integers(min_value=0, max_value=65535)
factors_in_range = st.floats(min_value=0.0, max_value=1.0)


@PROPERTY_SETTINGS
@given(factors=st.dictionaries(st.tuples(ports, ports), factors_in_range), default=factors_in_range)
def test_damping_table_file_round_trips(factors, default):
    table = DampingTable(factors, default)
    buf = io.StringIO()
    write_damping_table(table, buf)
    buf.seek(0)
    assert read_damping_table(buf) == table
