"""Hill climbing, random walk, conflict selection, and the learning loop."""

import io
import random

import numpy as np
import pytest

from keyterrain.flows import PortPair
from keyterrain.labels import AddressSet
from keyterrain.learning import (
    HEURISTICS,
    LearnConfig,
    choose_conflict_port_pair,
    evaluate_classification,
    grid_values,
    hill_climb_step,
    learn,
    random_walk_step,
)
from keyterrain.pagerank import DampingTable, init_scores, write_damping_table
from keyterrain.graph import StaticGraph

from instances import graph_of, plain_star_instance, star_instance
from keyterrain.graph import build_static_graph

P = PortPair(1000, 2000)


def single_edge():
    return graph_of([("10.0.0.1", "10.0.0.2", (1000, 2000))])


def vertex_mask(graph, *vertices):
    mask = np.zeros(graph.n, dtype=bool)
    mask[list(vertices)] = True
    return mask


def serialize(table):
    buf = io.StringIO()
    write_damping_table(table, buf)
    return buf.getvalue()


class TestEvaluateClassification:
    def test_perfect(self):
        graph = single_edge()
        f1, miscl = evaluate_classification(
            np.array([0.075, 0.925]), graph, AddressSet(["10.0.0.2"])
        )
        assert f1 == 1.0
        assert not miscl.any()

    def test_false_positive(self):
        graph = single_edge()
        f1, miscl = evaluate_classification(
            np.array([0.6, 0.6]), graph, AddressSet(["10.0.0.2"])
        )
        assert f1 == pytest.approx(2 / 3)
        assert np.array_equal(miscl, vertex_mask(graph, graph.vertex_index["10.0.0.1"]))

    def test_nothing_predicted(self):
        graph = single_edge()
        f1, miscl = evaluate_classification(
            np.array([0.5, 0.5]), graph, AddressSet(["10.0.0.2"])
        )
        assert f1 == 0.0
        assert np.array_equal(miscl, vertex_mask(graph, graph.vertex_index["10.0.0.2"]))

    def test_cidr_labels(self):
        graph = single_edge()
        f1, _ = evaluate_classification(
            np.array([0.075, 0.925]), graph, AddressSet(["10.0.0.0/24"])
        )
        # both vertices are critical per the prefix; only one is predicted
        assert f1 == pytest.approx(2 / 3)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            evaluate_classification(np.array([0.5, 0.5]), single_edge(), AddressSet([]))


class TestChooseConflictPortPair:
    def test_single_incoming_edge(self):
        graph = single_edge()
        target = graph.vertex_index["10.0.0.2"]
        pair = choose_conflict_port_pair(graph, vertex_mask(graph, target), random.Random(0))
        assert pair == P

    def test_fallback_to_outgoing(self):
        graph = single_edge()
        source = graph.vertex_index["10.0.0.1"]
        pair = choose_conflict_port_pair(graph, vertex_mask(graph, source), random.Random(0))
        assert pair == P

    def test_fallback_to_retained_pairs(self):
        graph = single_edge()
        pair = choose_conflict_port_pair(graph, vertex_mask(graph), random.Random(0))
        assert pair in graph.pairs

    def test_edgeless_graph_is_an_error(self):
        with pytest.raises(ValueError, match="no edges"):
            choose_conflict_port_pair(
                StaticGraph(["10.0.0.1"], [], [], [], []), np.ones(1, dtype=bool), random.Random(0)
            )

    def test_mask_length_must_match_vertices(self):
        graph = single_edge()
        with pytest.raises(ValueError, match="mask shape"):
            choose_conflict_port_pair(graph, np.ones(3, dtype=bool), random.Random(0))

    def test_two_incoming_edges_are_uniform(self):
        graph = graph_of(
            [
                ("10.0.0.1", "10.0.0.9", (1, 1)),
                ("10.0.0.2", "10.0.0.9", (2, 2)),
            ]
        )
        target = vertex_mask(graph, graph.vertex_index["10.0.0.9"])
        rng = random.Random(123)
        draws = sum(
            choose_conflict_port_pair(graph, target, rng) == PortPair(1, 1)
            for _ in range(10_000)
        )
        assert abs(draws / 10_000 - 0.5) <= 0.05

    def test_incoming_preferred_over_outgoing(self):
        graph = graph_of(
            [
                ("10.0.0.1", "10.0.0.9", (1, 1)),
                ("10.0.0.9", "10.0.0.2", (2, 2)),
            ]
        )
        target = vertex_mask(graph, graph.vertex_index["10.0.0.9"])
        rng = random.Random(5)
        for _ in range(50):
            assert choose_conflict_port_pair(graph, target, rng) == PortPair(1, 1)


class TestRandomWalkStep:
    def test_seeded_reproducibility(self):
        table = DampingTable({P: 0.85})
        a = random_walk_step(table, P, random.Random(9))
        b = random_walk_step(table, P, random.Random(9))
        assert a.lookup(P) == b.lookup(P)
        assert 0.0 <= a.lookup(P) < 1.0

    def test_other_entries_unchanged(self):
        other = PortPair(3, 4)
        table = DampingTable({P: 0.85, other: 0.2}, 0.6)
        updated = random_walk_step(table, P, random.Random(1))
        assert updated.lookup(other) == 0.2
        assert updated.default_factor == 0.6
        assert table.lookup(P) == 0.85

    def test_uniform_mean(self):
        rng = random.Random(77)
        table = DampingTable({P: 0.85})
        total = sum(random_walk_step(table, P, rng).lookup(P) for _ in range(10_000))
        assert abs(total / 10_000 - 0.5) <= 0.02


class TestGridValues:
    def test_default_grid(self):
        grid = grid_values(0.05)
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert grid[3] == 0.15
        assert 0.85 in grid

    def test_non_dividing_step_keeps_endpoint(self):
        assert grid_values(0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_values(0.0)


class TestHillClimbStep:
    """Single committed edge a->b with labels {b}: any factor above zero
    classifies perfectly, so the whole positive grid improves on f1=0."""

    def setup_method(self):
        self.graph = single_edge()
        self.labels = AddressSet(["10.0.0.2"])
        self.scores = init_scores(self.graph)
        self.table = DampingTable({P: 0.85}, 0.85)

    def step(self, heuristic, table=None, current_f1=0.0):
        return hill_climb_step(
            self.graph,
            self.scores,
            table if table is not None else self.table,
            P,
            self.labels,
            heuristic,
            current_f1,
        )

    def test_minimum_commits_smallest_improving(self):
        assert self.step("minimum").lookup(P) == 0.05

    def test_maximum_commits_largest(self):
        assert self.step("maximum").lookup(P) == 1.0

    def test_average_commits_mean_of_allowable(self):
        # allowable = {0.05, ..., 1.0}; mean = 0.525
        assert self.step("average").lookup(P) == pytest.approx(0.525, abs=1e-12)

    def test_smallest_difference_prefers_default(self):
        assert self.step("smallest_difference").lookup(P) == 0.85

    def test_scores_bitwise_unchanged(self):
        before = self.scores.copy()
        for heuristic in HEURISTICS:
            self.step(heuristic)
        assert self.scores.tobytes() == before.tobytes()

    def test_committed_table_is_new_object(self):
        updated = self.step("maximum")
        assert updated is not self.table
        assert self.table.lookup(P) == 0.85

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="heuristic"):
            self.step("gradient")


class TestHillClimbTies:
    """b keeps an independent inflow, so the grid for pair P only ever ties
    the current F1 and the tie rules decide what gets committed."""

    def setup_method(self):
        self.graph = graph_of(
            [
                ("10.0.0.1", "10.0.0.2", (1000, 2000)),
                ("10.0.0.3", "10.0.0.2", (7, 8)),
            ]
        )
        self.labels = AddressSet(["10.0.0.2"])
        self.scores = init_scores(self.graph)

    def step(self, heuristic, factor):
        table = DampingTable({P: factor, PortPair(7, 8): 0.85}, 0.85)
        return hill_climb_step(
            self.graph, self.scores, table, P, self.labels, heuristic, 1.0
        )

    def test_minimum_keeps_current(self):
        assert self.step("minimum", 0.3).lookup(P) == 0.3

    def test_maximum_always_rewrites(self):
        assert self.step("maximum", 0.3).lookup(P) == 1.0

    def test_average_commits_grid_mean(self):
        assert self.step("average", 0.3).lookup(P) == pytest.approx(0.5, abs=1e-12)

    def test_smallest_difference_returns_to_default(self):
        assert self.step("smallest_difference", 0.3).lookup(P) == 0.85


class TestHillClimbWorseGrid:
    def test_off_grid_current_kept_when_grid_is_worse(self):
        # labels {a} on a->b cannot be satisfied: every grid trial scores 0,
        # below the (synthetic) current f1, so the factor must stay put
        graph = single_edge()
        labels = AddressSet(["10.0.0.1"])
        table = DampingTable({P: 0.4321}, 0.85)
        for heuristic in HEURISTICS:
            out = hill_climb_step(
                graph, init_scores(graph), table, P, labels, heuristic, 0.5
            )
            assert out.lookup(P) == 0.4321


class TestLearn:
    def test_loop_guard_instance(self):
        records, labels = plain_star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        result = learn(graph, labels, LearnConfig(seed=7))
        assert result.best_f1 == 1.0
        assert result.iterations_run == 0
        assert result.f1_trace == [1.0]
        assert all(v == 0.85 for v in result.best_factors.factors.values())

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_star_instance_reaches_perfect_f1(self, heuristic):
        records, labels = star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        result = learn(graph, labels, LearnConfig(heuristic=heuristic, seed=7))
        assert result.best_f1 == 1.0
        assert result.iterations_run <= 1000

    def test_deterministic_under_seed(self):
        records, labels = star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        config = LearnConfig(heuristic="minimum", seed=42)
        a = learn(graph, labels, config)
        b = learn(graph, labels, config)
        assert a.f1_trace == b.f1_trace
        assert serialize(a.best_factors) == serialize(b.best_factors)

    def test_best_is_max_of_trace(self):
        records, labels = star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        result = learn(graph, labels, LearnConfig(seed=3))
        assert result.best_f1 == max(result.f1_trace)
        assert len(result.f1_trace) == result.iterations_run + 1

    def test_best_f1_monotone_in_max_iterations(self):
        records, labels = star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        best = []
        for limit in (0, 1, 2, 5, 10):
            result = learn(
                graph, labels, LearnConfig(heuristic="minimum", seed=3, max_iterations=limit)
            )
            best.append(result.best_f1)
        assert best == sorted(best)

    def test_iteration_bound_is_inclusive(self):
        # labels {a} on a->b are unreachable, so the loop must run exactly
        # max_iterations + 1 times
        graph = single_edge()
        labels = AddressSet(["10.0.0.1"])
        result = learn(graph, labels, LearnConfig(max_iterations=10, seed=0))
        assert result.iterations_run == 11
        assert len(result.f1_trace) == 12
        assert result.best_f1 == 0.0

    def test_factors_stay_in_unit_interval(self):
        graph = single_edge()
        labels = AddressSet(["10.0.0.1"])
        result = learn(
            graph, labels, LearnConfig(max_iterations=200, seed=9, heuristic="maximum")
        )
        for value in result.best_factors.factors.values():
            assert 0.0 <= value <= 1.0

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            learn(single_edge(), AddressSet([]), LearnConfig())

    def test_initial_factors_cover_all_retained_pairs(self):
        records, labels = star_instance()
        graph = build_static_graph(records, {r.port_pair() for r in records})
        result = learn(graph, labels, LearnConfig(seed=7, max_iterations=0))
        assert set(result.best_factors.factors) == set(graph.pairs)


class TestLearnConfig:
    def test_defaults(self):
        config = LearnConfig()
        assert config.max_iterations == 1000
        assert config.rw_probability == 0.1
        assert config.grid_step == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heuristic": "bogus"},
            {"rw_probability": 1.1},
            {"grid_step": 0.0},
            {"max_iterations": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LearnConfig(**kwargs)


def test_random_walk_probability_controls_dispatch(monkeypatch):
    """rw_probability=1 takes the random-walk arm every iteration; 0 never does."""
    import keyterrain.learning as learning_module

    calls = {"walk": 0}
    original = learning_module.random_walk_step

    def counting_walk(table, pair, rng):
        calls["walk"] += 1
        return original(table, pair, rng)

    monkeypatch.setattr(learning_module, "random_walk_step", counting_walk)
    graph = single_edge()
    labels = AddressSet(["10.0.0.1"])  # unreachable, keeps the loop going
    learn(graph, labels, LearnConfig(max_iterations=20, rw_probability=1.0, seed=4))
    assert calls["walk"] == 21

    calls["walk"] = 0
    learn(graph, labels, LearnConfig(max_iterations=20, rw_probability=0.0, seed=4))
    assert calls["walk"] == 0
