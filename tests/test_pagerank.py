"""Iteration rules, convergence driving, damping tables, and classification."""

import io
import random

import numpy as np
import pytest

from keyterrain.graph import StaticGraph
from keyterrain.flows import PortPair
from keyterrain.pagerank import (
    DampingTable,
    adjusted_iteration,
    classify,
    contraction_bound,
    default_iteration,
    edge_factor_values,
    init_scores,
    load_damping_table,
    read_damping_table,
    run_adjusted_to_convergence,
    run_to_convergence,
    save_damping_table,
    write_damping_table,
)

from instances import (
    PORT_POOL,
    adjusted_closed_form,
    adjusted_fixed_point,
    adjusted_linear_part,
    dense_power_iteration,
    graph_of,
    ip_of,
    random_damping_table,
    random_multigraph,
    step_rounding,
    vertex_of,
    without_dangling,
)

P = PortPair(1000, 2000)


def two_cycle():
    return graph_of([("10.0.0.1", "10.0.0.2", (1, 2)), ("10.0.0.2", "10.0.0.1", (2, 1))])


def three_vertex():
    # a feeds b and c; both feed back into a
    return graph_of(
        [
            ("10.0.0.1", "10.0.0.2", (1, 2)),
            ("10.0.0.1", "10.0.0.3", (1, 3)),
            ("10.0.0.2", "10.0.0.1", (2, 1)),
            ("10.0.0.3", "10.0.0.1", (3, 1)),
        ]
    )


def single_edge():
    return graph_of([("10.0.0.1", "10.0.0.2", (1000, 2000))])


class TestInitScores:
    def test_quarter(self):
        graph = graph_of([(ip_of(i), ip_of(i + 1), (1, 2)) for i in range(3)])
        assert graph.n == 4
        assert np.array_equal(init_scores(graph), np.full(4, 0.25))

    def test_single_vertex(self):
        graph = graph_of([("10.0.0.1", "10.0.0.1", (1, 2))])
        assert np.array_equal(init_scores(graph), np.array([1.0]))

    def test_sums_to_one(self):
        graph = three_vertex()
        scores = init_scores(graph)
        assert len(set(scores)) == 1
        assert scores.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            init_scores(StaticGraph([], [], [], []))


class TestDefaultIteration:
    def test_two_cycle_fixed_point(self):
        graph = two_cycle()
        out = default_iteration(graph, np.array([0.5, 0.5]), 0.85)
        assert out == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_three_vertex_hand_values(self):
        graph = three_vertex()
        out = default_iteration(graph, init_scores(graph), 0.85)
        a = vertex_of(graph, "10.0.0.1")
        b = vertex_of(graph, "10.0.0.2")
        c = vertex_of(graph, "10.0.0.3")
        assert out[a] == pytest.approx(0.05 + 0.85 * (2.0 / 3.0), abs=1e-12)
        assert out[b] == pytest.approx(0.05 + 0.85 / 6.0, abs=1e-12)
        assert out[c] == pytest.approx(0.05 + 0.85 / 6.0, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_damping_is_uniform(self):
        graph = three_vertex()
        out = default_iteration(graph, np.array([0.7, 0.2, 0.1]), 0.0)
        assert out == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_prev_not_modified(self):
        graph = three_vertex()
        prev = init_scores(graph)
        before = prev.copy()
        default_iteration(graph, prev, 0.85)
        assert np.array_equal(prev, before)

    def test_damping_bounds(self):
        with pytest.raises(ValueError):
            default_iteration(two_cycle(), np.array([0.5, 0.5]), 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            default_iteration(two_cycle(), np.array([0.5]), 0.85)

    @pytest.mark.parametrize("seed", range(10))
    def test_mass_preserved_without_dangling(self, seed):
        # with every vertex owning an outgoing edge the iteration keeps the total at 1
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 120))]
        edges = without_dangling(edges, n, rng)
        graph = graph_of([(ip_of(u), ip_of(v), (1, 2)) for u, v in edges])
        scores = init_scores(graph)
        for _ in range(50):
            scores = default_iteration(graph, scores, 0.85)
            assert abs(scores.sum() - 1.0) <= 1e-9

    def test_dangling_leaks_mass(self):
        out = default_iteration(single_edge(), np.array([0.5, 0.5]), 0.85)
        assert out.sum() < 1.0  # literal rule: no teleport redistribution


class TestAdjustedIteration:
    def test_single_edge_hand_values(self):
        graph = single_edge()
        table = DampingTable({PortPair(1000, 2000): 0.85})
        out = adjusted_iteration(graph, np.array([0.5, 0.5]), table)
        a = vertex_of(graph, "10.0.0.1")
        b = vertex_of(graph, "10.0.0.2")
        assert out[a] == pytest.approx(0.5 - 0.85 * 0.5, abs=1e-12)
        assert out[b] == pytest.approx(0.5 + 0.85 * 0.5, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_edgeless_graph_gives_uniform(self):
        graph = StaticGraph(["10.0.0.1", "10.0.0.2"], [], [], [])
        factors = edge_factor_values(graph, DampingTable())
        assert factors.dtype == float and factors.shape == (0,)
        out = adjusted_iteration(graph, np.array([0.7, 0.3]), DampingTable())
        assert out.tolist() == [0.5, 0.5]

    def test_all_zero_factors_give_uniform(self):
        graph = three_vertex()
        table = DampingTable({pair: 0.0 for pair in graph.pairs})
        out = adjusted_iteration(graph, np.array([0.6, 0.3, 0.1]), table)
        assert out == pytest.approx([1 / 3] * 3, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_mass_conserved_on_random_multigraphs(self, seed):
        rng = random.Random(1000 + seed)
        graph = random_multigraph(rng, max_n=30, max_edges=200)
        table = random_damping_table(rng, graph)
        scores = init_scores(graph)
        for _ in range(25):
            scores = adjusted_iteration(graph, scores, table)
            assert abs(scores.sum() - 1.0) <= 1e-9

    def test_prev_not_modified(self):
        graph = three_vertex()
        prev = np.array([0.2, 0.5, 0.3])
        before = prev.copy()
        adjusted_iteration(graph, prev, DampingTable())
        assert np.array_equal(prev, before)

    def test_divergent_tables_conserve_relative_to_peak(self):
        # a 2-cycle with factor-1.0 edges doubles deviations every step, so
        # the scores legitimately blow up; conservation then holds relative
        # to the trajectory peak (absolute bounds stop being representable)
        graph = two_cycle()
        table = DampingTable({pair: 1.0 for pair in graph.pairs})
        scores = np.array([0.6, 0.4])
        for _ in range(60):
            scores = adjusted_iteration(graph, scores, table)
            peak = float(np.max(np.abs(scores)))
            assert abs(float(scores.sum()) - 1.0) <= 1e-13 * max(1.0, peak)
        assert float(np.max(np.abs(scores))) > 1e10

    def test_negative_scores_not_clamped(self):
        # a hub holding most of the mass with factor-1.0 outgoing edges must
        # go negative; clamping would break the cancellation that keeps
        # the total at 1
        graph = graph_of(
            [
                ("10.0.0.1", "10.0.0.9", (1, 2)),
                ("10.0.0.2", "10.0.0.9", (1, 2)),
                ("10.0.0.9", "10.0.0.1", (2, 1)),
            ]
        )
        table = DampingTable({pair: 1.0 for pair in graph.pairs})
        prev = np.zeros(graph.n)
        prev[vertex_of(graph, "10.0.0.9")] = 0.9
        prev[vertex_of(graph, "10.0.0.1")] = 0.05
        prev[vertex_of(graph, "10.0.0.2")] = 0.05
        out = adjusted_iteration(graph, prev, table)
        assert out[vertex_of(graph, "10.0.0.9")] < 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_factor_matches_closed_form(self, seed):
        rng = random.Random(40 + seed)
        graph = random_multigraph(rng, max_n=15, max_edges=60)
        factor = rng.random()
        table = DampingTable({pair: factor for pair in graph.pairs}, factor)
        prev = np.array([rng.random() for _ in range(graph.n)])
        prev /= prev.sum()
        out = adjusted_iteration(graph, prev, table)
        expected = adjusted_closed_form(graph, prev, factor)
        assert out == pytest.approx(expected, abs=1e-12)

    def test_unstored_pair_resolves_to_default(self):
        graph = single_edge()
        out = adjusted_iteration(graph, np.array([0.5, 0.5]), DampingTable({}, 0.4))
        a = vertex_of(graph, "10.0.0.1")
        assert out[a] == pytest.approx(0.5 - 0.4 * 0.5, abs=1e-12)


def drive(driver, graph, **kwargs):
    if driver == "default":
        return run_to_convergence(graph, 0.85, **kwargs)
    return run_adjusted_to_convergence(graph, DampingTable(), **kwargs)


class TestConvergence:
    def test_two_cycle_one_check(self):
        result = run_to_convergence(two_cycle(), 0.85)
        assert result.converged
        assert result.iterations == 1
        assert result.scores == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_dense_oracle(self):
        rng = random.Random(77)
        for _ in range(5):
            n = rng.randint(2, 10)
            edges = without_dangling(
                [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 25))],
                n,
                rng,
            )
            graph = graph_of([(ip_of(u), ip_of(v), (1, 2)) for u, v in edges])
            index = {ip_of(u): u for u in range(n)}
            result = run_to_convergence(graph, 0.85, tolerance=1e-12, max_iters=10000)
            oracle = dense_power_iteration(n, edges, 0.85, 1e-12, 10000)
            for vid, ip in enumerate(graph.vertices):
                assert result.scores[vid] == pytest.approx(oracle[index[ip]], abs=1e-8)

    def test_zero_damping_converges_in_one_iteration(self):
        result = run_to_convergence(three_vertex(), 0.0)
        assert result.converged
        assert result.iterations == 1
        assert result.scores == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_non_convergence_flagged(self):
        result = run_to_convergence(three_vertex(), 0.85, tolerance=1e-15, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    def test_adjusted_driver(self):
        graph = two_cycle()
        result = run_adjusted_to_convergence(graph, DampingTable())
        assert result.converged
        assert result.scores.sum() == pytest.approx(1.0, abs=1e-9)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            run_to_convergence(two_cycle(), 0.85, tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [-1e-9, float("inf"), float("nan")])
    @pytest.mark.parametrize("driver", ["default", "adjusted"])
    def test_tolerance_must_be_finite_and_positive(self, driver, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
            drive(driver, three_vertex(), tolerance=tolerance)

    @pytest.mark.parametrize("driver", ["default", "adjusted"])
    def test_negative_max_iters_rejected(self, driver):
        with pytest.raises(ValueError, match="max_iters must be non-negative"):
            drive(driver, three_vertex(), max_iters=-5)

    def test_adjusted_driver_takes_half_steps(self):
        # the driver merges parallel edges once per run, so after k steps it
        # matches k half steps of adjusted_iteration up to rounding, which the
        # contraction keeps from accumulating; and it stops at the first step
        # whose change is under the tolerance
        rng = random.Random(5)
        for _ in range(20):
            graph = random_multigraph(rng, max_n=12, max_edges=40)
            table = random_damping_table(rng, graph)
            scores = init_scores(graph)
            for k in range(1, 31):
                nxt = 0.5 * (scores + adjusted_iteration(graph, scores, table))
                delta = float(np.sum(np.abs(nxt - scores)))
                scores = nxt
                result = run_adjusted_to_convergence(graph, table, 1e-300, max_iters=k)
                slack = 4 * step_rounding(graph, scores)
                assert float(np.sum(np.abs(result.scores - scores))) <= slack
                assert abs(result.delta - delta) <= 2 * slack
            tolerance = rng.choice([1e-3, 1e-9, 1e-15])
            result = run_adjusted_to_convergence(graph, table, tolerance, max_iters=60)
            assert result.converged == (result.delta < tolerance)
            if result.iterations > 1:
                before = run_adjusted_to_convergence(
                    graph, table, tolerance, max_iters=result.iterations - 1
                )
                assert not before.delta < tolerance

    def test_adjusted_driver_reaches_the_fixed_point(self):
        # the half step contracts by 1/2, so a converged vector lies within
        # its last change of the fixed point, up to the step's rounding
        rng = random.Random(9)
        for _ in range(100):
            graph = random_multigraph(rng)
            table = random_damping_table(rng, graph)
            tolerance = rng.choice([1e-6, 1e-12, 1e-15])
            result = run_adjusted_to_convergence(graph, table, tolerance, max_iters=100)
            assert result.converged
            fixed = adjusted_fixed_point(graph, table)
            gap = float(np.sum(np.abs(result.scores - fixed)))
            assert gap <= tolerance + 2 * step_rounding(graph, fixed)

    def test_adjusted_driver_converges_at_1e_15_past_a_parallel_edge_hub(self):
        # a hub on half of 50k edges: summed edge by edge, its incoming
        # share rounds differently at every step, and half steps of
        # adjusted_iteration stall near 1.2e-15 here; merged per neighbour
        # the driver's change falls to about 1.6e-17
        rng = random.Random(5)
        rows = []
        for _ in range(50_000):
            u, v = rng.randrange(300), 0 if rng.random() < 0.5 else rng.randrange(300)
            if rng.random() < 0.5:
                u, v = v, u
            rows.append((u, v, (rng.choice(PORT_POOL) << 16) | rng.choice(PORT_POOL)))
        graph = StaticGraph([ip_of(i) for i in range(300)], *zip(*rows))
        result = run_adjusted_to_convergence(graph, DampingTable(), 1e-15, max_iters=50)
        assert result.converged
        assert abs(result.scores.sum() - 1.0) <= 1e-14

    def test_drivers_agree_where_the_plain_step_converges(self):
        # plain steps x -> 1/n + Mx stop with x_K - x* = M (M - I)^-1 (x_K - x_K-1),
        # so the plain run's own error is up to ||M (I - M)^-1||_1 times its
        # last change
        rng = random.Random(13)
        tolerance = 1e-12
        agreed = 0
        for _ in range(60):
            graph = random_multigraph(rng, max_n=20, max_edges=80)
            table = random_damping_table(rng, graph)
            plain = init_scores(graph)
            for _ in range(3000):
                nxt = adjusted_iteration(graph, plain, table)
                delta = float(np.sum(np.abs(nxt - plain)))
                plain = nxt
                if not delta >= tolerance:
                    break
            if not delta < tolerance:
                continue
            m = adjusted_linear_part(graph, table)
            spread = np.abs(m @ np.linalg.inv(np.eye(graph.n) - m)).sum(axis=0).max()
            half = run_adjusted_to_convergence(graph, table, tolerance, max_iters=100).scores
            gap = float(np.sum(np.abs(half - plain)))
            assert gap <= (1 + spread) * tolerance + 4 * step_rounding(graph, plain)
            agreed += 1
        assert agreed >= 30

    def test_two_cycle_plain_step_oscillates_half_step_contracts(self):
        # A <-> B at 0.85: M has eigenvalue -1.7, so a plain step multiplies
        # the deviation from the fixed point by -1.7 and a half step by -0.35
        graph = two_cycle()
        table = DampingTable()
        assert contraction_bound(graph, table) == pytest.approx(1.7, abs=1e-15)
        scores = np.array([0.6, 0.4])
        plain = adjusted_iteration(graph, scores, table)
        assert plain - 0.5 == pytest.approx(-1.7 * (scores - 0.5), abs=1e-15)
        half = 0.5 * (scores + plain)
        assert half - 0.5 == pytest.approx(-0.35 * (scores - 0.5), abs=1e-15)

    @pytest.mark.parametrize("driver", ["default", "adjusted"])
    def test_zero_max_iters_returns_uniform_start(self, driver):
        result = drive(driver, three_vertex(), max_iters=0)
        assert not result.converged
        assert result.iterations == 0
        assert result.delta == float("inf")
        assert result.scores.tolist() == [1 / 3] * 3


class TestClassify:
    def test_two_vertex(self):
        assert classify(np.array([0.075, 0.925])).tolist() == [False, True]

    def test_uniform_is_empty(self):
        assert not classify(np.full(4, 0.25)).any()

    def test_three_vertex(self):
        assert classify(np.array([0.4, 0.3, 0.3])).tolist() == [True, False, False]

    def test_empty_vector(self):
        with pytest.raises(ValueError):
            classify(np.array([]))

    def test_permutation_equivariance(self):
        rng = random.Random(31)
        scores = np.array([rng.random() for _ in range(20)])
        perm = list(range(20))
        rng.shuffle(perm)
        permuted = scores[perm]
        assert np.array_equal(classify(permuted), classify(scores)[perm])


class TestDampingTable:
    def test_lookup_prefers_stored(self):
        table = DampingTable({P: 0.2}, 0.85)
        assert table.lookup(P) == 0.2
        assert table.lookup(PortPair(1, 1)) == 0.85

    def test_with_factor_does_not_mutate(self):
        table = DampingTable({P: 0.2})
        updated = table.with_factor(P, 0.9)
        assert table.lookup(P) == 0.2
        assert updated.lookup(P) == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            DampingTable({P: 1.5})
        with pytest.raises(ValueError):
            DampingTable({}, -0.1)
        with pytest.raises(ValueError):
            DampingTable().with_factor(P, 2.0)

    def test_round_trip(self):
        table = DampingTable(
            {P: 0.1 + 0.2, PortPair(443, 50000): 0.05, PortPair(0, 65535): 1.0},
            0.85,
        )
        buf = io.StringIO()
        write_damping_table(table, buf)
        buf.seek(0)
        assert read_damping_table(buf) == table

    def test_tuple_keyed_table_round_trips(self, tmp_path):
        # the constructor and lookup take plain (src, dst) keys as well
        table = DampingTable({(443, 50000): 0.05, (80, 443): 0.3}, 0.7)
        path = tmp_path / "factors.csv"
        save_damping_table(table, path)
        assert load_damping_table(path) == table

    def test_file_round_trip(self, tmp_path):
        table = DampingTable({P: 0.123456789012345}, 0.7)
        path = tmp_path / "factors.csv"
        save_damping_table(table, path)
        assert load_damping_table(path) == table

    def test_serialization_is_sorted_and_stable(self):
        table = DampingTable({PortPair(2, 2): 0.5, PortPair(1, 9): 0.25}, 0.85)
        buf = io.StringIO()
        write_damping_table(table, buf)
        assert buf.getvalue() == "default,0.85\n1,9,0.25\n2,2,0.5\n"

    def test_missing_default_line_falls_back(self):
        table = read_damping_table(["80,443,0.3\n"])
        assert table.default_factor == 0.85
        assert table.lookup(PortPair(80, 443)) == 0.3

    @pytest.mark.parametrize(
        "line",
        ["80,443\n", "80,443,0.3,9\n", "70000,443,0.3\n", "80,443,abc\n", "80,443,1.5\n"],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError, match="line 1|out of"):
            read_damping_table([line])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("80,443,0.5\n", "repeated pair (80, 443)"),
            ("default,0.5\n", "repeated default line"),
            ("22,80,1.5\n", "damping out of [0, 1]: 1.5"),
            ("22,80,nan\n", "damping out of [0, 1]: nan"),
        ],
    )
    def test_bad_third_line_rejected_with_its_number(self, line, message):
        lines = ["default,0.85\n", "80,443,0.3\n", line]
        with pytest.raises(ValueError) as info:
            read_damping_table(lines)
        assert str(info.value) == f"damping table line 3: {message}"

    def test_bad_default_rejected_with_its_number(self):
        with pytest.raises(ValueError) as info:
            read_damping_table(["80,443,0.3\n", "default,-0.1\n"])
        assert str(info.value) == "damping table line 2: damping out of [0, 1]: -0.1"

    def test_bad_port_worded_like_a_flow_port(self):
        with pytest.raises(ValueError, match=r"^damping table line 2: bad port 'x'$"):
            read_damping_table(["default,0.85\n", "x,443,0.3\n"])
