"""Single-pass stream updates, snapshots, and sampling."""

import io
import random
import re
from array import array

import numpy as np
import pytest

from keyterrain.labels import AddressSet
from keyterrain.pagerank import DampingTable, run_to_convergence
from keyterrain.streaming import (
    _CHUNK,
    SamplePoint,
    StreamConfig,
    StreamState,
    run_stream,
    snapshot,
    write_samples_csv,
    write_topk_csv,
)

from instances import flow, ring5_graph, ring5_stream


def table_085():
    return DampingTable({}, 0.85)


def apply_flow(state, rec, table, beta=0.5):
    """Apply one flow to ``state`` through the one update loop, ``run_stream``."""
    run_stream([rec], table, StreamConfig(beta=beta), state=state)


class TestStreamUpdate:
    def test_hand_values_first_flow(self):
        state = StreamState()
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table_085(), beta=0.5)
        a = state.vertex_index["10.0.0.1"]
        b = state.vertex_index["10.0.0.2"]
        assert state.rank_mass[a] == pytest.approx(0.15, abs=1e-12)
        assert state.rank_mass[b] == pytest.approx(0.85 * 0.15, abs=1e-12)
        assert state.active_mass[b] == pytest.approx(0.85 * 0.5 * 0.15, abs=1e-12)
        assert state.active_mass[a] == pytest.approx(0.5 * 0.15, abs=1e-12)
        assert state.flows_processed == 1

    def test_factor_one_moves_nothing(self):
        state = StreamState()
        table = DampingTable({}, 1.0)
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table, beta=0.5)
        assert state.rank_mass == array("d", [0.0, 0.0])
        assert state.active_mass == [0.0, 0.0]

    def test_beta_one_drains_source(self):
        state = StreamState()
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table_085(), beta=1.0)
        a = state.vertex_index["10.0.0.1"]
        assert state.active_mass[a] == 0.0

    def test_learned_factor_preferred_over_default(self):
        state = StreamState()
        table = DampingTable({(1, 2): 0.0}, 0.85)
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table, beta=0.5)
        a = state.vertex_index["10.0.0.1"]
        assert state.rank_mass[a] == pytest.approx(1.0, abs=1e-12)
        assert state.rank_mass[state.vertex_index["10.0.0.2"]] == 0.0

    def test_unseen_pair_uses_default(self):
        state = StreamState()
        table = DampingTable({(9, 9): 0.1}, 0.85)
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table, beta=0.5)
        a = state.vertex_index["10.0.0.1"]
        assert state.rank_mass[a] == pytest.approx(0.15, abs=1e-12)

    def test_self_flow_applies_in_order(self):
        state = StreamState()
        apply_flow(state, flow("10.0.0.1", "10.0.0.1", 1, 2, 0), table_085(), beta=0.5)
        # fresh mass 0.15, then the loop feeds it back into the same vertex
        d, fresh = 0.85, 0.15
        assert state.rank_mass[0] == pytest.approx(fresh + d * fresh, abs=1e-12)
        expected_active = (1.0 - 0.5) * (fresh + d * 0.5 * fresh)
        assert state.active_mass[0] == pytest.approx(expected_active, abs=1e-12)

    def test_masses_stay_non_negative(self):
        rng = random.Random(6)
        state = StreamState()
        table = DampingTable({}, 0.85)
        for ts in range(2000):
            rec = flow(f"10.0.0.{rng.randrange(8)}", f"10.0.0.{rng.randrange(8)}",
                       rng.randrange(3), rng.randrange(3), ts)
            apply_flow(state, rec, table, beta=rng.choice((0.25, 0.5, 1.0)))
        assert all(v >= 0.0 for v in state.rank_mass)
        assert all(v >= 0.0 for v in state.active_mass)

    def test_registry_is_append_only(self):
        state = StreamState()
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table_085())
        first = dict(state.vertex_index)
        apply_flow(state, flow("10.0.0.3", "10.0.0.1", 1, 2, 1), table_085())
        # get() registers nothing, so an IP the flows missed reads as None
        for ip, idx in first.items():
            assert state.vertex_index.get(ip) == idx
        assert state.vertex_index.get("10.0.0.3") == 2


class TestSnapshot:
    def test_normalizes_from_hand_example(self):
        state = StreamState()
        apply_flow(state, flow("10.0.0.1", "10.0.0.2", 1, 2, 0), table_085(), beta=0.5)
        scores, ranking = snapshot(state)
        total = 0.15 + 0.85 * 0.15
        assert scores[0] == pytest.approx(0.15 / total, abs=1e-12)
        assert scores[1] == pytest.approx(0.85 * 0.15 / total, abs=1e-12)
        assert ranking == ["10.0.0.1", "10.0.0.2"]

    def test_single_vertex(self):
        state = StreamState()
        state.rank_mass[state.vertex_index["10.0.0.1"]] = 3.25
        scores, ranking = snapshot(state)
        assert scores[0] == 1.0
        assert ranking == ["10.0.0.1"]

    def test_all_zero_keeps_registration_order(self):
        state = StreamState()
        for ip in ("10.0.0.3", "10.0.0.1", "10.0.0.2"):
            state.vertex_index[ip]
        scores, ranking = snapshot(state)
        assert np.array_equal(scores, np.zeros(3))
        assert ranking == ["10.0.0.3", "10.0.0.1", "10.0.0.2"]

    def test_ties_break_by_registration_order(self):
        state = StreamState()
        for ip in ("10.0.0.9", "10.0.0.1"):
            state.vertex_index[ip]
        state.rank_mass[0] = state.rank_mass[1] = 1.0
        _, ranking = snapshot(state)
        assert ranking == ["10.0.0.9", "10.0.0.1"]


class TestRunStream:
    def test_zero_flows_single_terminal_sample(self):
        samples = run_stream([], table_085(), StreamConfig())
        assert len(samples) == 1
        assert samples[0] == SamplePoint(0, 0, [], None, None)

    def test_interval_two_over_five_flows(self):
        flows = [flow("10.0.0.1", "10.0.0.2", 1, 2, ts) for ts in range(5)]
        samples = run_stream(flows, table_085(), StreamConfig(sample_interval=2))
        assert [s.flows_processed for s in samples] == [2, 4, 5]

    def test_terminal_sample_duplicates_interval_boundary(self):
        flows = [flow("10.0.0.1", "10.0.0.2", 1, 2, ts) for ts in range(6)]
        samples = run_stream(flows, table_085(), StreamConfig(sample_interval=2))
        assert [s.flows_processed for s in samples] == [2, 4, 6, 6]

    def test_labels_fill_quality_fields(self):
        flows = [flow("10.0.0.1", "10.0.0.2", 1, 2, ts) for ts in range(10)]
        labels = AddressSet(["10.0.0.2"])
        samples = run_stream(flows, table_085(), StreamConfig(top_k=1), labels)
        final = samples[-1]
        assert final.f1 is not None
        assert final.topk_tp == 1  # the destination accumulates the rank mass
        assert final.f1 == 1.0

    def test_unlabeled_quality_fields_stay_none(self):
        flows = [flow("10.0.0.1", "10.0.0.2", 1, 2, 0)]
        samples = run_stream(flows, table_085(), StreamConfig())
        assert samples[-1].f1 is None
        assert samples[-1].topk_tp is None

    def test_order_sensitivity(self):
        # permuting the stream legitimately changes the outcome
        a = flow("10.0.0.1", "10.0.0.2", 1, 2, 0)
        b = flow("10.0.0.2", "10.0.0.3", 1, 2, 1)
        first = StreamState()
        for rec in (a, b):
            apply_flow(first, rec, table_085())
        second = StreamState()
        for rec in (b, a):
            apply_flow(second, rec, table_085())
        c1 = first.rank_mass[first.vertex_index["10.0.0.3"]]
        c2 = second.rank_mass[second.vertex_index["10.0.0.3"]]
        assert c1 != c2

    def test_converges_to_static_ranking(self):
        graph = ring5_graph()
        static = run_to_convergence(graph, 0.85, tolerance=1e-12, max_iters=10000)
        static_top = graph.vertices[int(np.argmax(static.scores))]
        samples = run_stream(ring5_stream(200, seed=3), table_085(), StreamConfig(top_k=5))
        assert samples[-1].top[0][0] == static_top

    def test_state_size_tracks_vertices_not_flows(self):
        rng = random.Random(12)
        ips = [f"172.16.0.{i}" for i in range(20)]

        def flows():
            for ts in range(50_000):
                yield flow(rng.choice(ips), rng.choice(ips), 1, 2, ts)

        state = StreamState()
        run_stream(flows(), table_085(), StreamConfig(), state=state)
        assert state.flows_processed == 50_000
        assert state.n == 20
        assert len(state.rank_mass) == 20
        assert len(state.active_mass) == 20


    @pytest.mark.parametrize("k", [0, 1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5])
    def test_a_raising_source_leaves_every_flow_it_gave_applied(self, k):
        rng = random.Random(k)
        rows = [tuple(flow(f"10.0.0.{rng.randrange(9)}", f"10.0.0.{rng.randrange(9)}",
                           rng.choice((1, 9)), 2, ts)) for ts in range(k)]
        table = DampingTable({(1, 2): 0.3}, 0.85)
        config = StreamConfig(sample_interval=5)

        def source():
            yield from rows
            raise RuntimeError("source failed")

        state = StreamState()
        with pytest.raises(RuntimeError, match="source failed"):
            run_stream(source(), table, config, state=state)
        expected = StreamState()
        run_stream(rows, table, config, state=expected)
        assert state.flows_processed == k
        assert state.rank_mass.tobytes() == expected.rank_mass.tobytes()
        assert state.active_mass == expected.active_mass
        assert state.vertices == expected.vertices


    @pytest.mark.parametrize(
        "pair", [(0, 65616), (-1, 80), (80.0, 443.0), ("80", "443")],
        ids=["aliased", "negative", "float", "text"],
    )
    def test_a_table_holds_no_pair_a_flow_file_cannot(self, pair):
        # (0, 65616) would alias (1, 80) in a block's pair key, and no flow of
        # a file has a float or text port, so each would match no flow
        message = f"^port pair {re.escape(str(pair))}: ports must be ints in 0..65535$"
        with pytest.raises(ValueError, match=message):
            DampingTable({(22, 80): 0.3, pair: 0.5})
        with pytest.raises(ValueError, match=message):
            DampingTable({(22, 80): 0.3}).with_factor(pair, 0.5)


class TestStreamConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"beta": 0.0}, {"beta": 1.2}, {"sample_interval": -1}, {"top_k": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)


class TestWriters:
    def test_samples_csv(self):
        samples = [
            SamplePoint(2, 2, [("10.0.0.1", 0.6)], 0.5, 1),
            SamplePoint(4, 3, [("10.0.0.1", 0.5)], None, None),
        ]
        buf = io.StringIO()
        write_samples_csv(samples, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "flows_processed,vertices_seen,f1,topk_tp"
        assert lines[1] == "2,2,0.5,1"
        assert lines[2] == "4,3,,"

    def test_topk_csv(self):
        sample = SamplePoint(2, 2, [("10.0.0.1", 0.625), ("10.0.0.2", 0.375)])
        buf = io.StringIO()
        write_topk_csv(sample, buf)
        assert buf.getvalue() == "rank,ip,score\n1,10.0.0.1,0.625\n2,10.0.0.2,0.375\n"
