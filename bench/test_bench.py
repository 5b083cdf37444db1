"""Tests of the benchmark itself: input determinism, reference computations, output checks.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from keyterrain import cli  # noqa: E402
from keyterrain.flows import FlowRecord, PortPair  # noqa: E402
from keyterrain.graph import build_static_graph, count_port_pairs, filter_port_pairs  # noqa: E402
from keyterrain.labels import AddressSet  # noqa: E402
from keyterrain.learning import LearnConfig, learn  # noqa: E402
from keyterrain.pagerank import DampingTable, default_iteration, init_scores  # noqa: E402
from keyterrain.streaming import StreamState, run_stream  # noqa: E402

# A small shuffled export with re-exported duplicates and periodic samples, so
# every check has something to bite on.
TINY = dataclasses.replace(
    workloads.WORKLOADS["ingest_stream"], flows=3000, ips=120, servers=12, critical=12,
    pairs=8, pair_fraction=0.01, learn_iterations=3, sample_interval=700, top_k=20,
    decoys=2,
)

A, B, C, D = "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = workloads.write_inputs(workloads.generate(TINY, 7), tmp_path / "a")
    second = workloads.write_inputs(workloads.generate(TINY, 7), tmp_path / "b")
    other = workloads.write_inputs(workloads.generate(TINY, 8), tmp_path / "c")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes()
    assert first["flows"].read_bytes() != other["flows"].read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_repeat_for_a_seed(name):
    w = dataclasses.replace(workloads.WORKLOADS[name], flows=20_000)
    assert workloads.generate(w, 3) == workloads.generate(w, 3)


def test_generator_plants_only_the_intended_duplicates():
    gen = workloads.generate(TINY, 1)
    planted = int((len(gen.rows) / (1 + TINY.duplicate_share)) * TINY.duplicate_share)
    assert len(gen.rows) - len(gen.distinct_keys()) == pytest.approx(planted, abs=1)
    assert [r[1] for r in gen.rows] == sorted(r[1] for r in gen.rows)  # export order: by end


# --- reference computations against hand-checked answers and the program ---

def test_expected_prepared_by_hand_and_against_the_program(tmp_path):
    rows = [
        (20, 25, A, B, 1000, 80),
        (10, 15, C, B, 1001, 443),
        (20, 30, A, B, 1000, 80),  # re-export of the first row
        (10, 12, D, B, 1002, 443),
    ]
    want = [rows[1], rows[3], rows[0]]
    assert reference.expected_prepared(rows) == want

    raw = tmp_path / "raw.csv"
    raw.write_text(workloads.HEADER + "".join(reference.csv_line(r) + "\n" for r in rows))
    out = tmp_path / "prepared.csv"
    assert cli.main(["prepare", "--flows", str(raw), "--out", str(out), "--sort", "start",
                     "--dedupe"]) == 0
    assert reference.check_prepared(out, {reference.dedupe_key(r) for r in rows}, want) == []
    assert out.read_text() == workloads.HEADER + "".join(reference.csv_line(r) + "\n" for r in want)


# Seven-row learning prefix (of ten rows): pair (1, 80) is on 6 of the 7 prefix
# flows and survives a 0.2 fraction; (2, 80) is on one and does not.
PREPARED = [
    (1, 1, A, B, 1, 80), (2, 2, A, B, 1, 80), (3, 3, A, B, 1, 80), (4, 4, C, B, 2, 80),
    (5, 5, B, A, 1, 80), (6, 6, A, C, 1, 80), (7, 7, C, A, 1, 80),
    (8, 8, D, A, 1, 80), (9, 9, D, B, 1, 80), (10, 10, D, C, 1, 80),
]


def program_graph(rows, split=0.7, fraction=0.2):
    records = [FlowRecord(r[2], r[3], r[4], r[5], r[0], r[1]) for r in rows]
    prefix = records[: int(len(records) * split)]
    return build_static_graph(prefix, filter_port_pairs(count_port_pairs(prefix), fraction))


def test_learning_graph_by_hand_and_against_the_program():
    g = reference.LearningGraph(PREPARED, 0.7, 0.2)
    assert g.retained == {(1, 80)}
    assert g.vertices == [A, B, C]
    assert g.edge_count == 6
    assert g.edges == {(A, B, 1, 80): 3, (B, A, 1, 80): 1, (A, C, 1, 80): 1, (C, A, 1, 80): 1}
    program = program_graph(PREPARED)
    assert program.vertices == g.vertices
    assert program.edge_count == g.edge_count
    assert set(program.pairs) == {PortPair(*p) for p in g.retained}


def test_uniform_step_f1_by_hand_and_against_the_learner():
    # A receives 1/1 + 1/1 = 2 > 1: critical; B receives 3/4 and C 1/4: not.
    # Labels {A, B}: tp 1, fn 1, fp 0, so F1 = 2/3.
    g = reference.LearningGraph(PREPARED, 0.7, 0.2)
    assert reference.uniform_step_f1(g, {A, B}) == {2 / 3}
    result = learn(program_graph(PREPARED), AddressSet([A, B]), LearnConfig(max_iterations=0))
    assert reference.matches(result.f1_trace[0], {2 / 3})


def test_uniform_step_f1_accepts_either_side_of_a_tie():
    # A -> B and B -> A only: each receives exactly what it gives up. With
    # labels {A}: A alone called critical gives 1, both 2/3, A not called 0.
    rows = [(1, 1, A, B, 1, 80), (2, 2, B, A, 1, 80)]
    g = reference.LearningGraph(rows, 1.0, 0.0)
    assert reference.uniform_step_f1(g, {A}) == {0.0, 2 / 3, 1.0}


def test_power_iteration_by_hand_and_against_the_program():
    # one step from 1/3: A gathers 1/3 + 1/3, B 3 * (1/3) / 4, C (1/3) / 4
    g = reference.LearningGraph(PREPARED, 0.7, 0.2)
    scores, deltas = reference.power_iteration(g, 0.85, 1)
    by_hand = [0.05 + 0.85 * 2 / 3, 0.05 + 0.85 / 4, 0.05 + 0.85 / 12]
    assert scores == pytest.approx(by_hand, rel=1e-12)
    assert deltas[0] == pytest.approx(sum(abs(x - 1 / 3) for x in by_hand), rel=1e-12)
    graph = program_graph(PREPARED)
    assert default_iteration(graph, init_scores(graph), 0.85) == pytest.approx(by_hand, rel=1e-12)


def test_replay_stream_by_hand_and_against_the_program():
    rows = [(1, 1, A, B, 1, 80), (2, 2, B, A, 2, 80)]
    order, rank = reference.replay_stream(rows, {(1, 80): 0.5}, 0.85, 0.5)
    # flow 1 (d 0.5): A +0.5, B +0.25, active A 0.25, B 0.125
    # flow 2 (d 0.85): B +0.15 -> 0.4, active B 0.275, A +0.85 * 0.275
    assert order == [A, B]
    assert rank == pytest.approx([0.5 + 0.85 * 0.275, 0.4], rel=1e-12)
    state = StreamState()
    records = [FlowRecord(r[2], r[3], r[4], r[5], r[0], r[1]) for r in rows]
    run_stream(records, DampingTable({PortPair(1, 80): 0.5}), state=state)
    assert state.vertices == order
    assert state.rank_mass == pytest.approx(rank, rel=1e-12)


# --- the output checks: silent on good outputs, loud on corrupted ones ---

@pytest.fixture(scope="module")
def tiny_round(tmp_path_factory):
    """One in-process round of the four commands on TINY; outputs are left untouched."""
    base = tmp_path_factory.mktemp("tiny")
    gen = workloads.generate(TINY, 5)
    rnd = harness.Round(TINY, 5, workloads.write_inputs(gen, base / "inputs"), base / "out")
    for command in harness.COMMANDS:
        assert cli.main(rnd.args(command)) == 0
    return rnd, gen


@pytest.fixture
def copied(tiny_round, tmp_path):
    """A private copy of the tiny round's outputs that a test may corrupt."""
    rnd, gen = tiny_round
    shutil.copytree(rnd.out, tmp_path / "out")
    return harness.Round(rnd.w, rnd.seed, rnd.inputs, tmp_path / "out"), gen


def test_good_outputs_pass_every_check(tiny_round):
    rnd, gen = tiny_round
    problems, values = harness.check_round(rnd, gen)
    assert problems == []
    assert values["learn_best_f1"] > 0
    assert values["stream_topk_tp"] > 0


def test_check_rejects_two_swapped_prepared_rows(copied):
    rnd, gen = copied
    lines = rnd.prepared.read_text().splitlines(keepends=True)
    i = next(i for i in range(1, len(lines) - 1) if lines[i] != lines[i + 1])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    rnd.prepared.write_text("".join(lines))
    problems = reference.check_prepared(rnd.prepared, gen.distinct_keys(),
                                        reference.expected_prepared(gen.rows))
    assert any("differs from the stable sort" in p for p in problems)


def test_check_rejects_a_duplicate_left_in(copied):
    rnd, gen = copied
    with open(rnd.prepared, "a") as fh:
        fh.write(reference.csv_line(reference.expected_prepared(gen.rows)[-1]) + "\n")
    problems = reference.check_prepared(rnd.prepared, gen.distinct_keys(),
                                        reference.expected_prepared(gen.rows))
    assert any("one per distinct key" in p for p in problems)


def learn_problems(rnd, gen):
    expected = reference.expected_prepared(gen.rows)
    graph = reference.LearningGraph(expected, harness.LEARN_SPLIT, rnd.w.pair_fraction)
    return reference.check_learn(rnd.learn_dir, graph, set(gen.labels))


def test_check_rejects_a_factor_outside_the_unit_interval(copied):
    rnd, gen = copied
    path = rnd.learn_dir / "factors.csv"
    lines = path.read_text().splitlines()
    src, dst, _ = lines[1].split(",")
    lines[1] = f"{src},{dst},1.5"
    path.write_text("\n".join(lines) + "\n")
    assert any("outside [0, 1]" in p for p in learn_problems(rnd, gen))


def test_check_rejects_a_missing_graph_edge(copied):
    rnd, gen = copied
    path = rnd.learn_dir / "graph_edges.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    assert any("graph_edges.csv differs" in p for p in learn_problems(rnd, gen))


def test_check_rejects_a_wrong_first_trace_value(copied):
    rnd, gen = copied
    path = rnd.learn_dir / "f1_trace.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0,0.123"
    path.write_text("\n".join(lines) + "\n")
    problems = learn_problems(rnd, gen)
    assert any("uniform-0.85" in p or "best_f1" in p for p in problems)


def test_check_rejects_a_wrong_baseline_f1(copied):
    rnd, gen = copied
    path = rnd.baseline_dir / "baseline.json"
    result = json.loads(path.read_text())
    result["default_pagerank"]["f1"] += 0.01
    path.write_text(json.dumps(result))
    expected = reference.expected_prepared(gen.rows)
    graph = reference.LearningGraph(expected, harness.LEARN_SPLIT, rnd.w.pair_fraction)
    problems = reference.check_baseline(rnd.baseline_dir, graph, set(gen.labels),
                                        harness.DAMPING, rnd.w.baseline_tolerance)
    assert any("reference power iteration" in p for p in problems)


def stream_problems(rnd, gen):
    return reference.check_stream(rnd.stream_dir, reference.expected_prepared(gen.rows),
                                  rnd.learn_dir / "factors.csv", set(gen.labels),
                                  harness.BETA, rnd.w.sample_interval, rnd.w.top_k)


def test_check_rejects_one_altered_topk_score(copied):
    rnd, gen = copied
    final = json.loads((rnd.stream_dir / "summary.json").read_text())["samples"][-1]
    path = rnd.stream_dir / final["topk_file"]
    lines = path.read_text().splitlines()
    rank, ip, score = lines[3].split(",")
    lines[3] = f"{rank},{ip},{float(score) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")
    assert any("differs from the replay" in p for p in stream_problems(rnd, gen))


def test_check_rejects_a_miscounted_topk_tp(copied):
    rnd, gen = copied
    path = rnd.stream_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["samples"][-1]["topk_tp"] += 1
    path.write_text(json.dumps(summary))
    assert any("labelled IPs in top-k" in p for p in stream_problems(rnd, gen))


def test_check_rejects_a_missing_sample(copied):
    rnd, gen = copied
    sorted(rnd.stream_dir.glob("topk_*.csv"))[0].unlink()
    assert any("samples, expected" in p for p in stream_problems(rnd, gen))


# --- tracing and the command line ---

def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        {"id": 0, "parent": None, "name": "cli.learn", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "graph.build", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "learning.learn", "start": 4.0, "end": 9.0},
        {"id": 3, "parent": 2, "name": "pagerank.step", "start": 5.0, "end": 7.0},
        {"id": 4, "parent": None, "name": "probe.other", "start": 11.0, "end": 12.0},
    ]
    assert tracer.self_times("cli.") == {"cli": 2.0, "graph": 3.0, "learning": 3.0,
                                         "pagerank": 2.0}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "learn_static", "--seed", "1", "--seconds", "1"]) == 2
    assert not (tmp_path / "bench").exists()
