"""Traced in-process run: spans around every call into a module's public functions.

The pass mirrors what the four CLI commands do, calling the library directly:

    cli.prepare   flows.parse, flows.sort, flows.dedupe, flows.write
    cli.learn     flows.parse, flows.dedupe, graph.census, graph.build, learning.learn
    cli.baseline  flows.parse, flows.dedupe, graph.census, graph.build, pagerank.converge
    cli.stream    flows.parse, streaming.run

followed by ``probe`` spans that time single calls (one iteration, one grid,
one sample, ...) a few times each. Spans carry a name, start, end and parent,
stay in memory, and are written to one JSON file when the pass ends. A
layer's self time is the time its spans cover minus the time their child
spans cover; the per-layer shares are taken over the ``cli.*`` spans only.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import harness

PROBE_REPEATS = 7


class Tracer:
    """Spans in memory: (id, parent id, name, start, end), times from perf_counter."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, root_prefix: str) -> dict[str, float]:
        """Self time per layer (name before the first dot) under roots named ``root_prefix*``."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        totals: dict[str, float] = defaultdict(float)

        def walk(s):
            own = s["end"] - s["start"] - sum(c["end"] - c["start"] for c in children[s["id"]])
            totals[s["name"].split(".", 1)[0]] += own
            for c in children[s["id"]]:
                walk(c)

        for s in self.spans:
            if s["parent"] is None and s["name"].startswith(root_prefix):
                walk(s)
        return dict(totals)

    def write(self, path: Path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


@contextmanager
def counting_spills(directory: Path):
    """Count temporary files opened while the block runs, with ``directory`` as tempdir."""
    count = [0]
    original_file, original_dir = tempfile.TemporaryFile, tempfile.tempdir

    def counted(*args, **kwargs):
        count[0] += 1
        return original_file(*args, **kwargs)

    tempfile.TemporaryFile, tempfile.tempdir = counted, str(directory)
    try:
        yield count
    finally:
        tempfile.TemporaryFile, tempfile.tempdir = original_file, original_dir


def _read(kt, tracer, path: Path) -> list:
    with tracer.span("flows.parse"), open(path, encoding="utf-8", newline="") as fh:
        return list(kt.parse_flows(fh))


def _learning_graph(kt, tracer, path: Path, split: float, fraction: float):
    records = _read(kt, tracer, path)
    with tracer.span("flows.dedupe"):
        learning = list(kt.dedupe_flows(records[: int(len(records) * split)]))
    del records
    with tracer.span("graph.census"):
        retained = kt.filter_port_pairs(kt.count_port_pairs(learning), fraction)
    with tracer.span("graph.build"):
        return kt.build_static_graph(learning, retained)


def _probe(tracer: Tracer, name: str, call, repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of ``repeats`` traced calls."""
    for _ in range(repeats):
        with tracer.span(name):
            call()
    return statistics.median(tracer.seconds(name))


def traced_pass(kt, rnd, work: Path) -> tuple:
    """Run the pipeline in-process under a tracer; returns (tracer, metrics, results)."""
    w = rnd.w
    split, beta, damping = harness.LEARN_SPLIT, harness.BETA, harness.DAMPING
    tracer = Tracer()
    m: dict[str, float] = {}
    prepared = work / "traced_prepared.csv"
    labels = kt.AddressSet.from_file(rnd.inputs["labels"])

    with tracer.span("cli.prepare"):
        records = _read(kt, tracer, rnd.inputs["flows"])
        rows = len(records)
        with counting_spills(work / "tmp") as spills, tracer.span("flows.sort"):
            ordered = list(kt.sort_flows(records, key="start"))
        del records
        with tracer.span("flows.dedupe"):
            deduped = list(kt.dedupe_flows(ordered))
        del ordered
        with tracer.span("flows.write"), open(prepared, "w", encoding="utf-8", newline="") as fh:
            written = kt.write_flows(deduped, fh)
        del deduped
    m["flows.parse_rows_per_s"] = rows / tracer.seconds("flows.parse")[0]
    m["flows.sort_rows_per_s"] = rows / tracer.seconds("flows.sort")[0]
    m["flows.spill_chunks"] = spills[0]
    m["flows.dedupe_rows_per_s"] = rows / tracer.seconds("flows.dedupe")[0]
    m["flows.dedupe_removed"] = rows - written
    m["flows.write_rows_per_s"] = written / tracer.seconds("flows.write")[0]

    config = kt.LearnConfig(max_iterations=w.learn_iterations, seed=rnd.seed)
    with tracer.span("cli.learn"):
        graph = _learning_graph(kt, tracer, prepared, split, w.pair_fraction)
        with tracer.span("learning.learn"):
            learned = kt.learn(graph, labels, config)
    m["graph.census_s"] = tracer.seconds("graph.census")[0]
    m["graph.build_s"] = tracer.seconds("graph.build")[0]
    m["graph.vertices"] = graph.n
    m["graph.edges"] = graph.edge_count
    m["graph.distinct_triples"] = len(np.unique(
        np.stack([graph.edge_src, graph.edge_dst, graph.edge_pair_id]), axis=1).T)
    m["learning.iteration_ms"] = (1e3 * tracer.seconds("learning.learn")[0]
                                  / max(learned.iterations_run, 1))
    m["learning.iterations_run"] = learned.iterations_run
    trace = learned.f1_trace
    m["learning.improving_iterations"] = sum(1 for a, b in zip(trace, trace[1:]) if b > a)

    with tracer.span("cli.baseline"):
        graph = _learning_graph(kt, tracer, prepared, split, w.pair_fraction)
        with tracer.span("pagerank.converge"):
            classic = kt.run_to_convergence(graph, damping, w.baseline_tolerance,
                                            w.baseline_iterations)
            adjusted = kt.run_adjusted_to_convergence(
                graph, kt.DampingTable({}, damping), w.baseline_tolerance, w.baseline_iterations)
    m["pagerank.converge_s"] = tracer.seconds("pagerank.converge")[0]
    m["pagerank.converge_iterations"] = classic.iterations + adjusted.iterations

    stream_config = kt.StreamConfig(beta=beta, sample_interval=w.sample_interval, top_k=w.top_k)
    state = kt.StreamState()
    with tracer.span("cli.stream"):
        flows = _read(kt, tracer, prepared)
        with tracer.span("streaming.run"):
            samples = kt.run_stream(flows, learned.best_factors, stream_config, labels, state)
    m["streaming.samples"] = len(samples)
    m["streaming.vertices"] = state.n

    # probes: single calls at the sizes the pipeline reached
    uniform = kt.DampingTable({pair: damping for pair in graph.pairs}, damping)
    start = kt.init_scores(graph)
    m["pagerank.adjusted_iteration_ms"] = 1e3 * _probe(
        tracer, "pagerank.adjusted_iteration", lambda: kt.adjusted_iteration(graph, start, uniform))
    m["pagerank.default_iteration_ms"] = 1e3 * _probe(
        tracer, "pagerank.default_iteration", lambda: kt.default_iteration(graph, start, damping))
    scores = kt.adjusted_iteration(graph, start, uniform)
    f1, misclassified = kt.evaluate_classification(scores, graph, labels)
    draws = random.Random(rnd.seed)
    pair = kt.choose_conflict_port_pair(graph, misclassified, draws)
    m["learning.hill_climb_ms"] = 1e3 * _probe(
        tracer, "learning.hill_climb",
        lambda: kt.hill_climb_step(graph, scores, uniform, pair, labels, "minimum", f1),
        repeats=3)
    m["learning.conflict_draw_ms"] = 1e3 * _probe(
        tracer, "learning.conflict_draw",
        lambda: kt.choose_conflict_port_pair(graph, misclassified, draws))
    updates_only = kt.StreamConfig(beta=beta, sample_interval=0, top_k=w.top_k)
    with tracer.span("streaming.update"):
        kt.run_stream(flows, learned.best_factors, updates_only)
    m["streaming.update_flows_per_s"] = len(flows) / tracer.seconds("streaming.update")[0]
    # an empty stream over the final state takes exactly one end-of-stream sample
    m["streaming.sample_ms"] = 1e3 * _probe(
        tracer, "streaming.sample",
        lambda: kt.run_stream([], learned.best_factors, stream_config, labels, state), repeats=3)
    m["labels.mask_ms"] = 1e3 * _probe(tracer, "labels.mask", lambda: labels.mask(state.vertices))
    final, _ = kt.snapshot(state)
    predicted = [state.vertices[i] for i in np.flatnonzero(final > 1.0 / state.n)]
    m["metrics.f1_ms"] = 1e3 * _probe(
        tracer, "metrics.f1", lambda: kt.precision_recall_f1(predicted, labels, state.vertices))

    results = {"best_f1": learned.best_f1, "topk_tp": samples[-1].topk_tp, "prepared": prepared}
    return tracer, m, results


def traced_run(runner, rnd, gen, work: Path, spans_path: Path) -> dict:
    """One untraced CLI round, then one traced pass; returns problems and per-layer metrics."""
    import keyterrain as kt

    runner.setup()
    samples: dict[str, list] = {}
    if not harness.run_round(runner, rnd, samples):
        return {"problems": ["untraced round: a command exited non-zero"], "metrics": {}}
    problems, values = harness.check_round(rnd, gen)
    cli_total = sum(samples[f"{c}_s"][0] for c in harness.COMMANDS)

    tracer, metrics, results = traced_pass(kt, rnd, work)
    tracer.write(spans_path)
    # the traced pass stands in for the CLI, so it must give the same answers
    if results["prepared"].read_bytes() != rnd.prepared.read_bytes():
        problems.append("traced prepare differs from the CLI output")
    if results["best_f1"] != values.get("learn_best_f1"):
        problems.append("traced learn best_f1 differs from the CLI")
    if results["topk_tp"] != values.get("stream_topk_tp"):
        problems.append("traced stream topk_tp differs from the CLI")

    layers = tracer.self_times("cli.")
    for layer in ("flows", "graph", "pagerank", "learning", "streaming"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    traced_total = sum(tracer.seconds(f"cli.{c}")[0] for c in harness.COMMANDS)
    metrics["trace.overhead_ratio"] = traced_total / cli_total
    print(f"traced {traced_total:.2f} s against untraced CLI {cli_total:.2f} s; self time: "
          + ", ".join(f"{k} {v:.2f} s ({100 * v / traced_total:.0f}%)"
                      for k, v in sorted(layers.items())), file=sys.stderr)
    return {"problems": problems,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in PER_LAYER_UNITS.items()}}


PER_LAYER_UNITS = {
    "flows.parse_rows_per_s": "rows/s", "flows.sort_rows_per_s": "rows/s",
    "flows.spill_chunks": "count", "flows.dedupe_rows_per_s": "rows/s",
    "flows.dedupe_removed": "count", "flows.write_rows_per_s": "rows/s",
    "graph.census_s": "s", "graph.build_s": "s", "graph.vertices": "count",
    "graph.edges": "count", "graph.distinct_triples": "count",
    "pagerank.adjusted_iteration_ms": "ms", "pagerank.default_iteration_ms": "ms",
    "pagerank.converge_s": "s", "pagerank.converge_iterations": "count",
    "learning.iteration_ms": "ms", "learning.hill_climb_ms": "ms",
    "learning.conflict_draw_ms": "ms", "learning.iterations_run": "count",
    "learning.improving_iterations": "count",
    "streaming.update_flows_per_s": "flows/s", "streaming.sample_ms": "ms",
    "streaming.samples": "count", "streaming.vertices": "count",
    "labels.mask_ms": "ms", "metrics.f1_ms": "ms",
    "flows.self_s": "s", "graph.self_s": "s", "pagerank.self_s": "s",
    "learning.self_s": "s", "streaming.self_s": "s", "trace.overhead_ratio": "ratio",
}
