"""Independent reference computations and the output checks built on them.

Nothing here imports the program: every expected value is worked out from
the generator's own tuples with plain Python (and numpy for the power
iteration), so a fault in the program cannot hide in its own checker. Each
``check_*`` returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

Row = tuple  # (start_ts, end_ts, src_ip, dst_ip, src_port, dst_port)

# A vertex whose criticality test lands within this distance of the 1/n
# threshold (in units of the step's own scale) is a tie: summation order alone
# decides it, so either outcome is accepted.
TIE_TOLERANCE = 1e-9


def dedupe_key(row: Row) -> tuple:
    return (row[2], row[3], row[4], row[5], row[0])


def expected_prepared(rows: list[Row]) -> list[Row]:
    """``prepare --sort start --dedupe``: stable sort by start, keep first per key."""
    seen = set()
    out = []
    for row in sorted(rows, key=lambda r: r[0]):
        key = dedupe_key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def csv_line(row: Row) -> str:
    return ",".join(str(v) for v in row)


def check_prepared(path: Path, distinct: set[tuple], expected: list[Row]) -> list[str]:
    """The output is the stable sort + dedupe of the export, one row per distinct key."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        got = [line.rstrip("\n") for line in fh]
    if header != "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port":
        problems.append(f"prepare: bad header {header!r}")
    fields = [line.split(",") for line in got]
    starts = [int(f[0]) for f in fields]
    if any(a > b for a, b in zip(starts, starts[1:])):
        problems.append("prepare: output is not sorted by start_ts")
    keys = {(f[2], f[3], int(f[4]), int(f[5]), int(f[0])) for f in fields}
    if len(got) != len(distinct) or keys != distinct:
        problems.append(f"prepare: {len(got)} rows, expected one per distinct key")
    want = [csv_line(r) for r in expected]
    if got != want:
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        problems.append(f"prepare: output differs from the stable sort + dedupe at row {first + 1}")
    return problems


class LearningGraph:
    """The learn/baseline graph worked out from the prepared rows.

    Vertices in first-appearance order (source before destination), one edge
    per deduplicated flow of the learning prefix whose port pair is in more
    than ``fraction`` of that prefix.
    """

    def __init__(self, prepared: list[Row], split: float, fraction: float):
        prefix = prepared[: int(len(prepared) * split)]
        seen = set()
        self.records = []
        for row in prefix:
            key = dedupe_key(row)
            if key not in seen:
                seen.add(key)
                self.records.append(row)
        self.census = Counter((r[4], r[5]) for r in self.records)
        threshold = fraction * len(self.records)
        self.retained = {pair for pair, count in self.census.items() if count > threshold}
        self.edges: Counter = Counter()
        index: dict[str, int] = {}
        for r in self.records:
            if (r[4], r[5]) in self.retained:
                for ip in (r[2], r[3]):
                    index.setdefault(ip, len(index))
                self.edges[(r[2], r[3], r[4], r[5])] += 1
        self.vertices = list(index)
        self.index = index
        self.edge_count = sum(self.edges.values())
        self.out_degree = Counter()
        for (s, _, _, _), k in self.edges.items():
            self.out_degree[s] += k


def f1_options(critical: set[str], ties: set[str], labels: set[str], universe) -> set[float]:
    """Every F1 reachable when each tie vertex may fall on either side of 1/n."""
    labelled = {ip for ip in universe if ip in labels}
    tp = len(critical & labelled)
    fp = len(critical) - tp
    fn = len(labelled) - tp
    tie_pos = len(ties & labelled)
    tie_neg = len(ties) - tie_pos
    options = set()
    for a in range(tie_pos + 1):          # labelled ties called critical
        for b in range(tie_neg + 1):      # unlabelled ties called critical
            t, p, n = tp + a, fp + b, fn - a
            precision = t / (t + p) if t + p else 0.0
            recall = t / (t + n) if t + n else 0.0
            options.add(2.0 * precision * recall / (precision + recall)
                        if precision + recall else 0.0)
    return options


def matches(f1: float, options: set[float]) -> bool:
    """F1 agrees with one option up to the rounding of the F1 formula itself."""
    return any(math.isclose(f1, o, rel_tol=1e-12, abs_tol=1e-15) for o in options)


def uniform_step_f1(g: LearningGraph, labels: set[str]) -> set[float]:
    """F1 options after one adjusted step from 1/n with every factor at 0.85.

    A vertex ends above 1/n exactly when the mass it receives, sum over its
    in-edges of 1/outdeg(source), exceeds the mass it gives up: 1 if it has
    out-edges, else 0. The 0.85/n scale cancels from both sides.
    """
    received = Counter()
    for (s, d, _, _), k in g.edges.items():
        received[d] += k / g.out_degree[s]
    critical, ties = set(), set()
    for ip in g.vertices:
        margin = received[ip] - (1.0 if g.out_degree[ip] else 0.0)
        if abs(margin) <= TIE_TOLERANCE:
            ties.add(ip)
        elif margin > 0:
            critical.add(ip)
    return f1_options(critical, ties, labels, g.vertices)


def power_iteration(g: LearningGraph, damping: float, iterations: int):
    """Classic PageRank without teleport redistribution, by a CSR gather.

    Returns the scores after ``iterations`` steps and the L1 change of each step.
    """
    n = len(g.vertices)
    src = np.array([g.index[s] for (s, _, _, _) in g.edges], dtype=np.int64)
    dst = np.array([g.index[d] for (_, d, _, _) in g.edges], dtype=np.int64)
    mult = np.array(list(g.edges.values()), dtype=float)
    outdeg = np.zeros(n)
    np.add.at(outdeg, src, mult)
    order = np.argsort(dst, kind="stable")
    src, dst, weight = src[order], dst[order], (mult / outdeg[src])[order]
    targets, starts = np.unique(dst, return_index=True)
    scores = np.full(n, 1.0 / n)
    deltas = []
    for _ in range(iterations):
        gathered = np.zeros(n)
        gathered[targets] = np.add.reduceat(scores[src] * weight, starts)
        nxt = (1.0 - damping) / n + damping * gathered
        deltas.append(float(np.abs(nxt - scores).sum()))
        scores = nxt
    return scores, deltas


def threshold_f1(scores, vertices: list[str], labels: set[str]) -> set[float]:
    n = len(vertices)
    critical, ties = set(), set()
    for ip, s in zip(vertices, scores):
        margin = (s - 1.0 / n) * n
        if abs(margin) <= TIE_TOLERANCE:
            ties.add(ip)
        elif margin > 0:
            critical.add(ip)
    return f1_options(critical, ties, labels, vertices)


def read_factors(path: Path) -> tuple[dict[tuple[int, int], float], float]:
    factors, default = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            if parts[0] == "default":
                default = float(parts[1])
            elif len(parts) == 3:
                factors[(int(parts[0]), int(parts[1]))] = float(parts[2])
    return factors, default


def check_learn(out: Path, g: LearningGraph, labels: set[str]) -> list[str]:
    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    factors, default = read_factors(out / "factors.csv")
    if set(factors) != g.retained:
        problems.append(f"learn: {len(factors)} learned pairs, census retains {len(g.retained)}")
    if report["graph"]["retained_pairs"] != len(g.retained):
        problems.append("learn: report retained_pairs differs from the census")
    if report["graph"]["edges"] != g.edge_count or report["graph"]["vertices"] != len(g.vertices):
        problems.append(
            f"learn: graph {report['graph']['vertices']}x{report['graph']['edges']},"
            f" census gives {len(g.vertices)}x{g.edge_count}"
        )
    values = list(factors.values()) + [default if default is not None else -1.0]
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append("learn: a factor lies outside [0, 1]")
    with open(out / "graph_edges.csv", encoding="utf-8") as fh:
        edges = Counter(tuple(line.rstrip("\n").split(",")) for line in fh)
    want = Counter({(s, d, str(a), str(b)): k for (s, d, a, b), k in g.edges.items()})
    if edges != want:
        problems.append("learn: graph_edges.csv differs from the census of the prefix")
    with open(out / "f1_trace.csv", encoding="utf-8") as fh:
        next(fh)
        trace = [float(line.split(",")[1]) for line in fh]
    if len(trace) != report["iterations_run"] + 1:
        problems.append(f"learn: {len(trace)} trace rows for {report['iterations_run']} iterations")
    if not trace or report["best_f1"] != max(trace):
        problems.append("learn: best_f1 is not the maximum of f1_trace")
    elif not matches(trace[0], uniform_step_f1(g, labels)):
        problems.append(f"learn: f1_trace[0]={trace[0]!r} is not the uniform-0.85 step F1")
    return problems


def check_baseline(out: Path, g: LearningGraph, labels: set[str], damping: float,
                   tolerance: float) -> list[str]:
    problems = []
    result = json.loads((out / "baseline.json").read_text(encoding="utf-8"))
    if result["graph"]["edges"] != g.edge_count:
        problems.append("baseline: edge count differs from the census")
    classic = result["default_pagerank"]
    k = classic["iterations"]
    scores, deltas = power_iteration(g, damping, k)
    # near the float floor the step that first dips under the tolerance is
    # decided by rounding, so the comparison allows a few ulps of L1 change
    slack = 1e-6 * tolerance + 64 * sys.float_info.epsilon
    loose, tight = tolerance + slack, tolerance - slack
    if classic["converged"]:
        if not (deltas[-1] < loose and all(d >= tight for d in deltas[:-1])):
            problems.append(f"baseline: default pagerank did not converge at step {k}")
    elif min(deltas, default=math.inf) < tight:
        problems.append("baseline: default pagerank converged but reports it did not")
    if not matches(classic["f1"], threshold_f1(scores, g.vertices, labels)):
        problems.append(f"baseline: default pagerank F1 {classic['f1']!r} differs from the"
                        " reference power iteration")
    return problems


def replay_stream(rows: list[Row], factors: dict, default: float, beta: float):
    """The stream update rule, flow by flow; returns (ips, rank mass)."""
    index: dict[str, int] = {}
    rank: list[float] = []
    active: list[float] = []
    for row in rows:
        ends = []
        for ip in (row[2], row[3]):
            i = index.get(ip)
            if i is None:
                i = index[ip] = len(rank)
                rank.append(0.0)
                active.append(0.0)
            ends.append(i)
        u, v = ends
        d = factors.get((row[4], row[5]), default)
        rank[u] += 1.0 - d
        active[u] += 1.0 - d
        moving = active[u]
        rank[v] += d * moving
        active[v] += d * beta * moving
        active[u] = (1.0 - beta) * active[u]
    return list(index), rank


def check_stream(out: Path, rows: list[Row], factors_path: Path, labels: set[str],
                 beta: float, interval: int, top_k: int) -> list[str]:
    problems = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    final = summary["samples"][-1]
    ips = {r[2] for r in rows} | {r[3] for r in rows}
    if summary["flows_processed"] != len(rows):
        problems.append(f"stream: {summary['flows_processed']} flows processed of {len(rows)}")
    if summary["vertices_seen"] != len(ips):
        problems.append(f"stream: {summary['vertices_seen']} vertices, {len(ips)} distinct IPs")
    want_samples = (len(rows) // interval if interval else 0) + 1
    topk_files = sorted(out.glob("topk_*.csv"))
    if len(summary["samples"]) != want_samples or len(topk_files) != want_samples:
        problems.append(f"stream: {len(summary['samples'])} samples, expected {want_samples}")
    factors, default = read_factors(factors_path)
    order, rank = replay_stream(rows, factors, default, beta)
    total = sum(rank)
    ref = {ip: r / total for ip, r in zip(order, rank)}
    with open(out / final["topk_file"], encoding="utf-8") as fh:
        next(fh)
        top = [(ip, float(score)) for _, ip, score in (line.rstrip("\n").split(",") for line in fh)]
    ranked = sorted(ref.values(), reverse=True)
    if len(top) != min(top_k, len(ref)):
        problems.append(f"stream: final top-k has {len(top)} rows")
    elif any(not math.isclose(s, ref.get(ip, math.nan), rel_tol=1e-9, abs_tol=1e-15)
             for ip, s in top):
        problems.append("stream: a final top-k score differs from the replay")
    elif any(a < b for (_, a), (_, b) in zip(top, top[1:])):
        problems.append("stream: final top-k is not in descending score order")
    elif len(ranked) > len(top) and ranked[len(top)] > top[-1][1] * (1 + 1e-9) + 1e-15:
        problems.append("stream: final top-k leaves out a higher-scoring IP")
    tp = sum(1 for ip, _ in top if ip in labels)
    if final["topk_tp"] != tp:
        problems.append(f"stream: topk_tp {final['topk_tp']} but {tp} labelled IPs in top-k")
    return problems
