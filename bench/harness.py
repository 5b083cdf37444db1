"""Child processes, command lines, rounds and checks of the end-to-end benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

LEARN_SPLIT = 0.70
BETA = 0.5
DAMPING = 0.85
ENTRY = "import sys; from keyterrain.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = ("prepare", "learn", "baseline", "stream")
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "prepare_rows_per_s": "rows/s", "prepare_peak_rss_mb": "MB",
    "learn_s": "s", "learn_peak_rss_mb": "MB", "baseline_s": "s",
    "stream_flows_per_s": "flows/s", "stream_peak_rss_mb": "MB", "learn_best_f1": "ratio",
    "stream_topk_tp": "count",
}


@dataclass
class Child:
    """One finished child process as the harness saw it."""

    seconds: float
    peak_rss_mb: float
    returncode: int


# Children are started by this small launcher rather than by the harness
# itself: a child's peak RSS starts from the high-water mark of the process it
# was forked from, and the harness holds the generated tuples in memory.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, log_path = json.loads(line)
    with open(log_path, "a", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([seconds, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Runner:
    """Runs the CLI from a source checkout, one child at a time, and counts them.

    Times come from the launcher's clock around each child; peak RSS is that
    child's own, from wait4, not the running maximum RUSAGE_CHILDREN keeps.
    """

    def __init__(self, root: Path, work: Path):
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.log = work / "children.log"
        self.attempted = 0
        self.failed = 0
        # TMPDIR keeps prepare's sort spills inside the checkout
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait()

    def _run(self, argv: list[str]) -> Child:
        self.attempted += 1
        self._launcher.stdin.write(json.dumps([[sys.executable, *argv], str(self.log)]) + "\n")
        self._launcher.stdin.flush()
        seconds, max_rss_kb, returncode = json.loads(self._launcher.stdout.readline())
        if returncode != 0:
            self.failed += 1
        return Child(seconds, max_rss_kb / 1024.0, returncode)

    def setup(self) -> Child:
        """A child interpreter that imports the CLI and exits."""
        return self._run(["-c", "import keyterrain.cli"])

    def cli(self, *args: str) -> Child:
        return self._run(["-c", ENTRY, *args])


class Round:
    """File layout and command lines of one workload's four commands."""

    def __init__(self, w: workloads.Workload, seed: int, inputs: dict[str, Path], out: Path):
        self.w = w
        self.seed = seed
        self.inputs = inputs
        self.out = out
        self.prepared = out / "prepared.csv"
        self.learn_dir = out / "learn"
        self.baseline_dir = out / "baseline"
        self.stream_dir = out / "stream"

    def args(self, command: str) -> list[str]:
        w, labels = self.w, str(self.inputs["labels"])
        graph = ["--pair-fraction", repr(w.pair_fraction), "--learn-split", repr(LEARN_SPLIT)]
        if command == "prepare":
            return ["prepare", "--flows", str(self.inputs["flows"]), "--out", str(self.prepared),
                    "--sort", "start", "--dedupe"]
        if command == "learn":
            return ["learn", "--flows", str(self.prepared), "--labels", labels,
                    "--out", str(self.learn_dir), *graph,
                    "--max-iterations", str(w.learn_iterations), "--seed", str(self.seed)]
        if command == "baseline":
            return ["baseline", "--flows", str(self.prepared), "--labels", labels,
                    "--out", str(self.baseline_dir), *graph, "--damping", repr(DAMPING),
                    "--tolerance", repr(w.baseline_tolerance),
                    "--max-iterations", str(w.baseline_iterations)]
        local = ["--local-prefixes", str(self.inputs["local"])] if "local" in self.inputs else []
        return ["stream", "--flows", str(self.prepared), "--factors",
                str(self.learn_dir / "factors.csv"), "--labels", labels,
                "--out", str(self.stream_dir), "--beta", repr(BETA),
                "--sample-interval", str(w.sample_interval), "--top-k", str(w.top_k), *local]

    def digests(self) -> dict[str, str]:
        """Digest of every output that carries no timing, keyed by relative path."""
        files = [self.prepared, self.baseline_dir / "baseline.json"]
        files += [self.learn_dir / n for n in ("factors.csv", "f1_trace.csv", "graph_edges.csv")]
        files += sorted(self.stream_dir.glob("*.csv"))
        return {str(f.relative_to(self.out)): hashlib.sha256(f.read_bytes()).hexdigest()
                for f in files}


def run_round(runner: Runner, rnd: Round, samples: dict[str, list]) -> bool:
    """One closed-loop pass over the four commands; False as soon as one fails.

    Appends ``setup_s``, ``<command>_s`` and ``<command>_peak_rss_mb`` samples.
    """
    for command in COMMANDS:
        # one set-up probe per command spreads the set-up samples over the run
        probe = runner.setup()
        if probe.returncode != 0:
            return False
        child = runner.cli(*rnd.args(command))
        if child.returncode != 0:
            return False
        samples.setdefault("setup_s", []).append(probe.seconds)
        samples.setdefault(f"{command}_s", []).append(child.seconds)
        samples.setdefault(f"{command}_peak_rss_mb", []).append(child.peak_rss_mb)
    return True


def check_round(rnd: Round, gen: workloads.Inputs) -> tuple[list[str], dict]:
    """Check one round's outputs against the references; returns problems and values."""
    w = rnd.w
    labels = set(gen.labels)
    try:
        expected = reference.expected_prepared(gen.rows)
        problems = reference.check_prepared(rnd.prepared, gen.distinct_keys(), expected)
        graph = reference.LearningGraph(expected, LEARN_SPLIT, w.pair_fraction)
        problems += reference.check_learn(rnd.learn_dir, graph, labels)
        problems += reference.check_baseline(rnd.baseline_dir, graph, labels, DAMPING,
                                             w.baseline_tolerance)
        problems += reference.check_stream(rnd.stream_dir, expected,
                                           rnd.learn_dir / "factors.csv", labels, BETA,
                                           w.sample_interval, w.top_k)
        report = json.loads((rnd.learn_dir / "report.json").read_text(encoding="utf-8"))
        summary = json.loads((rnd.stream_dir / "summary.json").read_text(encoding="utf-8"))
        values = {"learn_best_f1": report["best_f1"],
                  "stream_topk_tp": summary["samples"][-1]["topk_tp"],
                  "prepared_rows": len(expected)}
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"], {}
    return problems, values


def end_to_end(samples: dict[str, list], values: dict, raw_rows: int) -> dict:
    """The named end-to-end metrics from the round samples.

    Set-up and peak RSS are medians. A command's time is its slowest round:
    this host alternates between a contended speed and bursts almost twice as
    fast, lasting seconds, and the median of a few rounds lands on either
    level from run to run, while the slowest round keeps to the contended one
    (see README.md, Steadiness).
    """
    med = {name: statistics.median(v) for name, v in samples.items()}
    slow = {name: max(v) for name, v in samples.items()}
    metrics = {
        "setup_s": med.get("setup_s", 0.0),
        "prepare_rows_per_s": raw_rows / slow["prepare_s"] if "prepare_s" in slow else 0.0,
        "prepare_peak_rss_mb": med.get("prepare_peak_rss_mb", 0.0),
        "learn_s": slow.get("learn_s", 0.0),
        "learn_peak_rss_mb": med.get("learn_peak_rss_mb", 0.0),
        "baseline_s": slow.get("baseline_s", 0.0),
        "stream_flows_per_s": (values.get("prepared_rows", 0) / slow["stream_s"]
                               if "stream_s" in slow else 0.0),
        "stream_peak_rss_mb": med.get("stream_peak_rss_mb", 0.0),
        "learn_best_f1": values.get("learn_best_f1", 0.0),
        "stream_topk_tp": values.get("stream_topk_tp", 0),
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def measure(runner: Runner, rnd: Round, gen: workloads.Inputs, seconds: float) -> dict:
    """Closed-loop rounds until the next would overrun ``seconds``, and at least MIN_ROUNDS."""
    runner.setup()  # fills the bytecode cache, as an installed copy has one
    samples: dict[str, list] = {}
    problems: list[str] = []
    values: dict = {}
    digests = None
    measured = 0.0
    last = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or measured + last <= seconds:
        start = time.perf_counter()
        if not run_round(runner, rnd, samples):
            problems.append(f"round {rounds + 1}: a command exited non-zero")
            break
        last = time.perf_counter() - start
        measured += last
        rounds += 1
        if digests is None:
            found, values = check_round(rnd, gen)
            problems += found
            digests = rnd.digests()
        elif rnd.digests() != digests:
            problems.append(f"round {rounds}: outputs differ from round 1")
    print(f"{rounds} round(s) in {measured:.1f} s; samples: {json.dumps(samples)}",
          file=sys.stderr)
    return {"problems": problems, "metrics": end_to_end(samples, values, len(gen.rows))}
