"""Seeded end-to-end benchmark of the keyterrain CLI, with a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload learn_static --seed 1 --seconds 34 --trace 0

With ``--trace 0`` the harness generates the workload's inputs from the seed,
then runs closed-loop rounds of ``prepare``, ``learn``, ``baseline`` and
``stream`` as child processes, one at a time, until the next round would
overrun ``--seconds`` (at least one round). Each command is timed by the
harness's own clock and its peak RSS is read from its own rusage. The first
round's outputs are checked against the reference computations in
``reference.py``; later rounds must reproduce them byte for byte. Every metric
is the median over the rounds.

With ``--trace 1`` it runs one untraced round of the same commands and one
traced in-process pass over each module's public functions (``tracing.py``),
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "keyterrain" / "cli.py").is_file():
        print(f"error: no keyterrain source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    scratch_root = root / "bench" / "_work"
    scratch_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=scratch_root))
    # a terminated run still stops its launcher and child in the finally below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = harness.Runner(root, work)
    try:
        gen = workloads.generate(w, args.seed)
        inputs = workloads.write_inputs(gen, work / "inputs")
        rnd = harness.Round(w, args.seed, inputs, work / "out")
        if args.trace:
            sys.path.insert(0, str(root / "src"))
            import tracing

            spans_path = scratch_root / f"spans-{w.name}-{args.seed}.json"
            result = tracing.traced_run(runner, rnd, gen, work, spans_path)
        else:
            result = harness.measure(runner, rnd, gen, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
