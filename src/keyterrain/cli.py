"""Command-line pipeline: prepare flows, learn factors, stream ranks, run baselines."""

from __future__ import annotations

import argparse
import os
import secrets
import sys
import time
from pathlib import Path

from .flows import ParseStats, dedupe_flows, parse_flows, sort_flows, write_flows
from .graph import build_static_graph, count_port_pairs, filter_port_pairs, write_edge_list
from .labels import AddressSet
from .learning import LearnConfig, evaluate_classification, learn
from .metrics import write_run_summary
from .pagerank import (
    DEFAULT_DAMPING,
    DampingTable,
    load_damping_table,
    run_adjusted_to_convergence,
    run_to_convergence,
    save_damping_table,
)
from .streaming import StreamConfig, run_stream, write_samples_csv, write_topk_csv

SEED_ENV_VAR = "KEYTERRAIN_SEED"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return secrets.randbits(32)


def _print_config(command: str, settings: dict) -> None:
    # everything needed to reproduce the run, defaults resolved
    print(f"[keyterrain {command}] effective config:")
    for key, value in settings.items():
        print(f"  {key} = {value}")


def _parse_column_mapping(text: str | None) -> dict | None:
    if not text:
        return None
    mapping = {}
    for item in text.split(","):
        semantic, _, actual = item.partition("=")
        if not semantic or not actual:
            raise ValueError(f"bad column mapping entry {item!r}; use semantic=actual")
        mapping[semantic.strip()] = actual.strip()
    return mapping


def cmd_prepare(args) -> int:
    columns = _parse_column_mapping(args.columns)
    settings = {
        "flows": args.flows,
        "out": args.out,
        "sort": args.sort,
        "dedupe": args.dedupe,
        "on_error": args.on_error,
        "columns": args.columns or "(canonical)",
    }
    _print_config("prepare", settings)
    stats = ParseStats()
    with open(args.flows, encoding="utf-8", newline="") as src:
        records = parse_flows(src, columns=columns, on_error=args.on_error, stats=stats)
        stream = sort_flows(records, key=args.sort)
        if args.dedupe:
            stream = dedupe_flows(stream)
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="") as dst:
            written = write_flows(stream, dst)
    print(f"rows read: {stats.rows}")
    print(f"records parsed: {stats.parsed}")
    print(f"rows skipped: {stats.skipped}")
    for line_no, message in stats.errors[:10]:
        print(f"  skipped line {line_no}: {message}", file=sys.stderr)
    if args.dedupe:
        print(f"duplicates removed: {stats.parsed - written}")
    print(f"records written: {written}")
    return 0


def _build_learning_graph(args):
    """Shared prefix-split / dedupe / census / filter / build pipeline."""
    if not 0.0 < args.learn_split <= 1.0:
        raise ValueError(f"--learn-split must be in (0, 1], got {args.learn_split}")
    with open(args.flows, encoding="utf-8", newline="") as fh:
        records = list(parse_flows(fh))
    prefix = int(len(records) * args.learn_split)
    learning_records = list(dedupe_flows(records[:prefix]))
    census = count_port_pairs(learning_records)
    retained = filter_port_pairs(census, args.pair_fraction)
    graph = build_static_graph(learning_records, retained)
    info = {
        "flows_total": len(records),
        "flows_learning": prefix,
        "flows_after_dedupe": len(learning_records),
        "retained_pairs": len(retained),
        "vertices": graph.n,
        "edges": graph.edge_count,
    }
    return graph, info


def cmd_learn(args) -> int:
    seed = _resolve_seed(args)
    heuristic = args.heuristic.replace("-", "_")
    settings = {
        "flows": args.flows,
        "labels": args.labels,
        "out": args.out,
        "pair_fraction": args.pair_fraction,
        "learn_split": args.learn_split,
        "heuristic": heuristic,
        "max_iterations": args.max_iterations,
        "rw_probability": args.rw_probability,
        "grid_step": args.grid_step,
        "seed": seed,
    }
    _print_config("learn", settings)
    labels = AddressSet.from_file(args.labels)
    if not labels:
        raise ValueError(f"labels file {args.labels} has no entries")

    started = time.perf_counter()
    graph, info = _build_learning_graph(args)
    prep_elapsed = time.perf_counter() - started
    print(
        f"learning graph: {info['vertices']} vertices, {info['edges']} edges, "
        f"{info['retained_pairs']} retained pairs "
        f"({info['flows_learning']}/{info['flows_total']} flows, "
        f"{info['flows_after_dedupe']} after dedupe) in {prep_elapsed:.2f} s"
    )

    config = LearnConfig(
        max_iterations=args.max_iterations,
        rw_probability=args.rw_probability,
        heuristic=heuristic,
        grid_step=args.grid_step,
        seed=seed,
    )
    started = time.perf_counter()
    result = learn(graph, labels, config)
    learn_elapsed = time.perf_counter() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_damping_table(result.best_factors, out_dir / "factors.csv")
    with open(out_dir / "f1_trace.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,f1\n")
        for i, f1 in enumerate(result.f1_trace):
            fh.write(f"{i},{f1!r}\n")
    with open(out_dir / "graph_edges.csv", "w", encoding="utf-8", newline="") as fh:
        write_edge_list(graph, fh)
    write_run_summary(
        out_dir / "report.json",
        {
            "command": "learn",
            "config": settings,
            "graph": info,
            "best_f1": result.best_f1,
            "iterations_run": result.iterations_run,
            "preprocessing_seconds": prep_elapsed,
            "learning_seconds": learn_elapsed,
            "outputs": ["factors.csv", "f1_trace.csv", "graph_edges.csv", "report.json"],
        },
    )
    print(
        f"best F1 {result.best_f1:.4f} after {result.iterations_run} iterations "
        f"in {learn_elapsed:.2f} s; factors written to {out_dir / 'factors.csv'}"
    )
    return 0


def cmd_stream(args) -> int:
    if args.default_factors:
        table = DampingTable()
    elif args.factors:
        table = load_damping_table(args.factors)
    else:
        raise ValueError("either --factors or --default-factors is required")
    settings = {
        "flows": args.flows,
        "factors": "(default 0.85)" if args.default_factors else args.factors,
        "labels": args.labels,
        "local_prefixes": args.local_prefixes,
        "out": args.out,
        "beta": args.beta,
        "sample_interval": args.sample_interval,
        "top_k": args.top_k,
    }
    _print_config("stream", settings)
    labels = AddressSet.from_file(args.labels) if args.labels else None
    local = AddressSet.from_file(args.local_prefixes) if args.local_prefixes else None
    config = StreamConfig(
        beta=args.beta, sample_interval=args.sample_interval, top_k=args.top_k
    )

    started = time.perf_counter()
    with open(args.flows, encoding="utf-8", newline="") as fh:
        samples = run_stream(parse_flows(fh), table, config, labels)
    elapsed = time.perf_counter() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="") as fh:
        write_samples_csv(samples, fh)
    sample_rows = []
    for i, sample in enumerate(samples, start=1):
        name = f"topk_{i:04d}.csv"
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            write_topk_csv(sample, fh)
        row = {
            "flows_processed": sample.flows_processed,
            "vertices_seen": sample.vertices_seen,
            "f1": sample.f1,
            "topk_tp": sample.topk_tp,
            "topk_file": name,
        }
        if local is not None:
            row["topk_local_members"] = sum(1 for ip, _ in sample.top if ip in local)
        sample_rows.append(row)

    final = samples[-1]
    rate = final.flows_processed / elapsed if elapsed > 0 else 0.0
    write_run_summary(
        out_dir / "summary.json",
        {
            "command": "stream",
            "config": settings,
            "flows_processed": final.flows_processed,
            "vertices_seen": final.vertices_seen,
            "elapsed_seconds": elapsed,
            "flows_per_second": rate,
            "samples": sample_rows,
        },
    )
    print(
        f"{final.flows_processed} flows over {final.vertices_seen} vertices "
        f"in {elapsed:.2f} s ({rate:,.0f} flows/s); {len(samples)} samples "
        f"written to {out_dir}"
    )
    return 0


def cmd_baseline(args) -> int:
    settings = {
        "flows": args.flows,
        "labels": args.labels,
        "out": args.out,
        "pair_fraction": args.pair_fraction,
        "learn_split": args.learn_split,
        "damping": args.damping,
        "tolerance": args.tolerance,
        "max_iterations": args.max_iterations,
    }
    _print_config("baseline", settings)
    labels = AddressSet.from_file(args.labels)
    if not labels:
        raise ValueError(f"labels file {args.labels} has no entries")
    graph, info = _build_learning_graph(args)
    print(f"learning graph: {info['vertices']} vertices, {info['edges']} edges")

    classic = run_to_convergence(
        graph, damping=args.damping, tolerance=args.tolerance, max_iters=args.max_iterations
    )
    classic_f1, _ = evaluate_classification(classic.scores, graph, labels)
    uniform = DampingTable({}, default_factor=args.damping)
    adjusted = run_adjusted_to_convergence(
        graph, uniform, tolerance=args.tolerance, max_iters=args.max_iterations
    )
    adjusted_f1, _ = evaluate_classification(adjusted.scores, graph, labels)

    for name, f1, res in (
        ("default pagerank", classic_f1, classic),
        ("adjusted (uniform factors)", adjusted_f1, adjusted),
    ):
        state = "converged" if res.converged else "did not converge"
        print(f"{name}: F1 {f1:.4f} ({state} after {res.iterations} iterations)")

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_run_summary(
            out_dir / "baseline.json",
            {
                "command": "baseline",
                "config": settings,
                "graph": info,
                "default_pagerank": {
                    "f1": classic_f1,
                    "converged": classic.converged,
                    "iterations": classic.iterations,
                },
                "adjusted_uniform": {
                    "f1": adjusted_f1,
                    "converged": adjusted.converged,
                    "iterations": adjusted.iterations,
                },
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyterrain",
        description="Identify critical IP addresses from IP flow records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser(
        "prepare", help="parse, order, and deduplicate a flow file into canonical CSV"
    )
    prepare.add_argument("--flows", required=True, help="input flow CSV")
    prepare.add_argument("--out", required=True, help="output flow CSV path")
    prepare.add_argument("--sort", choices=("start", "end", "none"), default="none")
    prepare.add_argument("--dedupe", action="store_true")
    prepare.add_argument("--on-error", choices=("abort", "skip"), default="abort")
    prepare.add_argument(
        "--columns",
        help="rename input columns, e.g. start_ts=ts_first,src_ip=initiator",
    )
    prepare.set_defaults(func=cmd_prepare)

    learn_p = sub.add_parser("learn", help="learn damping factors on the static graph")
    learn_p.add_argument("--flows", required=True, help="ordered flow CSV")
    learn_p.add_argument("--labels", required=True, help="critical IPs/CIDRs, one per line")
    learn_p.add_argument("--out", required=True, help="output directory")
    learn_p.add_argument(
        "--pair-fraction",
        type=float,
        required=True,
        help="retain port pairs in strictly more than this fraction of flows",
    )
    learn_p.add_argument("--learn-split", type=float, default=0.70)
    learn_p.add_argument(
        "--heuristic",
        choices=("minimum", "maximum", "average", "smallest-difference"),
        default="minimum",
    )
    learn_p.add_argument("--max-iterations", type=int, default=1000)
    learn_p.add_argument("--rw-probability", type=float, default=0.1)
    learn_p.add_argument("--grid-step", type=float, default=0.05)
    learn_p.add_argument("--seed", type=int, default=None)
    learn_p.set_defaults(func=cmd_learn)

    stream_p = sub.add_parser("stream", help="single-pass ranking over a flow stream")
    stream_p.add_argument("--flows", required=True, help="ordered flow CSV")
    stream_p.add_argument("--factors", help="learned damping table file")
    stream_p.add_argument(
        "--default-factors",
        action="store_true",
        help="run the baseline with every lookup resolving to 0.85",
    )
    stream_p.add_argument("--labels", help="optional critical IPs/CIDRs for F1 samples")
    stream_p.add_argument("--local-prefixes", help="optional local network CIDRs")
    stream_p.add_argument("--out", required=True, help="output directory")
    stream_p.add_argument("--beta", type=float, default=0.5)
    stream_p.add_argument("--sample-interval", type=int, default=0)
    stream_p.add_argument("--top-k", type=int, default=100)
    stream_p.set_defaults(func=cmd_stream)

    baseline = sub.add_parser(
        "baseline", help="converged F1 of both unadjusted variants on the learning graph"
    )
    baseline.add_argument("--flows", required=True)
    baseline.add_argument("--labels", required=True)
    baseline.add_argument("--out", help="optional output directory for baseline.json")
    baseline.add_argument("--pair-fraction", type=float, required=True)
    baseline.add_argument("--learn-split", type=float, default=0.70)
    baseline.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    baseline.add_argument("--tolerance", type=float, default=1e-9)
    baseline.add_argument("--max-iterations", type=int, default=100)
    baseline.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
