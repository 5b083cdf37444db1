"""Command-line pipeline: prepare flows, learn factors, stream ranks, run baselines."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

# Building the parser and prepare without --dedupe need only these two
# modules. Each command imports the numpy-backed modules it uses inside its own
# function, so prepare loads numpy exactly when --dedupe is given.
from .constants import (
    DEFAULT_DAMPING, DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, HEURISTICS, LearnConfig, StreamConfig,
)
from .flows import ParseStats, parse_flow_rows, sort_flows, write_flows


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    import secrets  # only an unseeded run loads it

    return secrets.randbits(32)


# parse bookkeeping, and stream's --default-factors, which is folded into factors
_NOT_CONFIG = ("command", "func", "default_factors")


def _effective_config(args, **resolved) -> dict:
    """Print and return every option of the command in parser order, with the
    values the command resolved in place of the parsed ones: everything needed
    to reproduce the run, and the ``config`` block of its JSON output."""
    settings = {k: resolved.get(k, v) for k, v in vars(args).items() if k not in _NOT_CONFIG}
    print(f"[keyterrain {args.command}] effective config:")
    for key, value in settings.items():
        print(f"  {key} = {value}")
    return settings


def _parse_column_mapping(text: str | None) -> dict | None:
    if not text:
        return None
    mapping = {}
    for item in text.split(","):
        semantic, _, actual = item.partition("=")
        if not semantic or not actual:
            raise ValueError(f"bad column mapping entry {item!r}; use semantic=actual")
        semantic = semantic.strip()
        # one column may serve two fields; a field named twice would keep its last column
        if semantic in mapping:
            raise ValueError(f"column mapping names {semantic!r} twice")
        mapping[semantic] = actual.strip()
    return mapping


def cmd_prepare(args) -> int:
    columns = _parse_column_mapping(args.columns)
    # opening --out for writing would truncate the input before it is read
    if os.path.exists(args.out) and os.path.samefile(args.flows, args.out):
        raise ValueError(f"--out {args.out} is the --flows file")
    _effective_config(args, columns=args.columns or "(canonical)")
    stats = ParseStats()
    with open(args.flows, encoding="utf-8-sig", newline="") as src:
        # with --dedupe every raw row is held, 28 bytes each (see README,
        # Dedup); without it the memory is bounded and numpy is not loaded
        if args.dedupe:
            from .graph import prepared_rows

            stream = prepared_rows(src, args.sort, args.on_error, stats, columns)
        else:
            rows = parse_flow_rows(src, columns=columns, on_error=args.on_error, stats=stats)
            stream = sort_flows(rows, key=args.sort)
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        dst = open(out_path, "w", encoding="utf-8", newline="")
        try:
            with dst:
                written = write_flows(stream, dst)
        except BaseException:
            # the rows written so far would read as a whole flow file
            out_path.unlink(missing_ok=True)
            raise
    print(f"rows read: {stats.rows}")
    print(f"records parsed: {stats.parsed}")
    print(f"rows skipped: {stats.skipped}")
    for line_no, message in stats.errors[:10]:
        print(f"  skipped line {line_no}: {message}", file=sys.stderr)
    if args.dedupe:
        print(f"duplicates removed: {stats.parsed - written}")
    print(f"records written: {written}")
    return 0


def _learning_inputs(args):
    """Front end of learn and baseline: check the graph options, load the
    labels, then build the learning graph from the whole flow file."""
    from .graph import check_fraction, check_split, read_learning_graph
    from .labels import AddressSet

    check_split(args.learn_split)
    check_fraction(args.pair_fraction)
    labels = AddressSet.from_file(args.labels)
    with open(args.flows, encoding="utf-8-sig", newline="") as fh:
        graph, info = read_learning_graph(fh, args.learn_split, args.pair_fraction)
    return labels, graph, info


def cmd_learn(args) -> int:
    from .graph import write_edge_list
    from .learning import learn
    from .metrics import write_run_summary
    from .pagerank import save_damping_table

    seed = _resolve_seed(args)
    settings = _effective_config(args, heuristic=args.heuristic.replace("-", "_"), seed=seed)
    config = LearnConfig(**{f.name: settings[f.name] for f in fields(LearnConfig)})

    started = time.perf_counter()
    labels, graph, info = _learning_inputs(args)
    prep_elapsed = time.perf_counter() - started
    print(
        f"learning graph: {info['vertices']} vertices, {info['edges']} edges, "
        f"{info['retained_pairs']} retained pairs "
        f"({info['flows_learning']}/{info['flows_total']} flows, "
        f"{info['flows_after_dedupe']} after dedupe) in {prep_elapsed:.2f} s"
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
    from .labels import AddressSet
    from .metrics import write_run_summary
    from .pagerank import DampingTable, load_damping_table
    from .streaming import run_stream, write_samples_csv, write_topk_csv

    if (args.factors is None) != args.default_factors:
        raise ValueError("give exactly one of --factors and --default-factors")
    table = DampingTable() if args.default_factors else load_damping_table(args.factors)
    settings = _effective_config(
        args, factors=f"(default {DEFAULT_DAMPING})" if args.default_factors else args.factors
    )
    labels = AddressSet.from_file(args.labels) if args.labels else None
    local = AddressSet.from_file(args.local_prefixes) if args.local_prefixes else None
    config = StreamConfig(**{f.name: settings[f.name] for f in fields(StreamConfig)})

    started = time.perf_counter()
    with open(args.flows, encoding="utf-8-sig", newline="") as fh:
        samples = run_stream(fh, table, config, labels)
    elapsed = time.perf_counter() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "samples.csv", "w", encoding="utf-8", newline="") as fh:
        write_samples_csv(samples, fh)
    if local is not None:
        # consecutive top lists mostly repeat: test each distinct IP once
        top_ips = {ip for sample in samples for ip, _ in sample.top}
        local_top = {ip for ip in top_ips if ip in local}
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
            row["topk_local_members"] = sum(1 for ip, _ in sample.top if ip in local_top)
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
    from .metrics import mask_f1, write_run_summary
    from .pagerank import (
        DampingTable, check_stop_rule, classify, contraction_bound, run_adjusted_to_convergence,
        run_to_convergence,
    )

    settings = _effective_config(args)
    check_stop_rule(args.tolerance, args.max_iterations)
    uniform = DampingTable({}, default_factor=args.damping)
    labels, graph, info = _learning_inputs(args)
    print(f"learning graph: {info['vertices']} vertices, {info['edges']} edges")

    stop = {"tolerance": args.tolerance, "max_iters": args.max_iterations}
    runs = (
        ("default_pagerank", "default pagerank",
         run_to_convergence(graph, damping=args.damping, **stop)),
        ("adjusted_uniform", "adjusted (uniform factors)",
         run_adjusted_to_convergence(graph, uniform, **stop)),
    )
    summary = {"command": "baseline", "config": settings, "graph": info}
    # both runs are scored on one label mask, as learn's F1 is
    label_mask = labels.mask(graph.vertices)
    for key, name, res in runs:
        f1 = mask_f1(classify(res.scores), label_mask)
        mass = float(res.scores.sum())
        state = "converged" if res.converged else "did not converge"
        print(
            f"{name}: F1 {f1:.4f} ({state} after {res.iterations} iterations, "
            f"last L1 change {res.delta:.3g}, mass {mass:.15g})"
        )
        # JSON has no infinity: a run of no steps records no change
        summary[key] = {
            "f1": f1, "converged": res.converged, "iterations": res.iterations,
            "delta": res.delta if res.iterations else None, "mass": mass,
        }
    bound = contraction_bound(graph, uniform)
    print(f"adjusted step contraction bound ||M||_1 = {bound:.4g}")
    summary["adjusted_uniform"]["contraction_bound"] = bound

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_run_summary(out_dir / "baseline.json", summary)
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

    # learn and baseline must build the same learning graph from these options
    graph_options = argparse.ArgumentParser(add_help=False)
    graph_options.add_argument("--flows", required=True, help="ordered flow CSV")
    graph_options.add_argument("--labels", required=True, help="critical IPs/CIDRs, one per line")
    graph_options.add_argument(
        "--pair-fraction", type=float, required=True,
        help="retain port pairs in strictly more than this fraction of flows",
    )
    graph_options.add_argument("--learn-split", type=float, default=0.70)

    learn_p = sub.add_parser("learn", parents=[graph_options],
                             help="learn damping factors on the static graph")
    learn_p.add_argument("--out", required=True, help="output directory")
    learn_p.add_argument(
        "--heuristic",
        choices=[name.replace("_", "-") for name in HEURISTICS],
        default=LearnConfig.heuristic.replace("_", "-"),
    )
    learn_p.add_argument("--max-iterations", type=int, default=LearnConfig.max_iterations)
    learn_p.add_argument("--rw-probability", type=float, default=LearnConfig.rw_probability)
    learn_p.add_argument("--grid-step", type=float, default=LearnConfig.grid_step)
    learn_p.add_argument("--seed", type=int, default=None)
    learn_p.set_defaults(func=cmd_learn)

    stream_p = sub.add_parser("stream", help="single-pass ranking over a flow stream")
    stream_p.add_argument("--flows", required=True, help="ordered flow CSV")
    stream_p.add_argument("--factors", help="learned damping table file")
    stream_p.add_argument(
        "--default-factors",
        action="store_true",
        help=f"run the baseline with every lookup resolving to {DEFAULT_DAMPING}",
    )
    stream_p.add_argument("--labels", help="optional critical IPs/CIDRs for F1 samples")
    stream_p.add_argument("--local-prefixes", help="optional local network CIDRs")
    stream_p.add_argument("--out", required=True, help="output directory")
    stream_p.add_argument("--beta", type=float, default=StreamConfig.beta)
    stream_p.add_argument("--sample-interval", type=int, default=StreamConfig.sample_interval)
    stream_p.add_argument("--top-k", type=int, default=StreamConfig.top_k)
    stream_p.set_defaults(func=cmd_stream)

    baseline = sub.add_parser(
        "baseline", parents=[graph_options],
        help="converged F1 of both unadjusted variants on the learning graph",
    )
    baseline.add_argument("--out", help="optional output directory for baseline.json")
    baseline.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    baseline.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    baseline.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERS)
    baseline.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # OpenBLAS starts worker threads while numpy loads, a third or more of
    # numpy's import time on two cores. No keyterrain code calls BLAS (a
    # test checks this), so one thread changes no result; a value the user
    # set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
