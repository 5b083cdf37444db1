"""End-to-end CLI runs over temporary files."""

import argparse
import csv
import hashlib
import json
import os
import random
import re
import threading
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from keyterrain import graph as graph_module
from keyterrain.cli import build_parser, main
from keyterrain.flows import (
    CANONICAL_COLUMNS,
    FlowRecord,
    parse_flow_rows,
    parse_flows,
    write_flows,
)
from keyterrain.labels import AddressSet
from keyterrain.learning import LearnConfig
from keyterrain.pagerank import DampingTable
from keyterrain.streaming import StreamConfig, run_stream, write_samples_csv, write_topk_csv

from instances import STAR_SERVER, flow, star_instance, tangled_instance

ROOT = Path(__file__).resolve().parents[1]

# sha256 of (factors.csv, f1_trace.csv) for a seeded 60-iteration learn on
# tangled_instance(); any change to a choice the learner makes changes them
TANGLED_DIGESTS = {
    "minimum": (
        "01f46fae354b204b45a46ce989c4b195bf2cf41a1af4008d9481f60c045c86b7",
        "3208eaa9399c6ad8917e4be9531913a36a8b8da2b0da45c8657442408304f647",
    ),
    "maximum": (
        "ebde4ba2fdf0a354c45cbd4e307610c0d88017ac6c10313fe9317f8416a38f35",
        "b9a4acee3bd8126b9d900746006ad6301ef6e73bfe23ca2903879823cda4e0ab",
    ),
    "average": (
        "d5777bb73406c0514a9b6135f7f56dd1a6cdfcc915ff466fe4b50343e3f9510c",
        "d93233ccc2766bdee7c47a55e62796ace1acf37f84b9a6d89a9867d7c2731ba2",
    ),
    "smallest-difference": (
        "8cdf8a84936efc0f2def0cca2d17660a0540b27a7e80f781a7157d3b8b19bde1",
        "cd801c054c7fb8ff12879e8961dbe7bd418cca47f2a24c0bbd03918157bf2066",
    ),
}
# sha256 of graph_edges.csv for the same runs: one learning graph for every heuristic
TANGLED_EDGES_DIGEST = "3c0d24bfac16a1cb2c0687a384b7829189caa0720948e129320510cd9f3000c7"


@pytest.fixture
def star_files(tmp_path):
    records, _ = star_instance()
    flows_path = tmp_path / "flows.csv"
    with open(flows_path, "w", newline="") as fh:
        write_flows(records, fh)
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text(f"# ground truth\n{STAR_SERVER}\n")
    return flows_path, labels_path


@pytest.fixture
def tangled_files(tmp_path):
    records, labels = tangled_instance()
    flows_path = tmp_path / "tangled.csv"
    with open(flows_path, "w", newline="") as fh:
        write_flows(records, fh)
    labels_path = tmp_path / "tangled_labels.txt"
    labels_path.write_text("".join(f"{ip}\n" for ip in sorted(labels.addresses)))
    return flows_path, labels_path


def read_flow_file(path):
    with open(path, newline="") as fh:
        return list(parse_flows(fh))


def learn_args(flows_path, labels_path, out_dir, **overrides):
    args = [
        "learn",
        "--flows", str(flows_path),
        "--labels", str(labels_path),
        "--out", str(out_dir),
        "--pair-fraction", "0.01",
        "--learn-split", "1.0",
        "--seed", "7",
    ]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestPrepare:
    def test_sort_by_end(self, tmp_path):
        records = [
            flow("10.0.0.1", "10.0.0.2", 1, 2, 0, 9),
            flow("10.0.0.3", "10.0.0.4", 1, 2, 0, 3),
        ]
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            write_flows(records, fh)
        out = tmp_path / "out.csv"
        assert main(["prepare", "--flows", str(src), "--out", str(out), "--sort", "end"]) == 0
        assert [r.end_ts for r in read_flow_file(out)] == [3, 9]

    def test_dedupe_reports_removed(self, tmp_path, capsys):
        records = [flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 9)] * 3
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            write_flows(records, fh)
        out = tmp_path / "out.csv"
        assert main(["prepare", "--flows", str(src), "--out", str(out), "--dedupe"]) == 0
        assert len(read_flow_file(out)) == 1
        assert "duplicates removed: 2" in capsys.readouterr().out

    def test_end_sort_dedupe_keeps_earliest_ending_copy(self, tmp_path, capsys):
        # the later-ending copy of the key comes first in the input; an end
        # sort runs before the dedupe, so the earliest-ending copy survives
        late = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 50)
        other = flow("10.0.0.3", "10.0.0.4", 1, 2, 6, 30)
        early = flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 20)
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            write_flows([late, other, early], fh)
        out = tmp_path / "out.csv"
        args = ["prepare", "--flows", str(src), "--out", str(out), "--sort", "end", "--dedupe"]
        assert main(args) == 0
        assert read_flow_file(out) == [early, other]
        assert "duplicates removed: 1" in capsys.readouterr().out

    def test_idempotent(self, tmp_path):
        records = [
            flow("10.0.0.1", "10.0.0.2", 1, 2, 7, 9),
            flow("10.0.0.3", "10.0.0.4", 1, 2, 2, 3),
            flow("10.0.0.1", "10.0.0.2", 1, 2, 7, 9),
        ]
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            write_flows(records, fh)
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        base = ["--sort", "start", "--dedupe"]
        assert main(["prepare", "--flows", str(src), "--out", str(once)] + base) == 0
        assert main(["prepare", "--flows", str(once), "--out", str(twice)] + base) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_skip_policy(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(
            "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
            "1,2,10.0.0.1,10.0.0.2,1,2\n"
            "1,2,bad-ip,10.0.0.2,1,2\n"
        )
        out = tmp_path / "out.csv"
        assert main(["prepare", "--flows", str(src), "--out", str(out), "--on-error", "skip"]) == 0
        assert len(read_flow_file(out)) == 1
        assert "rows skipped: 1" in capsys.readouterr().out

    def test_abort_policy_fails(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text(
            "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n1,2,bad-ip,10.0.0.2,1,2\n"
        )
        out = tmp_path / "out.csv"
        assert main(["prepare", "--flows", str(src), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_column_mapping(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("first,last,a,b,pa,pb\n5,6,10.0.0.1,10.0.0.2,1,2\n")
        out = tmp_path / "out.csv"
        code = main(
            [
                "prepare", "--flows", str(src), "--out", str(out),
                "--columns", "start_ts=first,end_ts=last,src_ip=a,dst_ip=b,src_port=pa,dst_port=pb",
            ]
        )
        assert code == 0
        assert read_flow_file(out) == [flow("10.0.0.1", "10.0.0.2", 1, 2, 5, 6)]

    def test_column_mapping_lets_one_column_serve_two_fields(self, tmp_path):
        # as a single-timestamp export needs
        src = tmp_path / "in.csv"
        src.write_text("ts,src_ip,dst_ip,src_port,dst_port\n7,10.0.0.1,10.0.0.2,1,2\n")
        out = tmp_path / "out.csv"
        args = ["prepare", "--flows", str(src), "--out", str(out),
                "--columns", "start_ts=ts,end_ts=ts"]
        assert main(args) == 0
        assert read_flow_file(out) == [flow("10.0.0.1", "10.0.0.2", 1, 2, 7, 7)]

    def test_column_mapping_rejects_a_field_named_twice(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("a,b,src_ip,dst_ip,src_port,dst_port\n1,2,10.0.0.1,10.0.0.2,1,2\n")
        out = tmp_path / "out.csv"
        args = ["prepare", "--flows", str(src), "--out", str(out),
                "--columns", "start_ts=a,end_ts=b,start_ts=b"]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: column mapping names 'start_ts' twice\n"
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["prepare", "--flows", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_is_flows_leaves_input_intact(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            write_flows([flow("10.0.0.1", "10.0.0.2", 1, 2, ts) for ts in range(50)], fh)
        before = src.read_bytes()
        # spelled differently, so only a same-file test can tell
        out = f"{tmp_path}/./in.csv"
        args = ["prepare", "--flows", str(src), "--out", out, "--sort", "start", "--dedupe"]
        assert main(args) == 1
        assert "is the --flows file" in capsys.readouterr().err
        assert src.read_bytes() == before


class TestLearn:
    def test_star_reaches_perfect_f1(self, star_files, tmp_path, capsys):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "learned"
        assert main(learn_args(flows_path, labels_path, out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["best_f1"] == 1.0
        assert (out_dir / "factors.csv").exists()
        assert (out_dir / "f1_trace.csv").exists()
        assert (out_dir / "graph_edges.csv").exists()
        out = capsys.readouterr().out
        assert "seed = 7" in out
        assert "best F1 1.0000" in out

    def test_deterministic_factor_files(self, tangled_files, tmp_path):
        # the star's factors are the same under every seed, the tangled
        # instance's are not, so a seed that is ignored shows here
        flows_path, labels_path = tangled_files

        def factors(run, seed):
            args = learn_args(flows_path, labels_path, tmp_path / run, max_iterations=60, seed=seed)
            assert main(args) == 0
            return (tmp_path / run / "factors.csv").read_bytes()

        first = factors("first", 7)
        assert factors("again", 7) == first
        assert factors("other", 8) != first

    def test_missing_labels_file(self, star_files, tmp_path, capsys):
        flows_path, _ = star_files
        code = main(learn_args(flows_path, tmp_path / "missing.txt", tmp_path / "out"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unusable_pair_fraction(self, star_files, tmp_path, capsys):
        flows_path, labels_path = star_files
        code = main(
            learn_args(flows_path, labels_path, tmp_path / "out", pair_fraction="1.0")
        )
        assert code == 1
        assert "learning graph" in capsys.readouterr().err

    def test_unseeded_run_records_the_seed_it_drew(
        self, tangled_files, tmp_path, capsys, monkeypatch
    ):
        # the star's outputs are the same under every seed, the tangled
        # instance's are not, so only here does the rerun test the seed
        flows_path, labels_path = tangled_files
        # the environment sets no seed: only --seed does
        monkeypatch.setenv("KEYTERRAIN_SEED", "7")
        drawn_dir, rerun_dir = tmp_path / "drawn", tmp_path / "rerun"
        args = learn_args(flows_path, labels_path, drawn_dir, max_iterations=60)
        at = args.index("--seed")
        del args[at:at + 2]
        assert main(args) == 0
        printed = [line.strip() for line in capsys.readouterr().out.splitlines()]
        seeds = [line for line in printed if line.startswith("seed = ")]
        assert len(seeds) == 1
        seed = int(seeds[0].removeprefix("seed = "))
        assert seed != 7  # a 32-bit draw is 7 once in 2**32 runs
        assert json.loads((drawn_dir / "report.json").read_text())["config"]["seed"] == seed

        rerun = learn_args(flows_path, labels_path, rerun_dir, max_iterations=60, seed=seed)
        assert main(rerun) == 0
        for name in ("factors.csv", "f1_trace.csv"):
            assert (rerun_dir / name).read_bytes() == (drawn_dir / name).read_bytes(), name

    def test_hyphenated_heuristic_accepted(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "out"
        assert main(
            learn_args(flows_path, labels_path, out_dir, heuristic="smallest-difference")
        ) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["heuristic"] == "smallest_difference"

    @pytest.mark.parametrize("heuristic", sorted(TANGLED_DIGESTS))
    def test_seeded_outputs_pinned(self, tmp_path, heuristic):
        records, labels = tangled_instance()
        flows_path = tmp_path / "flows.csv"
        with open(flows_path, "w", newline="") as fh:
            write_flows(records, fh)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("".join(f"{ip}\n" for ip in sorted(labels.addresses)))
        out_dir = tmp_path / "out"
        args = learn_args(
            flows_path, labels_path, out_dir, heuristic=heuristic, max_iterations=60
        )
        assert main(args) == 0
        digests = tuple(
            hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("factors.csv", "f1_trace.csv")
        )
        assert digests == TANGLED_DIGESTS[heuristic]
        edges = hashlib.sha256((out_dir / "graph_edges.csv").read_bytes()).hexdigest()
        assert edges == TANGLED_EDGES_DIGEST

    @pytest.mark.parametrize("split", ["1.5", "-0.2", "0"])
    def test_learn_split_out_of_range(self, star_files, tmp_path, capsys, split):
        _, labels_path = star_files
        # a flow file that does not exist: the split must be rejected before it is read
        args = learn_args(tmp_path / "absent.csv", labels_path, tmp_path / "out")
        args[args.index("--learn-split") + 1] = split
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --learn-split must be in (0, 1]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("grid_step", "0", "grid_step out of (0, 1]: 0.0"),
            ("rw_probability", "2", "rw_probability out of [0, 1]: 2.0"),
            ("max_iterations", "-1", "max_iterations must be non-negative"),
            ("pair_fraction", "1.5", "fraction must be in [0, 1], got 1.5"),
        ],
    )
    def test_bad_option_rejected_before_flows_are_read(
        self, star_files, tmp_path, capsys, option, value, message
    ):
        _, labels_path = star_files
        args = learn_args(
            tmp_path / "absent.csv", labels_path, tmp_path / "out", **{option: value}
        )
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestStream:
    def test_default_factors_run(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "streamed"
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(out_dir),
                "--default-factors", "--labels", str(labels_path),
                "--sample-interval", "100", "--top-k", "5",
            ]
        )
        assert code == 0
        lines = (out_dir / "samples.csv").read_text().splitlines()
        # 440 flows at interval 100 -> samples at 100..400 plus the terminal one
        assert len(lines) == 1 + 5
        assert lines[1].startswith("100,")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["flows_processed"] == 440
        assert summary["flows_per_second"] > 0
        assert len(summary["samples"]) == 5
        assert (out_dir / "topk_0001.csv").exists()
        assert (out_dir / "topk_0005.csv").exists()

    def test_learned_factors_round_trip(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        learned = tmp_path / "learned"
        assert main(learn_args(flows_path, labels_path, learned)) == 0
        out_dir = tmp_path / "streamed"
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(out_dir),
                "--factors", str(learned / "factors.csv"),
                "--labels", str(labels_path), "--top-k", "3",
            ]
        )
        assert code == 0
        samples = (out_dir / "samples.csv").read_text().splitlines()
        assert len(samples) == 2  # header + terminal sample only

    def test_unreadable_factor_file_fails(self, star_files, tmp_path, capsys):
        flows_path, _ = star_files
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(tmp_path / "o"),
                "--factors", str(tmp_path / "missing_factors.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_factors_or_default_required(self, star_files, tmp_path, capsys):
        flows_path, _ = star_files
        code = main(["stream", "--flows", str(flows_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--default-factors" in capsys.readouterr().err

    def test_factors_and_default_factors_exclusive(self, star_files, tmp_path, capsys):
        flows_path, _ = star_files
        factors = tmp_path / "factors.csv"
        factors.write_text("default,0.5\n")
        out_dir = tmp_path / "o"
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(out_dir),
                "--factors", str(factors), "--default-factors",
            ]
        )
        assert code == 1
        assert "--default-factors" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_local_prefixes_counted(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        prefixes = tmp_path / "local.txt"
        prefixes.write_text("10.0.0.0/16\n")
        out_dir = tmp_path / "streamed"
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(out_dir),
                "--default-factors", "--labels", str(labels_path),
                "--local-prefixes", str(prefixes), "--top-k", "10",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["samples"][-1]["topk_local_members"] == 10


    def test_local_members_recount_from_topk_files(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        prefixes = tmp_path / "local.txt"
        # seven of the twenty clients, and the sink by its exact address
        prefixes.write_text("10.0.1.0/29\n10.0.2.1\n")
        out_dir = tmp_path / "streamed"
        code = main(
            [
                "stream", "--flows", str(flows_path), "--out", str(out_dir),
                "--default-factors", "--labels", str(labels_path),
                "--local-prefixes", str(prefixes), "--top-k", "10",
                "--sample-interval", "50",
            ]
        )
        assert code == 0
        local = AddressSet.from_file(prefixes)
        rows = json.loads((out_dir / "summary.json").read_text())["samples"]
        assert len(rows) == 9
        counts = []
        for row in rows:
            lines = (out_dir / row["topk_file"]).read_text().splitlines()[1:]
            counts.append(sum(line.split(",")[1] in local for line in lines))
        assert [row["topk_local_members"] for row in rows] == counts
        assert 0 < max(counts) < 10


class TestBaseline:
    def test_reports_both_variants(self, star_files, tmp_path, capsys):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "base"
        code = main(
            [
                "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
                "--pair-fraction", "0.01", "--learn-split", "1.0", "--out", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "baseline.json").read_text())
        assert 0.0 <= payload["default_pagerank"]["f1"] <= 1.0
        assert 0.0 <= payload["adjusted_uniform"]["f1"] <= 1.0
        out = capsys.readouterr().out
        assert "default pagerank" in out
        assert "adjusted (uniform factors)" in out

    def test_zero_damping_scores_zero(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "base"
        code = main(
            [
                "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
                "--pair-fraction", "0.01", "--learn-split", "1.0",
                "--damping", "0.0", "--out", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "baseline.json").read_text())
        assert payload["default_pagerank"]["f1"] == 0.0
        assert payload["adjusted_uniform"]["f1"] == 0.0

    def test_loose_tolerance_converges_no_slower(self, star_files, tmp_path):
        flows_path, labels_path = star_files

        def iterations(tolerance):
            out_dir = tmp_path / f"tol_{tolerance}"
            assert main(
                [
                    "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
                    "--pair-fraction", "0.01", "--learn-split", "1.0",
                    "--tolerance", tolerance, "--out", str(out_dir),
                ]
            ) == 0
            payload = json.loads((out_dir / "baseline.json").read_text())
            return payload["default_pagerank"]["iterations"]

        assert iterations("0.001") <= iterations("1e-12")

    @pytest.mark.parametrize("max_iterations", ["100", "0"])
    def test_records_stop_diagnostics_as_strict_json(self, star_files, tmp_path, max_iterations):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "base"
        assert main(
            [
                "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
                "--pair-fraction", "0.01", "--learn-split", "1.0",
                "--max-iterations", max_iterations, "--out", str(out_dir),
            ]
        ) == 0
        # Infinity and NaN are not JSON
        payload = json.loads((out_dir / "baseline.json").read_text(), parse_constant=pytest.fail)
        adjusted = payload["adjusted_uniform"]
        assert adjusted["contraction_bound"] == pytest.approx(1.7, abs=1e-12)
        assert adjusted["mass"] == pytest.approx(1.0, abs=1e-12)
        if max_iterations == "0":
            assert adjusted["delta"] is None
            assert payload["default_pagerank"]["delta"] is None
        else:
            assert adjusted["converged"]
            assert adjusted["delta"] < 1e-9

    @pytest.mark.parametrize("split", ["1.5", "-0.2", "0"])
    def test_learn_split_out_of_range(self, star_files, tmp_path, capsys, split):
        _, labels_path = star_files
        code = main(
            [
                "baseline", "--flows", str(tmp_path / "absent.csv"),
                "--labels", str(labels_path), "--pair-fraction", "0.01",
                "--learn-split", split, "--out", str(tmp_path / "base"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --learn-split must be in (0, 1]")
        assert not (tmp_path / "base").exists()


    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-iterations", "-5", "max_iters must be non-negative"),
            ("--tolerance", "inf", "tolerance must be a finite positive number"),
            ("--tolerance", "nan", "tolerance must be a finite positive number"),
            ("--tolerance", "0", "tolerance must be a finite positive number"),
        ],
    )
    def test_meaningless_stop_rule_rejected(
        self, star_files, tmp_path, capsys, option, value, message
    ):
        flows_path, labels_path = star_files
        out_dir = tmp_path / "base"
        code = main(
            [
                "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
                "--pair-fraction", "0.01", "--learn-split", "1.0",
                option, value, "--out", str(out_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out_dir / "baseline.json").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--tolerance", "nan", "tolerance must be a finite positive number, got nan"),
            ("--max-iterations", "-5", "max_iters must be non-negative, got -5"),
            ("--damping", "1.5", "damping out of [0, 1]: 1.5"),
            ("--pair-fraction", "-1", "fraction must be in [0, 1], got -1.0"),
        ],
    )
    def test_bad_option_rejected_before_flows_are_read(
        self, star_files, tmp_path, capsys, option, value, message
    ):
        _, labels_path = star_files
        code = main(
            [
                "baseline", "--flows", str(tmp_path / "absent.csv"),
                "--labels", str(labels_path), "--pair-fraction", "0.01",
                option, value, "--out", str(tmp_path / "base"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "base").exists()


def address_file_args(case, path, labels_path):
    """Command-line options of ``case`` that read ``path`` as an address file."""
    graph = ["--pair-fraction", "0.01", "--learn-split", "1.0"]
    return {
        "learn": ["learn", "--labels", str(path), *graph],
        "baseline": ["baseline", "--labels", str(path), *graph],
        "stream-labels": ["stream", "--default-factors", "--labels", str(path)],
        "stream-local-prefixes": [
            "stream", "--default-factors", "--labels", str(labels_path),
            "--local-prefixes", str(path),
        ],
    }[case]


ADDRESS_FILE_CASES = ["learn", "baseline", "stream-labels", "stream-local-prefixes"]


@pytest.mark.parametrize("case", ADDRESS_FILE_CASES)
def test_empty_labels_file(star_files, tmp_path, capsys, case):
    flows_path, labels_path = star_files
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    out = tmp_path / "out"
    args = address_file_args(case, empty, labels_path)
    assert main([*args, "--flows", str(flows_path), "--out", str(out)]) == 1
    assert "no entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ADDRESS_FILE_CASES)
def test_malformed_address_entry_names_file_and_line(star_files, tmp_path, capsys, case):
    flows_path, labels_path = star_files
    bad = tmp_path / "bad.txt"
    bad.write_text("# hosts\n10.0.0.1\n10.0.0.x  # typo\n")
    out = tmp_path / "out"
    args = address_file_args(case, bad, labels_path)
    assert main([*args, "--flows", str(flows_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: address file {bad} line 3: "
        "'10.0.0.x' does not appear to be an IPv4 or IPv6 network\n"
    )
    assert not out.exists()


@pytest.fixture
def split_files(tmp_path):
    """Ten flows split 5/5: two of the first five repeat an earlier key, and
    the last five, on other hosts, fall outside the learning prefix."""
    records = [
        flow("10.0.0.1", "10.0.0.2", 5000, 80, 0, 1),
        flow("10.0.0.1", "10.0.0.2", 5000, 80, 0, 5),  # re-export, later end
        flow("10.0.0.2", "10.0.0.3", 5001, 443, 1),
        flow("10.0.0.2", "10.0.0.3", 5001, 443, 1),  # exact copy
        flow("10.0.0.3", "10.0.0.1", 5002, 22, 2),
    ] + [flow(f"10.0.9.{i}", "10.0.9.99", 6000 + i, 53, 3 + i) for i in range(5)]
    flows_path = tmp_path / "flows.csv"
    with open(flows_path, "w", newline="") as fh:
        write_flows(records, fh)
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("10.0.0.1\n")
    return flows_path, labels_path


SPLIT_GRAPH = {
    "flows_total": 10,
    "flows_learning": 5,
    "flows_after_dedupe": 3,
    "retained_pairs": 3,
    "vertices": 3,
    "edges": 3,
}


def test_learn_reports_split_counts(split_files, tmp_path):
    flows_path, labels_path = split_files
    args = learn_args(flows_path, labels_path, tmp_path / "out", max_iterations=5)
    args[args.index("--learn-split") + 1] = "0.5"
    assert main(args) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["graph"] == SPLIT_GRAPH


def test_baseline_reports_split_counts(split_files, tmp_path):
    flows_path, labels_path = split_files
    out_dir = tmp_path / "base"
    assert main(
        [
            "baseline", "--flows", str(flows_path), "--labels", str(labels_path),
            "--pair-fraction", "0.01", "--learn-split", "0.5", "--out", str(out_dir),
        ]
    ) == 0
    payload = json.loads((out_dir / "baseline.json").read_text())
    assert payload["graph"] == SPLIT_GRAPH


def test_learn_and_baseline_build_one_learning_graph(split_files, tmp_path):
    # baseline is learn's reference only while both build the same graph from
    # the same options, their defaults included
    flows_path, labels_path = split_files
    graph = ["--flows", str(flows_path), "--labels", str(labels_path), "--pair-fraction", "0.01"]
    learned, base = tmp_path / "learned", tmp_path / "base"
    assert main(["learn", *graph, "--out", str(learned),
                 "--max-iterations", "2", "--seed", "7"]) == 0
    assert main(["baseline", *graph, "--out", str(base)]) == 0
    report = json.loads((learned / "report.json").read_text())
    baseline = json.loads((base / "baseline.json").read_text())
    assert report["graph"] == baseline["graph"]
    assert report["graph"]["flows_learning"] == 7
    assert report["config"]["learn_split"] == baseline["config"]["learn_split"]


def command_parser(command):
    """The parser build_parser adds for ``command``."""
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands.choices[command]


def option_dests(command):
    """The dests of a command's options, in the order build_parser adds them."""
    return [a.dest for a in command_parser(command)._actions if a.dest != "help"]


@pytest.mark.parametrize("command, config", [("learn", LearnConfig()), ("stream", StreamConfig())])
def test_parser_defaults_are_the_config_defaults(command, config):
    # learn's --seed alone differs: without it a fresh seed is drawn
    parser = command_parser(command)
    names = [f.name for f in fields(config) if f.name != "seed"]
    expected = {name: getattr(config, name) for name in names}
    if command == "learn":
        expected["heuristic"] = expected["heuristic"].replace("_", "-")
    assert {name: parser.get_default(name) for name in names} == expected


def help_entries(command, capsys):
    """The option entries of a command's --help, each a list of its lines,
    by the entry's first option string."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries = {}
    for line in capsys.readouterr().out.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            entry = entries[line.split()[0]] = []
        entry.append(line)
    return entries


def test_learn_and_baseline_help_describe_the_graph_options_alike(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    shared = ("--flows", "--labels", "--pair-fraction", "--learn-split")
    learn = help_entries("learn", capsys)
    baseline = help_entries("baseline", capsys)
    assert [learn[option] for option in shared] == [baseline[option] for option in shared]


# README's Defaults table, row by row: the parser options whose defaults each
# row states, in the order it states them
README_DEFAULTS = {
    "damping factor (unlearned pairs)": [("baseline", "damping")],
    "learning iterations": [("learn", "max_iterations")],
    "random-walk probability": [("learn", "rw_probability")],
    "factor grid step": [("learn", "grid_step")],
    "heuristic": [("learn", "heuristic")],
    "learn split": [("learn", "learn_split")],
    "streaming transition probability (beta)": [("stream", "beta")],
    "sample interval": [("stream", "sample_interval")],
    "top-k": [("stream", "top_k")],
    "convergence tolerance / max iterations (baseline)": [
        ("baseline", "tolerance"), ("baseline", "max_iterations"),
    ],
}


def stated_value(text):
    """The first value a Defaults cell states: a number, a percentage as a
    fraction, or else its first word."""
    number = re.search(r"\d[\d.e-]*%?", text)
    if number is None:
        return text.split()[0]
    value = number.group()
    return float(value[:-1]) / 100 if value.endswith("%") else float(value)


def test_readme_defaults_table_states_the_parser_defaults():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Defaults\n", 1)[1].split("\n## ", 1)[0]
    # the header row and the separator row come first
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    table = {setting.strip(): cell for setting, cell in rows[2:]}
    assert list(table) == list(README_DEFAULTS)
    for setting, options in README_DEFAULTS.items():
        stated = [stated_value(part) for part in table[setting].split(" / ")]
        assert stated == [command_parser(c).get_default(dest) for c, dest in options], setting


@pytest.mark.parametrize("command", ["prepare", "learn", "stream", "baseline"])
def test_recorded_config_lists_every_option_in_parser_order(
    star_files, tmp_path, capsys, command
):
    flows_path, labels_path = star_files
    out = tmp_path / "out"
    graph = ["--labels", str(labels_path), "--pair-fraction", "0.01", "--learn-split", "1.0"]
    args = {
        "prepare": [],
        "learn": [*graph, "--max-iterations", "2", "--seed", "7"],
        "stream": ["--default-factors"],
        "baseline": graph,
    }[command]
    assert main([command, "--flows", str(flows_path), "--out", str(out), *args]) == 0
    expected = option_dests(command)
    if command == "stream":
        # --default-factors is recorded as the factors it stands for
        expected.remove("default_factors")
    lines = capsys.readouterr().out.splitlines()
    printed = [line.split(" = ")[0].strip() for line in lines if line.startswith("  ")]
    assert printed == expected
    if command != "prepare":
        name = {"learn": "report.json", "stream": "summary.json", "baseline": "baseline.json"}
        config = json.loads((out / name[command]).read_text())["config"]
        # the JSON files are written with sorted keys
        assert list(config) == sorted(expected)


# the third line holds a field over csv.field_size_limit(), which the csv
# tokenizer rejects before any field check runs
OVERLONG_FIELD_FLOWS = (
    "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
    "1,2,10.0.0.1,10.0.0.2,1,2\n"
    f"1,2,{'x' * 131073},10.0.0.2,1,2\n"
    "3,4,10.0.0.2,10.0.0.1,2,1\n"
)


@pytest.mark.parametrize("command", ["prepare", "learn", "baseline", "stream"])
def test_tokenizer_error_aborts_with_line_number(tmp_path, capsys, command):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(OVERLONG_FIELD_FLOWS)
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("10.0.0.1\n")
    out = str(tmp_path / "out")
    graph = ["--labels", str(labels_path), "--pair-fraction", "0.01"]
    args = {
        "prepare": ["--out", out],
        "learn": ["--out", out, *graph, "--seed", "7"],
        "baseline": graph,
        "stream": ["--out", out, "--default-factors"],
    }[command]
    assert main([command, "--flows", str(flows_path), *args]) == 1
    err = capsys.readouterr().err
    assert "error: line 3: field larger than field limit (131072)" in err


@pytest.mark.parametrize("command", ["learn", "baseline"])
@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("9,9,10.0.0.3,10.0.0.4,1,99999", "port out of range: 99999"),
        ("9,8,10.0.0.3,10.0.0.4,1,2", "start_ts 9 after end_ts 8"),
        ("9,9,10.0.0.3,not-an-ip,1,2", "bad IP address 'not-an-ip'"),
    ],
)
def test_malformed_row_past_the_split_aborts(tmp_path, capsys, command, bad_row, message):
    # the split keeps 5 of 11 rows; the graph never uses line 12, yet the
    # whole file is parsed, so it is still rejected
    rows = [f"{i},{i},10.0.0.1,10.0.0.2,1,2" for i in range(10)]
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(
        "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n" + "\n".join([*rows, bad_row]) + "\n"
    )
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("10.0.0.1\n")
    out = tmp_path / "out"
    args = [command, "--flows", str(flows_path), "--labels", str(labels_path),
            "--pair-fraction", "0.01", "--learn-split", "0.5", "--out", str(out)]
    assert main(args + (["--seed", "7"] if command == "learn" else [])) == 1
    err = capsys.readouterr().err
    assert f"error: line 12: {message}" in err
    assert not out.exists()


def test_tokenizer_error_is_fatal_under_skip(tmp_path, capsys):
    # the reader cannot tell where the rejected record ends, so skip mode
    # stops too, and prepare leaves no partial output behind
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(OVERLONG_FIELD_FLOWS)
    out = tmp_path / "out.csv"
    args = ["prepare", "--flows", str(flows_path), "--out", str(out), "--on-error", "skip"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "error: line 3: field larger than field limit (131072)" in captured.err
    assert "records written" not in captured.out
    assert not out.exists()


# A quoted field opens on line 3 past the default field limit and closes on
# line 5; line 4, inside it, holds six fields that read as a flow on their own.
OPEN_QUOTED_FIELD_FLOWS = (
    "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
    "1,2,10.0.0.1,10.0.0.2,1,2\n"
    f'3,4,10.0.0.1,10.0.0.2,1,"{"x" * 131073}\n'
    "5,6,10.0.0.9,10.0.0.8,7,8\n"
    '9"\n'
)


@pytest.mark.parametrize("on_error", ["abort", "skip"])
@pytest.mark.parametrize("sort", ["none", "start"])
def test_prepare_never_reads_inside_an_open_quoted_field(tmp_path, capsys, on_error, sort):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(OPEN_QUOTED_FIELD_FLOWS)
    out = tmp_path / "out.csv"
    args = ["prepare", "--flows", str(flows_path), "--out", str(out),
            "--on-error", on_error, "--sort", sort]
    assert main(args) == 1
    assert "error: line 3: field larger than field limit (131072)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sort", ["none", "start", "end"])
@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("3,4,10.0.0.3,10.0.0.4,1,99999", "port out of range: 99999"),
        ("9,8,10.0.0.3,10.0.0.4,1,2", "start_ts 9 after end_ts 8"),
        ("3,4,10.0.0.3,not-an-ip,1,2", "bad IP address 'not-an-ip'"),
    ],
)
def test_failed_prepare_leaves_no_output(tmp_path, capsys, sort, bad_row, message):
    # before line 3 is read, the header and line 2 are written with no
    # sort, and the header alone with a sort
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(
        f"start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n1,2,10.0.0.1,10.0.0.2,1,2\n{bad_row}\n"
    )
    out = tmp_path / "out.csv"
    assert main(["prepare", "--flows", str(flows_path), "--out", str(out), "--sort", sort]) == 1
    assert f"error: line 3: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "learn", "baseline", "stream"])
@pytest.mark.parametrize("ts", [str(1 << 63), str(-(1 << 63) - 1), "1e30"])
def test_timestamp_outside_int64_aborts_with_line_number(tmp_path, capsys, command, ts):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(
        "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
        "1,2,10.0.0.1,10.0.0.2,1,2\n"
        f"{ts},{ts},10.0.0.2,10.0.0.1,2,1\n"
    )
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("10.0.0.1\n")
    out = tmp_path / "out"
    graph = ["--labels", str(labels_path), "--pair-fraction", "0.01", "--learn-split", "1.0"]
    args = {
        "prepare": [],
        "learn": [*graph, "--seed", "7"],
        "baseline": graph,
        "stream": ["--default-factors"],
    }[command]
    assert main([command, "--flows", str(flows_path), "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert f"error: line 3: timestamp {ts!r} out of int64 range" in err
    assert not out.exists()


HEADER = ",".join(CANONICAL_COLUMNS) + "\n"
# about 140 KB of plain rows: line 3002 lies past the reader's first 64 KB block
PLAIN_ROWS = [
    f"{i},{i + 1},10.0.{i % 7}.1,10.0.{i % 5}.2,{1000 + i % 3},443\n" for i in range(4000)
]


def flow_command(command, flows_path, labels_path, out):
    args = [command, "--flows", str(flows_path), "--labels", str(labels_path), "--out", str(out)]
    if command == "stream":
        return args + ["--default-factors", "--sample-interval", "1000"]
    args += ["--pair-fraction", "0.01"]
    return args + (["--seed", "7", "--max-iterations", "3"] if command == "learn" else [])


def row_parser_error(flows_path):
    """What main prints for the error the row parser raises on the file."""
    with open(flows_path, encoding="utf-8", newline="") as fh:
        with pytest.raises(ValueError) as excinfo:
            for _ in parse_flow_rows(fh):
                pass
    return f"error: {excinfo.value}\n"


@pytest.fixture
def labels_path(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("10.0.0.1\n")
    return path


@pytest.mark.parametrize("command", ["learn", "baseline", "stream"])
@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("9,9,10.0.0.3,not-an-ip,1,2", "bad IP address 'not-an-ip'"),
        ("9,8,10.0.0.3,10.0.0.4,1,2", "start_ts 9 after end_ts 8"),
        ("9,9,10.0.0.3,10.0.0.4,1,65536", "port out of range: 65536"),
    ],
)
def test_row_error_past_the_first_block_is_worded_by_the_row_parser(
    tmp_path, capsys, labels_path, command, bad_row, message
):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(HEADER + "".join(PLAIN_ROWS[:3000]) + bad_row + "\n"
                          + "".join(PLAIN_ROWS[3000:]))
    expected = row_parser_error(flows_path)
    assert expected == f"error: line 3002: {message}\n"
    out = tmp_path / "out"
    assert main(flow_command(command, flows_path, labels_path, out)) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "baseline", "stream"])
def test_undecodable_byte_is_reported_as_line_iteration_reports_it(
    tmp_path, capsys, labels_path, command
):
    flows_path = tmp_path / "flows.csv"
    bad_row = b"9,9,10.0.0.\xff,10.0.0.4,1,2\n"
    flows_path.write_bytes((HEADER + "".join(PLAIN_ROWS[:3000])).encode() + bad_row
                           + "".join(PLAIN_ROWS[3000:]).encode())
    expected = row_parser_error(flows_path)
    # a decode error's position is counted within the chunk being decoded,
    # and 64 KB reads decode other chunks than line iteration does
    with open(flows_path, encoding="utf-8", newline="") as fh:
        with pytest.raises(UnicodeDecodeError) as blockwise:
            while fh.read(1 << 16):
                pass
    assert f"error: {blockwise.value}\n" != expected
    out = tmp_path / "out"
    assert main(flow_command(command, flows_path, labels_path, out)) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["learn", "baseline", "stream"])
def test_unseekable_flow_file_is_read_by_the_row_parser(
    tangled_files, tmp_path, monkeypatch, command
):
    flows_path, labels_path = tangled_files
    fifo = tmp_path / "flows.fifo"
    os.mkfifo(fifo)
    read_by_rows = []

    def parse_rows(fh):
        read_by_rows.append(fh.name)
        return parse_flow_rows(fh)

    monkeypatch.setattr(graph_module, "parse_flow_rows", parse_rows)
    # opening a named pipe for writing waits for its reader
    writer = threading.Thread(target=fifo.write_bytes, args=(flows_path.read_bytes(),))
    writer.start()
    try:
        assert main(flow_command(command, fifo, labels_path, tmp_path / "piped")) == 0
    finally:
        writer.join(timeout=30)
    assert read_by_rows == [str(fifo)]
    assert main(flow_command(command, flows_path, labels_path, tmp_path / "file")) == 0
    assert read_by_rows == [str(fifo)]
    names = {
        "learn": ["graph_edges.csv", "factors.csv"],
        "baseline": [],
        "stream": sorted(path.name for path in (tmp_path / "file").glob("*.csv")),
    }[command]
    if command == "stream":
        assert {"samples.csv", "topk_0001.csv"} <= set(names)
        assert names == sorted(path.name for path in (tmp_path / "piped").glob("*.csv"))
    for name in names:
        piped, direct = (tmp_path / run / name for run in ("piped", "file"))
        assert piped.read_bytes() == direct.read_bytes(), name
    if command == "baseline":
        piped, direct = (json.loads((tmp_path / run / "baseline.json").read_text())
                         for run in ("piped", "file"))
        del piped["config"], direct["config"]
        assert piped == direct


@pytest.mark.parametrize("command", ["learn", "baseline", "stream"])
def test_header_only_flow_file_warns_of_nothing(tmp_path, capsys, labels_path, command):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(HEADER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(flow_command(command, flows_path, labels_path, tmp_path / "out"))
    err = capsys.readouterr().err
    if command == "stream":
        assert (code, err) == (0, "")
        samples = (tmp_path / "out" / "samples.csv").read_text()
        assert samples == "flows_processed,vertices_seen,f1,topk_tp\n0,0,0.0,0\n"
    else:
        assert (code, err) == (
            1, "error: no flows carry a retained port pair; the learning graph would be empty\n"
        )


@pytest.fixture
def field_size_limit_50():
    default = csv.field_size_limit(50)
    yield
    csv.field_size_limit(default)


@pytest.mark.parametrize("command", ["learn", "baseline", "stream"])
def test_field_size_limit_is_the_row_parsers(
    tmp_path, capsys, labels_path, field_size_limit_50, command
):
    # every line is shorter than the limit and the file far longer; line 7
    # holds a start_ts of 51 characters, a valid 1 under the default limit
    lines = [HEADER, *PLAIN_ROWS[:5], "0" * 50 + "1,2,10.0.0.1,10.0.0.2,1,2\n", *PLAIN_ROWS[5:9]]
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:6] + lines[7:]))
    assert main(flow_command(command, short, labels_path, tmp_path / "short")) == 0
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text("".join(lines))
    expected = row_parser_error(flows_path)
    assert expected == "error: line 7: field larger than field limit (50)\n"
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(flow_command(command, flows_path, labels_path, out)) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_plain_file_never_reaches_the_row_parser_in_stream(tmp_path, monkeypatch, labels_path):
    # a prepared file of several 64 KB blocks, IPv6 among its IPs
    rng = random.Random(3)
    ips = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(400)] + ["2001:db8::7", "fe80::1"]
    ports = (22, 53, 80, 443, 3389, 50000)
    rows = [(rng.choice(ips), rng.choice(ips), rng.choice(ports), rng.choice(ports),
             start // 2, start // 2 + rng.randrange(5)) for start in range(8000)]
    flows_path = tmp_path / "flows.csv"
    with open(flows_path, "w", newline="") as fh:
        write_flows(rows, fh)
    assert flows_path.stat().st_size > 4 * graph_module._BLOCK
    expected = tmp_path / "expected"
    expected.mkdir()
    with open(flows_path, newline="") as fh:
        samples = run_stream(parse_flow_rows(fh), DampingTable(),
                             StreamConfig(sample_interval=1000), AddressSet(["10.0.0.1"]))
    with open(expected / "samples.csv", "w", newline="") as fh:
        write_samples_csv(samples, fh)
    for i, sample in enumerate(samples, start=1):
        with open(expected / f"topk_{i:04d}.csv", "w", newline="") as fh:
            write_topk_csv(sample, fh)

    def refuse(*args, **kwargs):
        raise AssertionError("a plain flow file went through the row parser")

    monkeypatch.setattr(graph_module, "parse_flow_rows", refuse)
    out = tmp_path / "out"
    assert main(flow_command("stream", flows_path, labels_path, out)) == 0
    names = sorted(path.name for path in expected.iterdir())
    assert len(names) == 10
    assert sorted(path.name for path in out.glob("*.csv")) == names
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_starts_openblas_with_one_thread_unless_set(tmp_path, monkeypatch, preset, expected):
    # setenv first, so that the variable is restored to its state before the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    missing = str(tmp_path / "missing.csv")
    assert main(["prepare", "--flows", missing, "--out", str(tmp_path / "out.csv")]) == 1
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("prepare", "learn", "stream", "baseline"):
        assert command in out


def test_commands_construct_no_flow_record(star_files, tmp_path, monkeypatch):
    # every command reads plain rows from the parser; wrapping them in
    # FlowRecords is the per-flow cost the row form removes
    def refuse(*args, **kwargs):
        raise AssertionError("a FlowRecord was constructed")

    monkeypatch.setattr(FlowRecord, "__new__", refuse)
    monkeypatch.setattr(FlowRecord, "_make", classmethod(refuse))
    flows_path, labels_path = star_files
    prepared = tmp_path / "prepared.csv"
    graph = ["--labels", str(labels_path), "--pair-fraction", "0.01", "--learn-split", "1.0"]
    commands = [
        ["prepare", "--flows", str(flows_path), "--out", str(prepared),
         "--sort", "start", "--dedupe"],
        ["learn", "--flows", str(prepared), "--out", str(tmp_path / "learned"), *graph,
         "--max-iterations", "3", "--seed", "7"],
        ["baseline", "--flows", str(prepared), "--out", str(tmp_path / "base"), *graph],
        ["stream", "--flows", str(prepared), "--out", str(tmp_path / "streamed"),
         "--factors", str(tmp_path / "learned" / "factors.csv"),
         "--labels", str(labels_path), "--sample-interval", "100"],
    ]
    for args in commands:
        assert main(args) == 0, args[0]
    with pytest.raises(AssertionError, match="FlowRecord was constructed"):
        FlowRecord("10.0.0.1", "10.0.0.2", 1, 2, 3, 4)
