"""End-to-end CLI runs over temporary files."""

import argparse
import hashlib
import json

import pytest

from keyterrain.cli import build_parser, main
from keyterrain.flows import FlowRecord, parse_flows, write_flows
from keyterrain.labels import AddressSet

from instances import STAR_SERVER, flow, star_instance, tangled_instance

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

    def test_deterministic_factor_files(self, star_files, tmp_path):
        flows_path, labels_path = star_files
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert main(learn_args(flows_path, labels_path, first, heuristic="minimum")) == 0
        assert main(learn_args(flows_path, labels_path, second, heuristic="minimum")) == 0
        assert (first / "factors.csv").read_bytes() == (second / "factors.csv").read_bytes()

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

    def test_env_seed_fallback(self, star_files, tmp_path, capsys, monkeypatch):
        flows_path, labels_path = star_files
        monkeypatch.setenv("KEYTERRAIN_SEED", "7")
        args = learn_args(flows_path, labels_path, tmp_path / "out")
        args.remove("--seed")
        args.remove("7")
        assert main(args) == 0
        assert "seed = 7" in capsys.readouterr().out

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


def option_dests(command):
    """The dests of a command's options, in the order build_parser adds them."""
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return [a.dest for a in commands.choices[command]._actions if a.dest != "help"]


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


def test_tokenizer_error_is_skipped_and_counted(tmp_path, capsys):
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text(OVERLONG_FIELD_FLOWS)
    out = tmp_path / "out.csv"
    args = ["prepare", "--flows", str(flows_path), "--out", str(out), "--on-error", "skip"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "rows read: 3" in captured.out
    assert "rows skipped: 1" in captured.out
    assert "skipped line 3: field larger than field limit" in captured.err
    assert read_flow_file(out) == [
        flow("10.0.0.1", "10.0.0.2", 1, 2, 1, 2),
        flow("10.0.0.2", "10.0.0.1", 2, 1, 3, 4),
    ]


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
