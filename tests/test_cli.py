"""End-to-end CLI runs over temporary files."""

import hashlib
import json

import pytest

from keyterrain.cli import main
from keyterrain.flows import parse_flows, write_flows

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

    def test_empty_labels_file(self, star_files, tmp_path, capsys):
        flows_path, _ = star_files
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        assert main(learn_args(flows_path, empty, tmp_path / "out")) == 1
        assert "no entries" in capsys.readouterr().err

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


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("prepare", "learn", "stream", "baseline"):
        assert command in out
