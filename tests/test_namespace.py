"""The package namespace loads lazily: prepare runs without numpy, every name stays."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import keyterrain
from keyterrain.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exported when it imported all of its modules eagerly,
# under the module it was imported from then
EAGER_EXPORTS = {
    "flows": (
        "FlowParseError", "FlowRecord", "FlowRow", "ParseStats", "PortPair", "dedupe_flows",
        "parse_flow_rows", "parse_flows", "sort_flows", "write_flows",
    ),
    "graph": (
        "GraphBuildError", "PortPairCensus", "StaticGraph", "build_static_graph",
        "count_port_pairs", "filter_port_pairs", "write_edge_list",
    ),
    "labels": ("AddressSet",),
    "learning": (
        "HEURISTICS", "LearnConfig", "LearnResult", "choose_conflict_port_pair",
        "evaluate_classification", "grid_values", "hill_climb_step", "learn", "random_walk_step",
    ),
    "metrics": ("Metrics", "precision_recall_f1", "topk_true_positives", "variance_of_tp"),
    "pagerank": (
        "DEFAULT_DAMPING", "ConvergenceResult", "DampingTable", "adjusted_iteration", "classify",
        "contraction_bound", "default_iteration", "init_scores", "load_damping_table",
        "run_adjusted_to_convergence", "run_to_convergence", "save_damping_table",
    ),
    "streaming": ("SamplePoint", "StreamConfig", "StreamState", "run_stream", "snapshot"),
}
EAGER_NAMES = sorted(name for names in EAGER_EXPORTS.values() for name in names)


def run_python(code: str, cwd: Path, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_numpy(tmp_path):
    out = run_python("import sys, keyterrain.cli; print('numpy' in sys.modules)", tmp_path)
    assert out.split() == ["False"]


def test_cli_import_loads_no_seed_or_spill_modules(tmp_path):
    # secrets serves only an unseeded learn, tempfile and pickle only a sort
    # that spills; -S keeps site hooks (.pth files) from importing them first
    out = run_python(
        "import sys, keyterrain.cli\n"
        "print(*(name in sys.modules for name in ('secrets', 'tempfile', 'pickle')))",
        tmp_path,
        "-S",
    )
    assert out.split() == ["False", "False", "False"]


def test_prepare_loads_no_numpy(tmp_path):
    (tmp_path / "in.csv").write_text(
        "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
        "3,4,10.0.0.1,10.0.0.2,1,2\n"
        "1,2,10.0.0.1,10.0.0.2,1,2\n"
        '1,2,"fe80::1%a,b",10.0.0.2,1,2\n'
    )
    out = run_python(
        "import sys; from keyterrain.cli import main\n"
        "code = main(['prepare', '--flows', 'in.csv', '--out', 'out.csv', '--sort', 'start',"
        " '--dedupe'])\n"
        "print(code, 'numpy' in sys.modules)",
        tmp_path,
    )
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out.csv").read_text() == (
        "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"
        "1,2,10.0.0.1,10.0.0.2,1,2\n"
        '1,2,"fe80::1%a,b",10.0.0.2,1,2\n'
        "3,4,10.0.0.1,10.0.0.2,1,2\n"
    )


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]
)
def test_every_eager_name_resolves_to_its_module_object(module, name):
    defining = importlib.import_module(f"keyterrain.{module}")
    assert getattr(keyterrain, name) is getattr(defining, name)


def test_all_and_dir_list_every_eager_name():
    assert sorted(keyterrain.__all__) == EAGER_NAMES
    assert set(EAGER_NAMES) <= set(dir(keyterrain))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from keyterrain import *", namespace)
    assert set(EAGER_NAMES) <= set(namespace)
    assert namespace["run_stream"] is importlib.import_module("keyterrain.streaming").run_stream


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        keyterrain.no_such_name


def test_learn_help_lists_heuristics(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["learn", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("minimum", "maximum", "average", "smallest-difference"):
        assert name in out
