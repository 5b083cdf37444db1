"""The package namespace loads lazily: prepare runs without numpy, every name stays."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import keyterrain
from keyterrain.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def test_package_and_cli_imports_change_no_environment_variable(tmp_path):
    out = run_python(
        "import os; before = dict(os.environ)\n"
        "import keyterrain, keyterrain.cli\n"
        "print(dict(os.environ) == before)",
        tmp_path,
    )
    assert out.split() == ["True"]


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


def test_every_name_the_traced_benchmark_calls_resolves():
    # the traced pass of bench/run.py reaches the package only as ``kt.<name>``,
    # and no test runs it, so a deleted name would surface only there
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    names = sorted(set(re.findall(r"\bkt\.([A-Za-z_]\w*)", tracing)))
    assert names
    assert [name for name in names if not hasattr(keyterrain, name)] == []


def names_used(path: Path) -> set[str]:
    """Every name a module reads: a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_no_public_name_serves_only_the_unit_tests():
    # production code that only unit tests call is code to delete: each public
    # function or class must be named by the package's code (its own module
    # included; a definition names nothing), by the benchmark or by the
    # acceptance suite, never only by the lazy namespace of __init__.py
    package = sorted((SRC / "keyterrain").glob("*.py"))
    used = names_used(ROOT / "tests" / "test_acceptance.py")
    for path in package + sorted((ROOT / "bench").glob("*.py")):
        if path.name not in ("__init__.py", "test_bench.py"):
            used |= names_used(path)
    unused = [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []


def loads(node) -> set[str]:
    """Every name a statement reads: a loaded name or attribute, or an imported name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def defines(node) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_no_private_name_serves_only_the_unit_tests():
    # the same rule for private names: each private module-level function,
    # class or constant must be read by package code, its own definition not
    # counting, or it serves only the tests that reach into the module
    top = [(path.stem, node) for path in sorted((SRC / "keyterrain").glob("*.py"))
           for node in ast.parse(path.read_text()).body]
    read = [loads(node) for _, node in top]
    unread = [
        f"{module}.{name}"
        for i, (module, node) in enumerate(top)
        for name in defines(node)
        if name.startswith("_") and not name.endswith("__")
        and not any(name in names for j, names in enumerate(read) if j != i)
    ]
    assert unread == []


def unread_imports(path: Path) -> list[str]:
    """The names an import statement of the module binds and no code of it reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items()
            if name not in read]


def test_every_imported_name_is_read():
    paths = [
        path
        for folder in (SRC / "keyterrain", ROOT / "tests", ROOT / "bench")
        for path in sorted(folder.glob("*.py"))
    ]
    assert [name for path in paths for name in unread_imports(path)] == []


# numpy functions that hand their work to BLAS
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_no_package_code_reaches_blas():
    # main() starts numpy with one OpenBLAS thread; that can neither change a
    # result nor slow a command while no keyterrain code calls BLAS
    found = []
    for path in sorted((SRC / "keyterrain").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{node.lineno} @" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
        found += [f"{path.name} {name}" for name in sorted(names_used(path) & BLAS_NAMES)]
    assert found == []


# the shift and the mask that pack a port pair into its key or unpack it
PORT_PACKING = {ast.LShift: 16, ast.RShift: 16, ast.BitAnd: 0xFFFF}


def test_only_graph_packs_port_pairs():
    # graph._pair_key is the one packing of a port pair into its int64 key,
    # and StaticGraph the one place that unpacks it
    found = []
    for path in sorted((SRC / "keyterrain").glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.BinOp, ast.AugAssign)) or (
                type(node.op) not in PORT_PACKING
            ):
                continue
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
            if any(isinstance(o, ast.Constant) and o.value == PORT_PACKING[type(node.op)]
                   for o in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
