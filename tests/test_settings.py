"""Each setting's rule is worded once, whichever entry checks it, and the
baseline's stop rule is declared once."""

import inspect
import io

import numpy as np
import pytest

from keyterrain.cli import build_parser, main
from keyterrain.constants import DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, LearnConfig
from keyterrain.flows import PortPair
from keyterrain.graph import read_learning_graph
from keyterrain.labels import AddressSet
from keyterrain.learning import grid_values, hill_climb_step
from keyterrain.pagerank import (
    DampingTable, default_iteration, read_damping_table, run_adjusted_to_convergence,
    run_to_convergence,
)

from instances import graph_of

GRAPH = graph_of([("10.0.0.1", "10.0.0.2", (80, 443)), ("10.0.0.2", "10.0.0.1", (443, 80))])
SCORES = np.full(GRAPH.n, 1.0 / GRAPH.n)
FLOWS = "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n0,0,10.0.0.1,10.0.0.2,80,443\n"


def raised(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


def cli_error(capsys, command, fraction="0.01", *options) -> str:
    """The error ``command`` prints over flow and label files that do not
    exist, so every setting must be checked before either is read."""
    argv = [command, "--flows", "absent.csv", "--labels", "absent.txt"]
    argv += ["--pair-fraction", fraction, "--out", "out", *options]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err.removeprefix("error: ").removesuffix("\n")


def damping_messages(value, capsys):
    return [
        raised(DampingTable, {}, value),
        raised(default_iteration, GRAPH, SCORES, value),
        raised(read_damping_table, [f"default,{value}"]).removeprefix("damping table line 1: "),
        cli_error(capsys, "baseline", "0.01", "--damping", str(value)),
    ]


def grid_step_messages(value, capsys):
    labels = AddressSet(["10.0.0.1"])
    return [
        raised(LearnConfig, grid_step=value),
        raised(grid_values, value),
        raised(hill_climb_step, GRAPH, SCORES, DampingTable(), PortPair(80, 443), labels,
               "minimum", 0.0, grid_step=value),
        cli_error(capsys, "learn", "0.01", "--grid-step", str(value)),
    ]


def split_messages(value, capsys):
    return [
        raised(read_learning_graph, io.StringIO(FLOWS), value, 0.01),
        cli_error(capsys, "learn", "0.01", "--learn-split", str(value)),
        cli_error(capsys, "baseline", "0.01", "--learn-split", str(value)),
    ]


def fraction_messages(value, capsys):
    return [
        raised(read_learning_graph, io.StringIO(FLOWS), 1.0, value),
        cli_error(capsys, "learn", str(value)),
        cli_error(capsys, "baseline", str(value)),
    ]


@pytest.mark.parametrize(
    "messages_of, value, message",
    [
        (damping_messages, 1.5, "damping out of [0, 1]: 1.5"),
        (grid_step_messages, 0.0, "grid_step out of [0.001, 1]: 0.0"),
        (grid_step_messages, 1e-9, "grid_step out of [0.001, 1]: 1e-09"),
        (grid_step_messages, 0.0009, "grid_step out of [0.001, 1]: 0.0009"),
        (split_messages, 1.5, "--learn-split must be in (0, 1], got 1.5"),
        (fraction_messages, 1.5, "fraction must be in [0, 1], got 1.5"),
    ],
    ids=["damping", "grid step", "grid step 1e-9", "grid step 0.0009", "learn split",
         "pair fraction"],
)
def test_each_rule_words_its_error_once(messages_of, value, message, capsys, monkeypatch,
                                         tmp_path):
    monkeypatch.chdir(tmp_path)
    messages = messages_of(value, capsys)
    assert messages == [message] * len(messages)
    assert not (tmp_path / "out").exists()


def test_a_pair_factor_error_names_the_pair():
    message = raised(DampingTable, {PortPair(22, 80): 1.5})
    assert message == "factor for (22, 80): damping out of [0, 1]: 1.5"


def test_stop_rule_is_declared_once():
    args = build_parser().parse_args(
        ["baseline", "--flows", "f", "--labels", "l", "--pair-fraction", "0.01"]
    )
    stop = (DEFAULT_TOLERANCE, DEFAULT_MAX_ITERS)
    assert (args.tolerance, args.max_iterations) == stop
    for driver in (run_to_convergence, run_adjusted_to_convergence):
        parameters = inspect.signature(driver).parameters
        assert (parameters["tolerance"].default, parameters["max_iters"].default) == stop
