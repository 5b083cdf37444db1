"""Critical IP address identification from IP flow records.

A learning phase tunes per-port-pair damping factors for an adjusted
PageRank against ground-truth labels; a single-pass streaming phase applies
them to rank IPs over ordered flow data.

The public names below load on first use (PEP 562), so importing the
package, or ``keyterrain.cli`` for ``prepare``, imports no numpy.
"""

import importlib

_EXPORTS = {
    "constants": ("DEFAULT_DAMPING", "HEURISTICS"),
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
        "LearnConfig", "LearnResult", "choose_conflict_port_pair", "evaluate_classification",
        "grid_values", "hill_climb_step", "learn", "random_walk_step",
    ),
    "metrics": ("Metrics", "precision_recall_f1", "topk_true_positives", "variance_of_tp"),
    "pagerank": (
        "ConvergenceResult", "DampingTable", "adjusted_iteration", "classify",
        "contraction_bound", "default_iteration", "init_scores", "load_damping_table",
        "run_adjusted_to_convergence", "run_to_convergence", "save_damping_table",
    ),
    "streaming": ("SamplePoint", "StreamConfig", "StreamState", "run_stream", "snapshot"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
