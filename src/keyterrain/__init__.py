"""Critical IP address identification from IP flow records.

A learning phase tunes per-port-pair damping factors for an adjusted
PageRank against ground-truth labels; a single-pass streaming phase applies
them to rank IPs over ordered flow data.
"""

from .flows import (
    FlowParseError,
    FlowRecord,
    FlowRow,
    ParseStats,
    PortPair,
    dedupe_flows,
    parse_flow_rows,
    parse_flows,
    sort_flows,
    write_flows,
)
from .graph import (
    GraphBuildError,
    PortPairCensus,
    StaticGraph,
    build_static_graph,
    count_port_pairs,
    filter_port_pairs,
    write_edge_list,
)
from .labels import AddressSet
from .learning import (
    HEURISTICS,
    LearnConfig,
    LearnResult,
    choose_conflict_port_pair,
    evaluate_classification,
    grid_values,
    hill_climb_step,
    learn,
    random_walk_step,
)
from .metrics import (
    Metrics,
    precision_recall_f1,
    topk_true_positives,
    variance_of_tp,
)
from .pagerank import (
    DEFAULT_DAMPING,
    ConvergenceResult,
    DampingTable,
    adjusted_iteration,
    classify,
    contraction_bound,
    default_iteration,
    init_scores,
    load_damping_table,
    run_adjusted_to_convergence,
    run_to_convergence,
    save_damping_table,
)
from .streaming import (
    SamplePoint,
    StreamConfig,
    StreamState,
    run_stream,
    snapshot,
)

__version__ = "0.1.0"
