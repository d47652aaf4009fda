"""Information-access estimation and welfare-driven edge augmentation.

Estimates all-pairs access probabilities for undirected cascades with a
uniform transmission probability, derives node-level advantage measures
(broadcast, influence, access centrality) and graph welfare from them, and
augments graphs with new edges under several heuristics while tracking the
effect on welfare, all reproducibly from a single seed.
"""

__version__ = "0.1.0"

from .advantage import (
    AdvantageReport,
    ControlReport,
    access_centrality,
    advantage_report,
    broadcast_all,
    influence_all,
    welfare,
    write_advantage_csv,
)
from .evaluation import (
    DistributionSummary,
    GapReport,
    SignatureCache,
    distribution_summary,
    gap_report,
    metrics_bundle,
    signature_distances,
)
from .graphs import (
    EdgeListParseError,
    EmptyInputError,
    Graph,
    IngestStats,
    largest_connected_component,
    load_edge_list,
    write_edge_list,
)
from .heuristics import (
    HEURISTIC_KINDS,
    PAIRED_KINDS,
    InterventionTrace,
    StepRecord,
    resolve_collision,
    run_augmentation,
    select_center,
    write_trace_csv,
)
from .sampler import (
    ORACLE_EDGE_CAP,
    AccessEstimate,
    SampleEnsemble,
    add_edge_incremental,
    build_ensemble,
    exact_access_oracle,
    load_estimate,
    save_estimate,
    stability_check,
    write_access_csv,
)

__all__ = [
    "__version__",
    "AccessEstimate",
    "AdvantageReport",
    "ControlReport",
    "DistributionSummary",
    "EdgeListParseError",
    "EmptyInputError",
    "GapReport",
    "Graph",
    "HEURISTIC_KINDS",
    "IngestStats",
    "InterventionTrace",
    "ORACLE_EDGE_CAP",
    "PAIRED_KINDS",
    "SampleEnsemble",
    "SignatureCache",
    "StepRecord",
    "access_centrality",
    "add_edge_incremental",
    "advantage_report",
    "broadcast_all",
    "build_ensemble",
    "distribution_summary",
    "exact_access_oracle",
    "gap_report",
    "influence_all",
    "largest_connected_component",
    "load_edge_list",
    "load_estimate",
    "metrics_bundle",
    "resolve_collision",
    "run_augmentation",
    "save_estimate",
    "select_center",
    "signature_distances",
    "stability_check",
    "welfare",
    "write_access_csv",
    "write_advantage_csv",
    "write_edge_list",
    "write_trace_csv",
]
