"""commtrack: community detection and tracking over evolving social graphs.

The core is a greedy modularity optimizer with two stability controls (a
pinned fraction p of surviving nodes, a fraction q steered toward
pre-existing communities), plus the ingestion, comparison, tracking, and
synthetic-benchmark machinery around it.
"""

from .errors import CommtrackError, InputError, InternalInvariantError
from .graph import (
    CommunityLabel,
    Graph,
    IdMap,
    Partition,
    aggregate_by_partition,
    build_graph,
    read_edge_tsv,
    read_partition_tsv,
    write_edge_tsv,
    write_partition_tsv,
)
from .ingest import (
    CdrKind,
    CdrRecord,
    FilterReport,
    WindowSpec,
    aggregate_window,
    filter_high_degree,
    ingest_pipeline,
    merge_counts,
    parse_cdr,
    symmetrize,
)
from .louvain import (
    DynamicContext,
    LouvainConfig,
    RunReport,
    louvain_dynamic,
    louvain_static,
    modularity,
    renumber_partition,
    sample_fixed_set,
    sample_pref_set,
    seeded_init,
)
from .metrics import (
    ComparisonReport,
    MatchConfig,
    compare,
    matching_communities,
    mutual_information,
    partition_entropy,
)
from .synth import SynthSpec, generate
from .tracker import Timeline, bootstrap, load_timeline, save_timeline, step
from .sweep import SweepResult, SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CommtrackError",
    "InputError",
    "InternalInvariantError",
    "CommunityLabel",
    "Graph",
    "IdMap",
    "Partition",
    "aggregate_by_partition",
    "build_graph",
    "read_edge_tsv",
    "read_partition_tsv",
    "write_edge_tsv",
    "write_partition_tsv",
    "CdrKind",
    "CdrRecord",
    "FilterReport",
    "WindowSpec",
    "aggregate_window",
    "filter_high_degree",
    "ingest_pipeline",
    "merge_counts",
    "parse_cdr",
    "symmetrize",
    "DynamicContext",
    "LouvainConfig",
    "RunReport",
    "louvain_dynamic",
    "louvain_static",
    "modularity",
    "renumber_partition",
    "sample_fixed_set",
    "sample_pref_set",
    "seeded_init",
    "ComparisonReport",
    "MatchConfig",
    "compare",
    "matching_communities",
    "mutual_information",
    "partition_entropy",
    "SynthSpec",
    "generate",
    "Timeline",
    "bootstrap",
    "load_timeline",
    "save_timeline",
    "step",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "__version__",
]
