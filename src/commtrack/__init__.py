"""commtrack: community detection and tracking over evolving social graphs.

The core is a greedy modularity optimizer with two stability controls (a
pinned fraction p of surviving nodes, a fraction q steered toward
pre-existing communities), plus the ingestion, comparison, tracking, and
synthetic-benchmark machinery around it.
"""

from .errors import CommtrackError, InputError, InternalInvariantError
from .graph import (
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
    FilterReport,
    WindowSpec,
    filter_high_degree,
    ingest_pipeline,
)
from .louvain import (
    DynamicContext,
    LouvainConfig,
    RunReport,
    louvain_dynamic,
    louvain_static,
    modularity,
    renumber_partition,
)
from .metrics import (
    ComparisonReport,
    MatchConfig,
    compare,
)
from .synth import SynthSpec, generate
from .tracker import Timeline, bootstrap, load_timeline, save_timeline, step
from .sweep import SweepResult, SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CommtrackError",
    "InputError",
    "InternalInvariantError",
    "Graph",
    "IdMap",
    "Partition",
    "aggregate_by_partition",
    "build_graph",
    "read_edge_tsv",
    "read_partition_tsv",
    "write_edge_tsv",
    "write_partition_tsv",
    "FilterReport",
    "WindowSpec",
    "filter_high_degree",
    "ingest_pipeline",
    "DynamicContext",
    "LouvainConfig",
    "RunReport",
    "louvain_dynamic",
    "louvain_static",
    "modularity",
    "renumber_partition",
    "ComparisonReport",
    "MatchConfig",
    "compare",
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
