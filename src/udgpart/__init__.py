"""Lambda-precision unit disk graphs and soft domatic partitions for WSN models."""

from .adapt import (
    IrreducibleBridgeError,
    TargetUnreachableError,
    ThinningStrategy,
    connect_components,
    eliminate_bridges,
    thin_to_degree,
)
from .generator import (
    GeneratorParams,
    PlacementResult,
    SeedSearchError,
    SeedSearchTargets,
    UnreachableTargetError,
    generate_connected,
    place_nodes,
    seed_search,
)
from .graphs import GeometricGraph, build_udg
from .ilp import (
    IlpModel,
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_optimal_soft,
    export_lp,
)
from .metrics import (
    CoverageErrors,
    ExperimentConfig,
    ResultRecord,
    coverage_errors,
    run_experiment,
)
from .seeds import COVERAGE_SEEDS, DEGREE_SEEDS, SeedTableRow, coverage_seed, degree_seed
from .solver import SolveLimits, SolveReport, solve

__version__ = "0.1.0"
