"""Scale-free protocol synthesis and analysis for H2 almost state
synchronization of homogeneous linear multi-agent networks."""

from .cases import (
    CASE_DELTA,
    CASE_RHOS,
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from .closedloop import (
    ClosedLoop,
    assemble_p1,
    assemble_p2,
    assemble_stacked,
    error_h2,
    probe_to_csv,
    reduce_to_differences,
    rho_scaling_probe,
)
from .conditions import (
    AgentModel,
    SolvabilityReport,
    check_clhp,
    check_detectable,
    check_disturbance_match,
    check_minphase_leftinv,
    check_stabilizable,
    full_report,
    invariant_zeros,
    model_to_text,
    parse_model,
)
from .errors import (
    ConfigInvalid,
    DeltaSearchExhausted,
    DimensionMismatch,
    Diverged,
    H2SyncError,
    NoStabilizingSolution,
    NotHurwitz,
    NotPositiveDefinite,
    ParseError,
    PreconditionFailed,
    RankDeficientEverywhere,
    RhoOutOfRange,
    SpectrumMismatch,
)
from .graph import (
    CommGraph,
    LaplacianPair,
    graph_to_text,
    has_spanning_tree,
    laplacian,
    parse_graph,
    reduced_spectrum_check,
)
from .linalg import (
    StableSubspaceResult,
    h2_norm,
    hinf_norm,
    is_hurwitz,
    solve_care_standard,
    solve_filter_riccati,
    solve_lyapunov,
    spectral_abscissa,
)
from .protocol import (
    ProtocolDesign,
    ProtocolRealization,
    controller_matrices,
    design,
    parse_realization,
    realization_to_text,
    synthesize_p1,
    synthesize_p2,
)
from .sim import (
    ConsistencyResult,
    SimConfig,
    SimResult,
    monte_carlo_rms,
    rms,
    rms_vs_h2_consistency,
    simulate,
    step_matrices,
    trajectory_blocks,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
