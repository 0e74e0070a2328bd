"""agendalab: exact engine for sequential agenda-setting games.

Finite collective choice problems with exact-rational utilities, the
favorite-improvement dynamics of real-time agenda control, a
brute-force extensive-form oracle, commitment and horizon benchmarks,
and generators for spatial, grid, and distribution instances.
"""

from .engine import (
    OutcomeBounds,
    StrategyProfile,
    Trajectory,
    equilibrium_outcome,
    favorite_improvement,
    nc_outcome_bounds,
    phi_iterates,
    phi_or,
    simple_equilibrium_profile,
)
from .errors import (
    AgendaLabError,
    BudgetExceededError,
    GridGenericityError,
    InternalInvariantError,
    RichnessError,
    SpatialDegeneracyError,
    UnsupportedCombinationError,
    ValidationError,
)
from .distributions import (
    Allocation,
    AxiomAudit,
    DivideDollarGrid,
    audit_dp_axioms,
    divide_dollar_problem,
    dtd_beta,
    dtd_beta_power,
    dtd_profile,
    pork_barrel_problem,
    transfers_problem,
)
from .factories import gen_random_gfa, gen_random_with_ties, gfa_corpus
from .grids import BoxSpace, GridBuildResult, SimplexSpace, build_grid
from .horizons import (
    HorizonReport,
    ReachabilityReport,
    StableSetReport,
    horizon_classify,
    horizon_payoffs,
    reachability,
    stable_set,
)
from .oracle import (
    CustomProtocol,
    DeviationReport,
    GameSpec,
    SolveReport,
    check_richness,
    play_out,
    protocol_equivalence,
    solve_spe,
    verify_profile,
)
from .problems import (
    CollectiveChoiceProblem,
    ImprovementCertificate,
    MarginReport,
    TournamentSpec,
    VotingRule,
    acceptance_set,
    is_improvable,
    is_manipulable,
    uniform_margin,
    unimprovable_set,
)
from .spatial import (
    CoplanarityReport,
    ImprovementTrace,
    SpatialProfile,
    check_noncoplanarity,
    coplanarity_form,
    gen_spatial,
    spatial_problem,
    spatial_witness,
)
from .tournaments import derive_tournament, mcgarvey_realize

__version__ = "0.1.0"
