"""Multi-material branched transportation networks.

Builds, optimizes and verifies discrete transportation networks: polyhedral
1-chains in R^n carrying R^m multiplicity vectors, connecting vector-valued
atomic source/sink measures under subadditive concave transportation costs.
"""

from branchnet.chains import (
    Atom,
    Box,
    Chain0,
    Chain1,
    Edge,
    boundary,
    canonicalize,
    canonicalize0,
    chain0_close,
    chains_close,
    component_lift,
    divergence,
    is_compatible,
    is_piece,
    mass,
    restrict,
    restrict_halfspace,
)
from branchnet.costs import (
    BetaEnvelope,
    CostSpec,
    DerivativeProfile,
    admissibility_check,
    component_sum,
    custom_cost,
    derivative_profile,
    dir_derivative_at_zero,
    norm_cost_ratio,
    p_norm_alpha,
    rectifiability_flag,
    s_beta,
    s_beta_series,
    sum_alpha,
    validate_cost,
)
from branchnet.energy import EnergyCertificate, energy, energy_component, mass_bound_constant
from branchnet.construct import CascadeResult, DyadicGrid, cascade, cone, dyadic_approx, shifted_grid
from branchnet.optimize import (
    OptimizerConfig,
    SolutionReport,
    check_multiplicity_bound,
    local_search,
    relocate_branch_points,
    remove_cycles,
    straighten,
    verify_solution,
    w_upper,
)
from branchnet.metrics import (
    FlatBounds,
    augmentation,
    coarea_check,
    flat_bounds,
    flat_norm_0chain_component,
    ig_identity_mc,
    slice_chain,
)

__version__ = "0.1.0"
