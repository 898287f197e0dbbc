"""Multi-species Cahn-Hilliard-Keller-Segel tumor growth: forward solver,
adjoint-based reduced gradients, and box-constrained optimal control."""

from .grid import (
    Grid,
    SolverError,
    ch_block_solve,
    divergence,
    divergence_transpose,
    grad_dot,
    helmholtz_cg,
    helmholtz_direct,
    inner,
    laplacian,
    norm_l2,
)
from .potentials import (
    AdmissibilityError,
    PotentialSpec,
    ProliferationSpec,
    WellConstants,
    default_s_stab,
    derive_constants,
)
from .state import (
    FORWARD_FIELDS,
    REPLAY_FIELDS,
    Control,
    InitialData,
    InvariantReport,
    ModelSpec,
    Trajectory,
    check_mean_ode,
    energy,
    solve_forward,
    step,
    trajectory_distance,
)
from .linearized import TANGENT_FIELDS, solve_linearized
from .adjoint import (
    ADJOINT_FIELDS,
    ControlSpec,
    duality_residual,
    solve_adjoint,
    solve_exact_adjoint,
)
from .control_opt import (
    OptimizeOptions,
    OptimizeResult,
    cost,
    optimize,
    project_admissible,
    reduced_gradient,
    stationarity_residual,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
