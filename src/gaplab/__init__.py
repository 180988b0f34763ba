"""gaplab: a numerical laboratory for the spectral gap of 1-d Neumann
Schrödinger operators -d^2/dx^2 + v on (-L/2, L/2).

Computes the lowest two eigenpairs by Sturm-sequence bisection with
Richardson extrapolation, certifies them against an independent
transfer-matrix / phase-counting oracle, and verifies the closed-form
ground-state and spectral-gap inequalities (Harnack-type floors, Rayleigh
ceilings, and the exponential gap lower bound) on every solve.
"""

from .bounds import (
    BoundCheck,
    BoundReport,
    LogFloat,
    TolerancePolicy,
    gap_lower_bound,
    harnack_floor,
    inf_lower_bound,
    kirsch_comparison_bound,
    lambda0_upper_bounds,
    log_derivative_check,
    sup_upper_bound,
    verify,
)
from .fdsolver import (
    DiscreteOperator,
    Eigenpair,
    Grid,
    SolverError,
    SpectralResult,
    assemble,
    default_cell_count,
    lowest_two_eigenpairs,
    lowest_two_eigenvalues,
    solve_extrapolated,
)
from .oracle import (
    GroundStateProfile,
    LayerDecomposition,
    OracleError,
    decompose,
    eigenvalues_exact,
    ground_state_profile,
    match_function,
    match_value,
    prufer_count,
)
from .potentials import (
    Constant,
    IntervalNorms,
    InverseSquareCapped,
    MultiStep,
    PotentialSpec,
    Step,
    Zero,
    break_points,
    evaluate,
    from_dict,
    from_json,
    interval_norms,
    sup_norm_on_interval,
    to_dict,
    to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # potentials
    "Zero", "Constant", "Step", "MultiStep", "InverseSquareCapped",
    "PotentialSpec", "IntervalNorms", "break_points", "evaluate", "interval_norms",
    "sup_norm_on_interval", "to_dict", "from_dict", "to_json", "from_json",
    # solver
    "Grid", "DiscreteOperator", "Eigenpair", "SpectralResult", "SolverError",
    "assemble", "lowest_two_eigenvalues", "lowest_two_eigenpairs", "solve_extrapolated",
    "default_cell_count",
    # oracle
    "LayerDecomposition", "OracleError", "decompose", "match_value",
    "match_function", "eigenvalues_exact", "prufer_count",
    "GroundStateProfile", "ground_state_profile",
    # bounds
    "LogFloat", "TolerancePolicy", "BoundCheck", "BoundReport",
    "gap_lower_bound", "harnack_floor", "inf_lower_bound", "sup_upper_bound",
    "lambda0_upper_bounds", "kirsch_comparison_bound", "log_derivative_check",
    "verify",
]
