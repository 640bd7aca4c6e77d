"""Non-perturbative quantum Otto engine for a delta-coupled two-level detector
coupled to a quasi-free scalar-field state.

The engine physics is a pure function of four smeared two-point numbers
(``MomentSet``); analytic kernels, a truncated-Fock brute-force oracle, and a
quadrature oracle supply and cross-check those numbers.
"""

from .algebra import (
    InvalidKernelError,
    KernelContractError,
    KernelInconsistencyError,
    MomentSet,
    QuasiFreeKernel,
    TwoPointKernel,
    WeylMoments,
    contraction_factor,
    moment_set_from_kernel,
    p_after_first,
    p_after_second,
    weyl_moments,
)
from .cycle import (
    CycleConfig,
    DegenerateCycleError,
    InteractionEvent,
    WorkReport,
    cyclic_initial_population,
    extracted_work,
    positive_work_condition,
    stroke_ledger,
    theta,
)
from .minkowski import MinkowskiParams, dawson, minkowski_moments
from .oracle import (
    FockParams,
    QuadratureConvergenceError,
    QuadratureSpec,
    TruncationError,
    quadrature_minkowski_moments,
    simulate_cycle_fock,
    single_mode_kernel,
    verify_weyl_moments,
)
from .sweeps import figure4a_curve
from .verification import run_verification, run_verify

__version__ = "0.1.0"

__all__ = [
    "MomentSet", "QuasiFreeKernel", "TwoPointKernel", "WeylMoments",
    "InvalidKernelError", "KernelContractError", "KernelInconsistencyError",
    "moment_set_from_kernel", "weyl_moments",
    "p_after_first", "contraction_factor", "p_after_second",
    "InteractionEvent", "CycleConfig", "WorkReport", "DegenerateCycleError",
    "theta", "cyclic_initial_population", "extracted_work",
    "positive_work_condition", "stroke_ledger",
    "MinkowskiParams", "dawson", "minkowski_moments", "figure4a_curve",
    "FockParams", "QuadratureSpec", "TruncationError", "QuadratureConvergenceError",
    "single_mode_kernel", "simulate_cycle_fock", "verify_weyl_moments",
    "quadrature_minkowski_moments",
    "run_verification", "run_verify",
    "__version__",
]
