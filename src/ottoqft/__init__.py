"""Non-perturbative quantum Otto engine for a delta-coupled two-level detector
coupled to a quasi-free scalar-field state.

The engine physics is a pure function of four smeared two-point numbers
(``MomentSet``); analytic kernels, a truncated-Fock brute-force oracle, and a
quadrature oracle supply and cross-check those numbers.
"""

import importlib

__version__ = "0.1.0"

# module -> its public names, in __all__ order.  __getattr__ (PEP 562) imports
# a module when one of its names is first used: `import ottoqft` loads no NumPy.
_EXPORTS = {
    "algebra": ("MomentSet", "QuasiFreeKernel", "TwoPointKernel", "WeylMoments",
                "InvalidKernelError", "KernelContractError", "KernelInconsistencyError",
                "moment_set_from_kernel", "weyl_moments",
                "p_after_first", "contraction_factor", "p_after_second"),
    "cycle": ("InteractionEvent", "CycleConfig", "WorkReport", "DegenerateCycleError",
              "theta", "cyclic_initial_population", "extracted_work",
              "positive_work_condition", "stroke_ledger"),
    "minkowski": ("MinkowskiParams", "dawson", "minkowski_moments"),
    "sweeps": ("figure4a_curve",),
    "oracle": ("FockParams", "TruncationError", "QuadratureConvergenceError",
               "single_mode_kernel", "simulate_cycle_fock", "verify_weyl_moments",
               "quadrature_minkowski_moments"),
    "verification": ("run_verification", "run_verify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # the next lookup skips __getattr__
    return value
