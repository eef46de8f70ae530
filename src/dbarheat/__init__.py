"""Numerical laboratory for the weighted dbar heat flow.

Weighted Cauchy-Riemann operators D = dbar + (dbar phi) on a truncated
plane, the associated heat operator Box = D D*, its semigroup and heat
kernel, mild solutions of the semilinear flow du/dt + Box u = |u|^{m-1} u,
and empirical verification of kernel envelopes, L^p-L^q decay, and
polynomial/exponential stability rates driven by the weight's flatness
invariant delta(phi).

Public names load on first use (PEP 562): importing the package costs
only the error classes, and only the Beta check imports scipy.
"""

import importlib

__version__ = "0.1.0"

from .errors import (
    BoundViolationError,
    ConfigError,
    ConvergenceError,
    NumericalError,
)

# submodule -> the public names it owns; each name is listed once
_EXPORTS = {
    "weights": (
        "DeltaReport", "PolynomialWeight", "RadialWeight",
        "SubharmonicityReport", "TaylorTable", "WEIGHT_CATALOG",
        "delta", "get_weight", "mu", "subharmonicity_audit", "taylor_table",
    ),
    "grid": (
        "ComplexField", "GridSpec", "boundary_mass", "d_z", "d_zbar",
        "inner", "lp_norm", "sample",
    ),
    "boxop": (
        "BoxOperator", "OperatorAudit", "apply_dbar", "apply_dbar_star",
        "assemble_box", "bottom_eigenvalue", "factorization_defect",
        "operator_audit",
    ),
    "semigroup": (
        "KernelBoundReport", "KernelSlice", "Propagator", "StepperConfig",
        "Trajectory", "evolve_linear", "heat_kernel", "kernel_bound_check",
    ),
    "mild": (
        "Nonlinearity", "PicardReport", "duhamel_apply", "picard_solve",
        "solve_imex", "y_distance", "y_norm",
    ),
    "stability": (
        "BetaCheckReport", "DecayFit", "LpLqProbe", "PerturbReport",
        "beta_identity_check", "fit_decay", "lp_lq_probe",
        "stability_experiment",
    ),
    "config": ("ExperimentConfig", "config_from_text", "load_config"),
    "presets": ("PRESETS", "get_preset", "preset_names"),
}

_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [
    "__version__",
    "BoundViolationError", "ConfigError", "ConvergenceError",
    "NumericalError",
    *_OWNER,
]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
