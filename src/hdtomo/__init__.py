"""Homodyne tomography of high-dimensional quantum states.

Reconstructs M x M density matrices (M into the several hundreds) from
homodyne quadrature data via numerically stabilized pattern-function
recursions, attaches Monte Carlo error bars, synthesizes Wigner functions
from the result, and simulates synthetic datasets for end-to-end checks.

Submodules are imported lazily: `import hdtomo` stays cheap, and the CLI
can cap BLAS threads before numpy first loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "TomographyError": "errors",
    "UsageError": "errors",
    "DataError": "errors",
    "NumericalError": "errors",
    "PatternOverflowError": "errors",
    "PatternConfig": "patterns",
    "PatternTable": "patterns",
    "choose_beta": "patterns",
    "balanced_beta": "patterns",
    "safe_region_bound": "patterns",
    "in_safe_region": "patterns",
    "semiclassical_kappa": "patterns",
    "regular_sequence": "patterns",
    "irregular_sequence": "patterns",
    "build_table": "patterns",
    "pattern_row_grid": "patterns",
    "pattern_value": "patterns",
    "QuadratureDataset": "reconstruct",
    "Sinogram": "reconstruct",
    "PhaseSpectrum": "reconstruct",
    "DensityMatrixEstimate": "reconstruct",
    "double_by_symmetry": "reconstruct",
    "phase_dft": "reconstruct",
    "estimate_binned": "reconstruct",
    "estimate_unbinned": "reconstruct",
    "block_statistics": "reconstruct",
    "check_normalization": "reconstruct",
    "DiagonalDensityMatrix": "wigner",
    "LambdaTable": "wigner",
    "WignerGrid": "wigner",
    "LAMBDA_0": "wigner",
    "lambda_direct": "wigner",
    "lambda_method1": "wigner",
    "lambda_method2": "wigner",
    "wigner_polar": "wigner",
    "polar_grid": "wigner",
    "cartesian_resample": "wigner",
    "FockVector": "simulate",
    "MarginalTable": "simulate",
    "SimulationPlan": "simulate",
    "make_state": "simulate",
    "marginals": "simulate",
    "oscillator_wavefunctions": "simulate",
    "phase_grid": "simulate",
    "quadrature_grid": "simulate",
    "sample": "simulate",
    "run_experiment": "simulate",
}


def __getattr__(name):
    modname = _EXPORTS.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{modname}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
