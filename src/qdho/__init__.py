"""Quantum damped harmonic oscillator: closed-form propagator with brute-force checks.

The closed form lives in :mod:`qdho.propagator`; the independent
superoperator/RK4 oracles in :mod:`qdho.liouville`; the 2x2 su(1,1)
disentangling machinery in :mod:`qdho.su11`. See the README for the CLI.
"""

from .classical import (
    AnalyticUnsupportedError,
    ClassicalParams,
    PhasePoint,
    evolve_classical_analytic_grid,
    evolve_classical_rk4,
    evolve_classical_rk4_grid,
)
from .config import (
    ClassicalRunConfig,
    ConfigError,
    RunConfig,
    StateSpec,
    TimeGrid,
    ToleranceConfig,
    load_classical_config,
    load_run_config,
)
from .fock import (
    GainWarning,
    ModelParams,
    TruncationConfig,
    ValidationError,
    ValidationReport,
    coherent_state,
    fock_state,
    mixture_state,
    thermal_state,
    validate_density,
)
from .liouville import (
    evolve_numeric_expm_grid,
    evolve_numeric_rk4_grid,
    expm,
    k_superoperators,
    sandwich_check,
    stability_steps,
    vectorize,
)
from .observables import (
    expect_n,
    frobenius_distance,
    photon_distribution,
    purity,
)
from .propagator import evolve_analytic_grid
from .su11 import (
    DisentanglingCoefficients,
    disentangling_coefficients,
    flow,
    gauss_decompose,
    generator,
    k_generators,
)

__version__ = "0.1.0"
