"""Data-driven approximation of Koopman generators for SDEs and ODEs.

The package estimates the infinitesimal generator of a (stochastic)
dynamical system from snapshot data in a finite dictionary, and builds on
that estimate for spectral analysis, sparse model identification,
coarse-graining, and generator-based control.
"""

from .coarse_grain import (
    CoarseGrainMap,
    ReducedModel,
    build_reduced_model,
    linear_map,
    polar_angle_map,
)
from .control import (
    BurgersPlant,
    ControlledOUPlant,
    ControlProblem,
    MpcResult,
    SurrogateFamily,
    SwitchingSchedule,
    fit_surrogates,
    mpc,
    predict,
    schedule_trajectory,
    sto_objective_and_gradient,
    switching_time_optimize,
)
from .dictionaries import (
    Dictionary,
    GaussianBasis,
    LegendreBasis,
    Monomials,
    PeriodicGaussianBasis,
)
from .errors import (
    ClosureError,
    ConfigError,
    DomainError,
    IdentificationError,
    InputError,
    IntegrationError,
    KoopgenError,
    LogBranchError,
    NumericalError,
    StabilityError,
    UnsupportedDictionaryError,
)
from .generator import (
    GeneratorEstimate,
    edmd_with_log,
    estimate_from_dict,
    estimate_to_dict,
    gedmd_deterministic,
    gedmd_reversible,
    gedmd_stochastic,
    perron_frobenius_estimate,
)
from .models import (
    SampleSet,
    SdeModel,
    analytic_ou_generator,
    double_well_2d,
    duffing_oscillator,
    exact_sample_set,
    finite_difference_drift,
    integrate_em,
    kramers_moyal,
    lemon_slice,
    lemon_slice_invariant_points,
    noisy_sample_set,
    ornstein_uhlenbeck,
    ou_invariant_density,
    sample_uniform,
    slow_manifold_system,
    stratonovich_to_ito,
)
from .spectral import (
    ModeDecomposition,
    SpectralDecomposition,
    conserved_quantities,
    decompose,
    eigenfunction_values,
    koopman_modes,
    reconstruct_drift,
)
from .sysid import IdentifiedModel, identify

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KoopgenError",
    "InputError",
    "DomainError",
    "UnsupportedDictionaryError",
    "IntegrationError",
    "ClosureError",
    "LogBranchError",
    "IdentificationError",
    "NumericalError",
    "ConfigError",
    "StabilityError",
    # dictionaries
    "Dictionary",
    "Monomials",
    "LegendreBasis",
    "GaussianBasis",
    "PeriodicGaussianBasis",
    # models and sampling
    "SdeModel",
    "SampleSet",
    "ornstein_uhlenbeck",
    "slow_manifold_system",
    "double_well_2d",
    "duffing_oscillator",
    "lemon_slice",
    "lemon_slice_invariant_points",
    "ou_invariant_density",
    "analytic_ou_generator",
    "integrate_em",
    "sample_uniform",
    "exact_sample_set",
    "noisy_sample_set",
    "kramers_moyal",
    "finite_difference_drift",
    "stratonovich_to_ito",
    # generator estimation
    "GeneratorEstimate",
    "gedmd_deterministic",
    "gedmd_stochastic",
    "gedmd_reversible",
    "perron_frobenius_estimate",
    "edmd_with_log",
    "estimate_to_dict",
    "estimate_from_dict",
    # spectral analysis
    "SpectralDecomposition",
    "ModeDecomposition",
    "decompose",
    "eigenfunction_values",
    "koopman_modes",
    "reconstruct_drift",
    "conserved_quantities",
    # system identification
    "IdentifiedModel",
    "identify",
    # coarse-graining
    "CoarseGrainMap",
    "linear_map",
    "polar_angle_map",
    "ReducedModel",
    "build_reduced_model",
    # control
    "SurrogateFamily",
    "fit_surrogates",
    "predict",
    "ControlProblem",
    "MpcResult",
    "mpc",
    "SwitchingSchedule",
    "sto_objective_and_gradient",
    "switching_time_optimize",
    "schedule_trajectory",
    "ControlledOUPlant",
    "BurgersPlant",
]
