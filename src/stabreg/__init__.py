"""stabreg: boundary-feedback stabilization and maximal-regularity diagnostics.

Dense finite-dimensional realizations of closed-loop parabolic feedback
operators M(I - GF) + B: spectra, resolvents, semigroups and fractional
powers (operators); unstable-subspace feedback synthesis (synthesis); the
1-D heat and coupled two-component models (heat, coupled); and L^p
regularity-constant scans (maxreg).  The CLI lives in stabreg.cli.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionError,
    EigenDecompositionError,
    IdentityViolationError,
    IllConditionedBasisError,
    NumericalError,
    RankCheckFailure,
    ResonanceError,
    SaturationError,
    SingularityError,
    StabregError,
    SynthesisError,
    TranslationRequiredError,
    UsageError,
)
from .operators import (
    ClosedLoop,
    GreenMap,
    Operator,
    SpectralData,
    adjoint_decomposition_residual,
    compose_closed_loop,
    decay_estimate,
    match_spectra,
    resolvent,
    resolvent_perturbation_residual,
    semigroup_apply,
    spectral_abscissa,
    spectral_norm,
    spectrum,
    translate_to_positive,
)
from .synthesis import (
    FeedbackLaw,
    RankReport,
    ReducedPair,
    build_feedback,
    choose_K,
    place_poles,
    rank_check,
    reduce,
    spectral_feedback,
    unstable_projection,
)
from .maxreg import (
    ForcingSignal,
    MaxRegReport,
    build_forcing_grid,
    duality_check,
    imaginary_axis_bound,
    solution_map,
)
from .heat import (
    HeatConfig,
    build_dirichlet_map,
    build_heat_operator,
    closed_loop_heat,
    gamma_bound_scan,
    h5_bound_scan,
    synthesize_heat_feedback,
    verify_stabilization,
)
from .coupled import (
    CoupledConfig,
    build_block_operator,
    build_thermal_dirichlet_map,
    compose_coupled_loop,
    synthesize_coupled_feedback,
    verify_coupled_stabilization,
)
