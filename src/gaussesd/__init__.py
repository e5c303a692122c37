"""gaussesd: two-mode Gaussian states in thermal channels.

Covariance-matrix dynamics in closed form, the Simon separability test,
entanglement-sudden-death detection (analytic and numeric), and an
independent truncated-Fock-space master-equation propagator for
cross-validation.
"""

from .channel import (
    ChannelParams,
    Trajectory,
    count_sign_changes,
    evolve,
    evolve_cm,
    evolve_symmetric,
    sample_trajectory,
    symmetric_initial_moments,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    CutoffInsufficient,
    DomainError,
    ExtractionOutOfDomain,
    GaussEsdError,
    InvalidGrid,
    NonNegligibleImaginaryPart,
    NonPhysicalCM,
    StepTooLarge,
)
from .esd import (
    EsdKind,
    EsdMethod,
    EsdResult,
    compare_decay_ratio_forms,
    esd_boundary_sweep,
    esd_condition_symmetric,
    initial_entanglement_threshold,
    symmetric_esd_decay_ratio,
    symmetric_esd_decay_ratio_alt,
    t_esd_analytic_symmetric,
    t_esd_numeric,
)
from .fock import (
    FockDensityMatrix,
    build_initial_state,
    in_certified_domain,
    integrate,
    lindblad_rhs,
    moments,
)
from .states import (
    CovarianceMatrix,
    GaussianParams,
    SymplecticInvariants,
    cm_from_params,
    invariants,
    locally_squeezed,
    params_from_cm,
    simon_criterion,
    simon_criterion_no_squeezing,
    two_mode_squeezed,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianParams",
    "CovarianceMatrix",
    "SymplecticInvariants",
    "cm_from_params",
    "params_from_cm",
    "invariants",
    "simon_criterion",
    "simon_criterion_no_squeezing",
    "locally_squeezed",
    "two_mode_squeezed",
    "ChannelParams",
    "Trajectory",
    "evolve",
    "evolve_cm",
    "evolve_symmetric",
    "symmetric_initial_moments",
    "sample_trajectory",
    "count_sign_changes",
    "EsdKind",
    "EsdMethod",
    "EsdResult",
    "esd_condition_symmetric",
    "symmetric_esd_decay_ratio",
    "symmetric_esd_decay_ratio_alt",
    "compare_decay_ratio_forms",
    "t_esd_analytic_symmetric",
    "t_esd_numeric",
    "initial_entanglement_threshold",
    "esd_boundary_sweep",
    "FockDensityMatrix",
    "build_initial_state",
    "lindblad_rhs",
    "integrate",
    "moments",
    "in_certified_domain",
    "GaussEsdError",
    "NonPhysicalCM",
    "ExtractionOutOfDomain",
    "DomainError",
    "InvalidGrid",
    "BudgetExceeded",
    "CutoffInsufficient",
    "StepTooLarge",
    "NonNegligibleImaginaryPart",
    "ConfigError",
]
