"""Exception hierarchy shared by all gaussesd modules."""

__all__ = ["GaussEsdError", "NonPhysicalCM", "ExtractionOutOfDomain", "DomainError", "InvalidGrid",
           "BudgetExceeded", "OracleError", "CutoffInsufficient", "StepTooLarge",
           "NonNegligibleImaginaryPart", "ConfigError"]


class GaussEsdError(Exception):
    """Base class for all gaussesd errors."""


class NonPhysicalCM(GaussEsdError):
    """Covariance moments violate the uncertainty relation
    V + i Omega / 2 >= 0 (see CovarianceMatrix.is_physical)."""


class ExtractionOutOfDomain(GaussEsdError):
    """A parameter-extraction argument (arctanh/arccosh input, thermal
    occupation) falls outside its domain beyond the clamping tolerance."""


class DomainError(GaussEsdError):
    """An analytic expression was evaluated outside its domain of validity
    (vanishing denominator, arccosh argument below 1)."""


class InvalidGrid(GaussEsdError):
    """A sampling grid is empty, unordered, or otherwise malformed."""


class BudgetExceeded(GaussEsdError):
    """An iterative solver hit its iteration cap before converging."""


class OracleError(GaussEsdError):
    """The Fock-space oracle (gaussesd.fock) failed one of its gates: a
    density matrix that is not symmetric, not of unit trace or not positive,
    or one of the subclasses below."""


class CutoffInsufficient(OracleError):
    """Fock-space truncation too small: population near the top levels
    exceeds the tail tolerance."""


class StepTooLarge(OracleError):
    """Fock propagation failed the split-consistency gate: E(t) rho and
    E(t/2) E(t/2) rho differ in some moment by 1e-6 or more."""


class NonNegligibleImaginaryPart(OracleError):
    """A Fock density matrix was given with a nonzero imaginary part.  The
    oracle's states are real, so this is raised when the matrix is
    constructed, before any moment is read out."""


class ConfigError(GaussEsdError):
    """Run configuration failed to parse or validate."""
