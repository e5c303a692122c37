"""Exception hierarchy shared by all gaussesd modules."""

__all__ = ["GaussEsdError", "NonPhysicalCM", "ExtractionOutOfDomain", "DomainError", "InvalidGrid",
           "BudgetExceeded", "CutoffInsufficient", "StepTooLarge", "NonNegligibleImaginaryPart",
           "ConfigError"]


class GaussEsdError(Exception):
    """Base class for all gaussesd errors."""


class NonPhysicalCM(GaussEsdError):
    """Covariance moments violate the physicality conditions
    (det V_i >= 1/4 and positive semidefiniteness of the 4x4 matrix)."""


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


class CutoffInsufficient(GaussEsdError):
    """Fock-space truncation too small: population near the top levels
    exceeds the tail tolerance."""


class StepTooLarge(GaussEsdError):
    """Fock propagation failed the split-consistency gate: E(t) rho and
    E(t/2) E(t/2) rho differ in some moment by 1e-6 or more."""


class NonNegligibleImaginaryPart(GaussEsdError):
    """A Fock density matrix was given with a nonzero imaginary part.  The
    oracle's states are real, so this is raised when the matrix is
    constructed, before any moment is read out."""


class ConfigError(GaussEsdError):
    """Run configuration failed to parse or validate."""
