"""Exception hierarchy shared by all gaussesd modules."""

__all__ = ["GaussEsdError", "NonPhysicalCM", "ExtractionOutOfDomain", "DomainError", "InvalidGrid",
           "BudgetExceeded", "OracleError", "CutoffInsufficient", "StepTooLarge",
           "NonNegligibleImaginaryPart", "ConfigError"]


class GaussEsdError(Exception):
    """Base class of every refusal: cli.main prints ``label: message`` and
    exits with ``exit_code``, 3 here and in every subclass but ConfigError (2)
    and OracleError (4).  Any other exception is a fault: traceback, exit 1."""
    exit_code, label = 3, "domain error"


class NonPhysicalCM(GaussEsdError):
    """Covariance moments violate the uncertainty relation
    V + i Omega / 2 >= 0 (see CovarianceMatrix.is_physical)."""


class ExtractionOutOfDomain(GaussEsdError):
    """A parameter-extraction argument (arctanh input, thermal occupation)
    falls outside its domain beyond the clamping tolerance."""


class DomainError(GaussEsdError, ValueError):
    """A physics-domain refusal: an input out of range, or a result that
    overflows or does not resolve.  Also a ValueError, for in-process callers."""


class InvalidGrid(GaussEsdError):
    """A sampling grid is empty, unordered, or otherwise malformed."""


class BudgetExceeded(GaussEsdError):
    """An iterative solver hit its iteration cap before converging."""


class OracleError(GaussEsdError):
    """The Fock-space oracle (gaussesd.fock) failed one of its gates: a
    density matrix that is not symmetric, not of unit trace or not positive,
    a step's input that is not finite, a dense matrix with nonzero entries
    between the parity blocks of n1 + n2 (refused when the state is made), or
    one of the subclasses below."""
    exit_code, label = 4, "oracle error"


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
    exit_code, label = 2, "config error"
