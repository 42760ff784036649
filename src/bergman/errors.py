"""Error types raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can react to the specific condition rather than pattern
matching on messages.
"""


class BergmanError(Exception):
    """Base class for all package errors."""


# -- series ring ------------------------------------------------------------

class VariableMismatch(BergmanError):
    """Operands live in rings with different variable counts."""


class BadVariable(BergmanError):
    """Variable index outside the ambient ring."""


class NonzeroConstantTerm(BergmanError):
    """Substituted series must vanish at the origin to preserve centering."""


class ZeroConstantTerm(BergmanError):
    """Series with no constant term cannot be inverted."""


# -- weights ----------------------------------------------------------------

class NotRealValued(BergmanError):
    """Coefficients violate Hermitian symmetry, so the series is not real."""


class Degenerate(BergmanError):
    """Levi form (or a matrix that must be invertible) is degenerate."""


class GapViolation(BergmanError):
    """Sampled quadratic gap of the weight fails to be positive."""


# -- phase and contours ------------------------------------------------------

class DegenerateHessian(BergmanError):
    """Mixed second-derivative block of the phase is singular at the origin."""


class BadContour(BergmanError):
    """Sampled contour margin is not strictly positive."""


# -- expansions and quadrature -----------------------------------------------

class InsufficientDegree(BergmanError):
    """Series resolution is below the budget required by the requested order."""


class QuadratureUnderresolved(BergmanError):
    """The contour tail e^(-2g/h), left beyond the quadrature disc, is too
    large against the tolerance the result is checked to."""


class IllConditioned(BergmanError):
    """Gram matrix condition estimate exceeds the safe threshold, or a
    projection table leaves the double-precision range."""


class DegenerateFit(BergmanError):
    """Error sequence sits at the numerical floor; no decay rate to fit."""


# -- configuration and io -----------------------------------------------------

class ConfigInvalid(BergmanError):
    """Run configuration violates a documented constraint."""


class IoError(BergmanError):
    """Report or table could not be written."""
