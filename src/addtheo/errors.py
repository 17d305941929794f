"""Exception hierarchy shared across the kernel.

Each class carries what the CLI reports for it: `status`, the report's
status, and `code`, the exit code.  Validation and parse problems are
("parse-error", 2), degeneracies ("degenerate", 3), and every other error,
verification and pruning failures among them, ("verification-failed", 1).
"""


class AddTheoError(Exception):
    """Base class for all kernel errors."""

    status, code = "verification-failed", 1


class ZeroPolynomialError(AddTheoError):
    """Raised when an operation needs a nonzero polynomial."""


class ExprSyntaxError(AddTheoError):
    """Syntax error in an expression or spec file, with position info."""

    status, code = "parse-error", 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SpecValidationError(AddTheoError):
    """A parsed function description violates a structural constraint."""

    status, code = "parse-error", 2


class DegenerateEliminationError(AddTheoError):
    """An intermediate resultant collapsed to zero (shared factor)."""

    status, code = "degenerate", 3


class DegenerateSpecializationError(AddTheoError):
    """Base-point specialization produced an identity instead of a relation."""

    status, code = "degenerate", 3


class PruningError(AddTheoError):
    """No factor, or more than one factor, survived numeric pruning."""


class VerificationError(AddTheoError):
    """A numeric residual exceeded its tolerance."""


class DegreeLawError(AddTheoError):
    """Derived degrees disagree with their law: m*nu^2/lambda0 for the
    addition theorem, m*nu^3/lambda for the K-relation."""


class SamplingError(AddTheoError):
    """A sampler rejected almost every draw; the message names the last
    rejection."""

    status, code = "degenerate", 3


class MonomialOverflowError(AddTheoError):
    """A monomial's total degree does not fit its packed field."""

    status, code = "parse-error", 2
