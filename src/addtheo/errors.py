"""Exception hierarchy shared across the kernel.

The CLI maps these onto exit codes: validation and parse problems exit 2,
degeneracies exit 3, verification and pruning failures exit 1.
"""


class AddTheoError(Exception):
    """Base class for all kernel errors."""


class ZeroPolynomialError(AddTheoError):
    """Raised when an operation needs a nonzero polynomial."""


class ExprSyntaxError(AddTheoError):
    """Syntax error in an expression or spec file, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SpecValidationError(AddTheoError):
    """A parsed function description violates a structural constraint."""


class DegenerateEliminationError(AddTheoError):
    """An intermediate resultant collapsed to zero (shared factor)."""


class DegenerateSpecializationError(AddTheoError):
    """Base-point specialization produced an identity instead of a relation."""


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


class MonomialOverflowError(AddTheoError):
    """A monomial's total degree does not fit its packed field."""
