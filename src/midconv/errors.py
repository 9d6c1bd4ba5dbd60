"""Exception hierarchy shared by all midconv modules.

Everything that is a *domain* failure (bad prime, non-split polynomial,
degenerate convolution input, ...) derives from DomainError so the CLI can
map it to exit code 1.  Malformed input text (scalar grammar, braid words,
tuple files) derives from InputError and maps to exit code 2.  Exit code 3
is no error: it is the inconclusive answer of `equiv`, when tuples.equivalence
finds neither a conjugator nor an invariant that tells the tuples apart.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for mathematical/domain errors."""


class InputError(Exception):
    """Base class for usage and parse errors (CLI exit code 2)."""


class FieldMismatch(DomainError):
    """Operands live in different fields and no coercion was requested."""


class DivisionByZero(DomainError):
    pass


class ParseError(InputError):
    """Scalar/braid/tuple-file text did not match the grammar."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PreconditionError(DomainError):
    """An operation's stated precondition was violated."""


class DoesNotSplit(DomainError):
    """Characteristic polynomial has a factor with no root in the field.

    Carries the offending factor (ascending coefficient list) so the caller
    may retry over a larger cyclotomic field.
    """

    def __init__(self, factor):
        self.factor = tuple(factor)
        super().__init__(f"polynomial factor of degree {len(self.factor) - 1} "
                         "has no root in the declared field")


class LambdaIsOne(DomainError):
    pass


class BadPrime(DomainError):
    """Reduction mod ell hit a denominator divisible by ell (or ell | n)."""


class NoRootInQuadratic(DomainError):
    """Phi_n has no root in F_{ell^2}; carries the degree actually needed."""

    def __init__(self, required_degree: int):
        self.required_degree = required_degree
        super().__init__(
            f"cyclotomic polynomial needs an extension of degree {required_degree}")


class DimensionInconsistency(DomainError):
    """Braid transport did not preserve the U/E spaces: degenerate input."""


class SmallPrime(DomainError):
    pass


class VerificationFailed(DomainError):
    pass
