"""Exception hierarchy and the answer type shared by all midconv modules.

The exit codes of the command line, stated here once: 0 yes, or done; 1 a
domain error or a proved no; 2 an input error (usage, parse or file); 3
inconclusive.  A domain failure (bad prime, non-split polynomial, degenerate
convolution input, ...) derives from DomainError; malformed input text
(scalar grammar, braid words, tuple files) derives from InputError.  A
decision procedure returns a Verdict, whose ok gives 0, 1 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """A decision: ok is True (yes), False (proved no) or None (inconclusive).
    witness is what ok rests on, checkable from the inputs alone, or None;
    method names the test that decided."""
    ok: bool | None
    witness: object
    method: str


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
