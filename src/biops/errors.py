"""Exception types shared across the package."""


class BiopsError(Exception):
    """Base class for all package errors."""


class InexactDivision(BiopsError, ArithmeticError):
    """A polynomial division that was required to be exact left a remainder.

    Every division demanded by the underlying identities is exact, so this
    always signals an internal identity violation, never bad user input.
    """


class DegenerateParameters(BiopsError, ValueError):
    """Numeric (alpha, beta) lies on a degenerate locus for the requested
    construction (alpha*beta = 0 or alpha + beta = 1), or a TASEP rate is
    not positive."""


class TruncationTooSmall(BiopsError, ValueError):
    """A matrix truncation is too small for the requested entry or word
    length to be exact."""


class ParseError(BiopsError, ValueError):
    """Expression syntax error, with a 1-based column position."""

    def __init__(self, position, message, expected=()):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(f"column {position}: {message}")
