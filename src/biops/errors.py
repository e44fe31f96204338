"""Exception types shared across the package.

Each marks a request the package refuses: bad syntax, a degenerate
parameter point or a truncation too small.  An internal identity that
fails is a failed CheckReport or a RuntimeError instead; no division can
fail, since the package divides no polynomial.
"""


class BiopsError(Exception):
    """Base class for all package errors."""


class DegenerateParameters(BiopsError, ValueError):
    """Numeric (alpha, beta) lies on a degenerate locus for the requested
    construction (alpha*beta = 0 or alpha + beta = 1), or a TASEP rate is
    not positive."""


class TruncationTooSmall(BiopsError, ValueError):
    """A matrix truncation is too small for the requested entry or word
    length to be exact."""


class ParseError(BiopsError, ValueError):
    """Expression syntax error, with a 1-based column position."""

    def __init__(self, position, message):
        self.position = position
        super().__init__(f"column {position}: {message}")
