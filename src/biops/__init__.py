"""Exact bi-orthogonal-polynomial machinery for the two-parameter
open-boundary TASEP matrix product ansatz."""

from .errors import (BiopsError, DegenerateParameters, TruncationTooSmall,
                     ParseError)

__version__ = "0.1.0"

# the three pictures of the generators e1, e2 that biops.matrep builds; the
# CLI offers them as --rep choices without loading matrep
GENERATOR_REPS = ("hat", "bar_col", "bar_row")

__all__ = [
    "__version__", "GENERATOR_REPS",
    "BiopsError", "DegenerateParameters", "TruncationTooSmall",
    "ParseError",
]
