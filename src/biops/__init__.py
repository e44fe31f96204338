"""Exact bi-orthogonal-polynomial machinery for the two-parameter
open-boundary TASEP matrix product ansatz."""

from .errors import (BiopsError, DegenerateParameters, TruncationTooSmall,
                     ParseError)
from .ring import Poly2, KappaElem
from .tensor import (TensorElem, ShockElem, normal_order, shock_mul,
                     linear_form)

__version__ = "0.1.0"

# the three pictures of the generators e1, e2 that biops.matrep builds; the
# CLI offers them as --rep choices without loading matrep
GENERATOR_REPS = ("hat", "bar_col", "bar_row")

__all__ = [
    "__version__", "GENERATOR_REPS",
    "BiopsError", "DegenerateParameters", "TruncationTooSmall",
    "ParseError",
    "Poly2", "KappaElem",
    "TensorElem", "ShockElem", "normal_order", "shock_mul",
    "linear_form",
]
