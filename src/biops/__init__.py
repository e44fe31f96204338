"""Exact bi-orthogonal-polynomial machinery for the two-parameter
open-boundary TASEP matrix product ansatz."""

from .errors import (BiopsError, InexactDivision, DegenerateParameters,
                     TruncationTooSmall, ParseError)
from .ring import Poly2, KappaElem
from .tensor import (TensorElem, ShockElem, normal_order, shock_mul,
                     linear_form, power_sum)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BiopsError", "InexactDivision", "DegenerateParameters",
    "TruncationTooSmall", "ParseError",
    "Poly2", "KappaElem",
    "TensorElem", "ShockElem", "normal_order", "shock_mul",
    "linear_form", "power_sum",
]
