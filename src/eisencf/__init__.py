"""Continued fractions over the Eisenstein field.

Exact arithmetic in Q(sqrt(-3)), the hexagonal continued fraction map with
digits in the index-3 module of Z[zeta], its finite range structure and dual
cells, and floating-point estimation of the invariant density and the
denominator growth rate.
"""

from .exact import (
    ETA,
    ETA_BAR,
    ETAS,
    EisensteinInt,
    FieldElement,
    MINUS_ZETA,
    SQRT_M3,
    ZETA,
    ZETA_BAR,
    embed,
    in_J,
    parse_field_element,
)
from .hexdomain import floor_J, in_U
from .cf import (
    ConvergentPair,
    DomainError,
    Expansion,
    SpecialPoint,
    ZeroOrbit,
    convergents,
    eval_cf,
    expand,
    jump_map,
    special_digits,
    step_T,
)
from .regions import BoundaryPoint, CellIndex, NotInU, build_catalog, cell_of

__version__ = "0.1.0"

__all__ = [
    "EisensteinInt", "FieldElement", "ZETA", "ETA", "ETA_BAR", "SQRT_M3",
    "ETAS", "MINUS_ZETA", "ZETA_BAR", "embed", "in_J", "parse_field_element",
    "floor_J", "in_U",
    "ConvergentPair", "DomainError", "Expansion", "SpecialPoint", "ZeroOrbit",
    "convergents", "eval_cf", "expand", "jump_map", "special_digits", "step_T",
    "BoundaryPoint", "CellIndex", "NotInU", "build_catalog", "cell_of",
    "__version__",
]
