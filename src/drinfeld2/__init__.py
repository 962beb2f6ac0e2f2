"""Exact arithmetic for rank-2 Drinfeld F_q[T]-modules over finite fields:
Frobenius characteristic polynomials, induced A-module structures,
ordinary/supersingular classification, and exhaustive cyclicity censuses
with class-number cross-checks.
"""

from .fields import FieldTower, SizeBoundError, build_tower
from .polys import UPoly, enumerate_monic_irreducibles
from .drinfeld import DrinfeldModule
from .charpoly import FrobeniusCharPoly, annihilation_holds, is_imaginary
from .structure import (InvariantFactors, NotRealizable, frobenius_charpoly,
                        module_structure, plane_torsion_rational,
                        realize_structure)
from .hurwitz import class_number, hurwitz_class_number
from .census import (CensusReport, attach_class_number_checks,
                     compute_statistics, counting_formulas, cyclicity_trend,
                     run_census)

__version__ = "0.1.0"

__all__ = [
    "FieldTower", "SizeBoundError", "build_tower",
    "UPoly", "enumerate_monic_irreducibles", "DrinfeldModule",
    "FrobeniusCharPoly", "annihilation_holds", "frobenius_charpoly",
    "is_imaginary", "InvariantFactors", "NotRealizable",
    "module_structure",
    "plane_torsion_rational", "realize_structure",
    "class_number", "hurwitz_class_number",
    "CensusReport", "attach_class_number_checks", "compute_statistics",
    "counting_formulas", "cyclicity_trend", "run_census",
]
