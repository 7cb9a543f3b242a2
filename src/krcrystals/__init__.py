"""Crystal combinatorics for Kirillov-Reshetikhin tensor products:
abstract crystals with the signature rule, Demazure-edge filtrations,
the quantum Bruhat graph, and the quantum alcove model with level-l
operators, plus named verifications of the structural theorems they
satisfy at desk scale."""

from .cartan import build_cartan, c_value, parse_type
from .weyl import build_qbg, build_weyl_group, dominantize
from .crystals import (CrystalGraph, components, demazure_filter,
                       explore_tensor, hw_census, iso_check)
from .alcove import (LambdaChain, alcove_crystal, build_lambda_chain,
                     enumerate_admissible, fold, hw_crystal)
from .kr import fixture_C2, kr_C_onebox, kr_typeA, promotion
from .experiments import (Report, check_alcove_correspondence, check_bmin,
                          check_character_qsystem, check_figure,
                          check_qsystem_typeA, check_reduction)

__version__ = "0.1.0"

__all__ = [
    "build_cartan", "c_value", "parse_type",
    "build_qbg", "build_weyl_group", "dominantize",
    "CrystalGraph", "components", "demazure_filter", "explore_tensor",
    "hw_census", "hw_crystal", "iso_check",
    "LambdaChain", "alcove_crystal", "build_lambda_chain",
    "enumerate_admissible", "fold",
    "fixture_C2", "kr_C_onebox", "kr_typeA", "promotion",
    "Report", "check_alcove_correspondence", "check_bmin",
    "check_character_qsystem", "check_figure", "check_qsystem_typeA",
    "check_reduction",
    "__version__",
]
