"""Exact toric and tropical intersection theory at desk scale.

Everything runs over the rationals with no floating point. The headline
entry points are re-exported here; the submodules carry the rest.
"""

from .fans import (Fan, StarFan, common_refinement, fan_from_max_cones,
                   insert_ray, star_fan, stellar_subdivision,
                   validate_fan)
from .ideals import (MonomialIdeal, SegreData, pullback_ideal, segre_class)
from .piecewise import (PiecewisePolynomial, courant_function,
                        excess_chern_class, min_refinement, pp_min,
                        pp_pullback, pp_space_basis, pp_space_dimension)
from .transforms import (BlowupSetup, ToricCycle, TransformReport,
                         fundamental_cycle, fulton_correction,
                         strict_transform, total_transform,
                         verify_fulton_identity)
from .tropical import (DRSubfan, RubberType, SlopeAssignment,
                       WeightedDualGraph, balanced_slopes, dr_cone,
                       dr_subfan, enumerate_stable_graphs, rubber_subdivision,
                       rubber_type, tc_fiber_product, verify_face_closure)
from .weights import (MinkowskiWeight, balanced_weight_rank,
                      courant_monomial, fundamental_weight, is_balanced,
                      mw_of_pp, mw_product, mw_to_pp, pl_cap,
                      pushforward_witness)

__all__ = [
    "Fan", "StarFan", "common_refinement", "fan_from_max_cones",
    "insert_ray", "star_fan", "stellar_subdivision",
    "validate_fan",
    "MonomialIdeal", "SegreData", "pullback_ideal", "segre_class",
    "PiecewisePolynomial", "courant_function", "excess_chern_class",
    "min_refinement", "pp_min", "pp_pullback", "pp_space_basis",
    "pp_space_dimension",
    "BlowupSetup", "ToricCycle", "TransformReport", "fundamental_cycle",
    "fulton_correction", "strict_transform", "total_transform",
    "verify_fulton_identity",
    "DRSubfan", "RubberType", "SlopeAssignment", "WeightedDualGraph",
    "balanced_slopes", "dr_cone", "dr_subfan", "enumerate_stable_graphs",
    "rubber_subdivision", "rubber_type", "tc_fiber_product",
    "verify_face_closure",
    "MinkowskiWeight", "balanced_weight_rank", "courant_monomial",
    "fundamental_weight", "is_balanced", "mw_of_pp", "mw_product",
    "mw_to_pp", "pl_cap", "pushforward_witness",
]
