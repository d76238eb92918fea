"""Numerical laboratory for pairings between t-dependent vector fields
and functions of bounded variation.

The package computes the pairing measure by independent routes
(distributional, density representation, normal traces), verifies coarea,
chain-rule, mass-bound and comparison identities, and studies continuity,
lower semicontinuity and relaxation of the induced functionals along
approximating sequences.
"""

from .bv import (BvFunction1D, CantorPart, Disc, JumpPoint, Piecewise1D,
                 PiecewiseConstantBv2D, PolygonRegion, SmoothRadialBv2D)
from .errors import (AssumptionViolation, CrossValidationMismatch,
                     CylAverageDiverged, DegenerateLevel, FormMismatch,
                     PairingLabError, SpecError, ToleranceNotMet,
                     UnknownCheck, WindowTooLarge)
from .fields import FieldB, field_catalog, make_field, mollify, sigma_k, \
    truncate
from .measures import (RadonMeasure1D, RadonMeasure2D, SingularLadder,
                       TestFunction1D, TestFunction2D)
from .pairing import (PairingMeasure, approximation_convergence_check,
                      chain_rule_check, coarea_pairing_check,
                      coarea_variation_check, cylindrical_average,
                      jump_theta, lipschitz_comparison_check,
                      mass_bound_check, normal_trace,
                      pairing_by_representation, pairing_by_traces,
                      pairing_distributional)
from .variational import (ApproximatingSequence, Functionals, MollifiedBv1D,
                          blowup_density, continuity_check_Gphi, lsc_check,
                          order_relation_check, relaxation_check,
                          sigma_k_identity_check, truncate_bv)

__version__ = "0.1.0"
