"""Invariant constant-scalar-curvature Kahler metrics on negative
homogeneous line bundles over generalized flag varieties.

The pipeline: build a root system, fix a parabolic subset to get the flag
variety, pick a negative bundle weight and a Kahler class, then
solve the momentum-construction ODE exactly and classify the resulting
metric (scalar-flat / negative / positive constant scalar curvature) with
its asymptotics.
"""

from .errors import (CscflagError, DimensionMismatch, GridOutOfInterval,
                     IndexOutOfRange, InternalInconsistency, InvalidLieType,
                     InvalidRange, NonPositiveClass, NotSemiNegative,
                     SchemaError, StepTooLarge, WrongCase, ZeroWeight)
from .flag import (BundleSign, FlagVariety, build_flag, bundle_weight_vector,
                   classify_bundle_weight, curvature_coeffs, kahler_class_vector,
                   kahler_coeffs, ke_coeffs)
from .invariants import (InvariantFieldClassification, classify_invariant_fields,
                         ddc_applicable)
from .momentum import (BehaviorReport, ConicalExpansion, Interval,
                       MomentumProfile, asymptotics, build_profile_inputs,
                       classify_behavior, conical_expansion, fiber_maps,
                       find_smooth_C, metric_index, momentum_interval,
                       numeric_oracle, solve_profile)
from .poly import Polynomial, RationalFunction
from .rootsys import (Basis, LieTypeSpec, RootSystem, WeightVector,
                      build_root_system, convert, inner_product, is_positive_root,
                      is_root, parse_lie_type, with_gram_scaled)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
