"""Invariant vector fields on the unit circle bundle and the invariant
ddc-lemma predicate.

The circle-bundle tangent space always carries the fiberwise rotation
field; extra invariant fields exist exactly when the bundle weight is
proportional to a tangent root alpha whose sums/differences with every
stabilizer root miss the root system. The proportionality constant l is
reported with the convention lambda = -l * alpha.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .flag import FlagVariety, bundle_weight_vector
from .rootsys import to_root_coords


@dataclass(frozen=True)
class InvariantFieldClassification:
    case: str  # "A" or "B"
    distinguished_root: Optional[tuple[int, ...]]
    proportionality: Optional[Fraction]  # l with lambda = -l * alpha
    dimension: int  # of the invariant-field space: 1 or 3


def _is_root(roots: frozenset, v: tuple[int, ...]) -> bool:
    return v in roots or tuple(-x for x in v) in roots


def classify_invariant_fields(fv: FlagVariety, n: Sequence) -> InvariantFieldClassification:
    lam = bundle_weight_vector(fv, n)  # raises ZeroWeight on zero input
    coords = to_root_coords(fv.rs, lam)
    den = math.lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (den // x.denominator) for x in coords]
    # roots are primitive in the root lattice (W permutes them and fixes the
    # lattice), so the one root that can be parallel to lambda is lambda's
    # primitive vector, lambda = c * alpha with c = scale/den
    scale = math.gcd(*ints) * (1 if sum(ints) > 0 else -1)
    alpha = tuple(x // scale for x in ints)
    if alpha in fv.d_plus:
        # sums/differences with stabilizer roots must avoid the root system;
        # the condition is sign-symmetric, so positive representatives suffice
        roots = fv.rs.positive_root_set()
        if not any(_is_root(roots, tuple(map(op, alpha, beta)))
                   for beta in fv.r_plus for op in (operator.add, operator.sub)):
            return InvariantFieldClassification("B", alpha, Fraction(-scale, den), 3)
    return InvariantFieldClassification("A", None, None, 1)


def ddc_applicable(cls: InvariantFieldClassification) -> tuple[bool, str]:
    """Whether the invariant ddc-lemma applies to the bundle L_lambda whose
    invariant fields ``cls`` classifies."""
    if cls.case == "A":
        return True, "only the fiber rotation field is invariant (case A)"
    l = cls.proportionality
    if l > 0:
        return True, (f"case B with lambda = -{l} * alpha for alpha = "
                      f"{list(cls.distinguished_root)}; l > 0")
    return False, (f"case B with lambda = -({l}) * alpha for alpha = "
                   f"{list(cls.distinguished_root)}; requires l > 0")
