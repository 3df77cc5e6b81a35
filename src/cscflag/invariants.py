"""Invariant vector fields on the unit circle bundle and the invariant
ddc-lemma predicate.

The circle-bundle tangent space always carries the fiberwise rotation
field; extra invariant fields exist exactly when the bundle weight is
proportional to a tangent root alpha whose sums/differences with every
stabilizer root miss the root system. The proportionality constant l is
reported with the convention lambda = -l * alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .flag import FlagVariety, bundle_weight_vector
from .rootsys import WeightVector, is_root, to_root_coords


@dataclass(frozen=True)
class InvariantFieldClassification:
    case: str  # "A" or "B"
    distinguished_root: Optional[tuple[int, ...]]
    proportionality: Optional[Fraction]  # l with lambda = -l * alpha
    dimension: int  # of the invariant-field space: 1 or 3


def _parallel_ratio(lam_coords, root) -> Optional[Fraction]:
    """If lam = c * root for a single rational c != 0, return c."""
    ratio = None
    for a, b in zip(lam_coords, root):
        if b == 0:
            if a != 0:
                return None
            continue
        r = Fraction(a, b)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    if ratio == 0:
        return None
    return ratio


def classify_invariant_fields(fv: FlagVariety, n: Sequence) -> InvariantFieldClassification:
    lam = bundle_weight_vector(fv, n)  # raises ZeroWeight on zero input
    lam_coords = to_root_coords(fv.rs, lam)
    for alpha in fv.d_plus:
        c = _parallel_ratio(lam_coords, alpha)
        if c is None:
            continue
        # sums/differences with stabilizer roots must avoid the root system;
        # the condition is sign-symmetric, so positive representatives suffice
        ok = True
        for beta in fv.r_plus:
            for cand in (tuple(a + b for a, b in zip(alpha, beta)),
                         tuple(a - b for a, b in zip(alpha, beta))):
                if is_root(fv.rs, WeightVector.roots(cand)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return InvariantFieldClassification("B", alpha, -c, 3)
        break  # at most one positive root is parallel to lambda
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
