"""Generalized flag variety data and weight-level coefficient operations.

A flag variety is fixed by a root system and a subset Pi' of the simple
roots (given by 1-based indices). The positive roots split into the
tangent set D+ and the stabilizer set; delta is the sum over D+. Bundle
weights and Kahler classes live on the fundamental weights indexed by the
complement of Pi'.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IndexOutOfRange, NonPositiveClass, ZeroWeight
from .rootsys import Basis, RootSystem, WeightVector


@dataclass(frozen=True)
class FlagVariety:
    rs: RootSystem
    pi_prime: frozenset[int]  # 1-based simple-root indices
    d_plus: tuple[tuple[int, ...], ...]
    r_plus: tuple[tuple[int, ...], ...]
    delta: WeightVector  # simple-root basis
    dim_X: int
    s_star_indices: tuple[int, ...]  # 1-based, ascending


def build_flag(rs: RootSystem, pi_prime: Sequence[int]) -> FlagVariety:
    pi = frozenset(pi_prime)
    for i in pi:
        if not (1 <= i <= rs.rank):
            raise IndexOutOfRange(f"simple-root index {i} outside 1..{rs.rank}")
    pi0 = {i - 1 for i in pi}
    d_plus, r_plus = [], []
    for root in rs.positive_roots:
        support = {i for i, c in enumerate(root) if c != 0}
        (r_plus if support <= pi0 else d_plus).append(root)
    delta = tuple(sum(col) for col in zip(*d_plus)) if d_plus else (0,) * rs.rank
    return FlagVariety(
        rs=rs,
        pi_prime=pi,
        d_plus=tuple(d_plus),
        r_plus=tuple(r_plus),
        delta=WeightVector.roots(delta),
        dim_X=len(d_plus),
        s_star_indices=tuple(sorted(set(range(1, rs.rank + 1)) - pi)),
    )


def bundle_weight_vector(fv: FlagVariety, n: Sequence) -> WeightVector:
    """Integral weight sum n_i * omega_i over the s* indices, as a full
    fundamental-weight-basis vector."""
    if len(n) != len(fv.s_star_indices):
        raise IndexOutOfRange(
            f"expected {len(fv.s_star_indices)} coefficients, got {len(n)}")
    if all(c == 0 for c in n):
        raise ZeroWeight("bundle weight must be nonzero")
    coords = [Fraction(0)] * fv.rs.rank
    for idx, c in zip(fv.s_star_indices, n):
        coords[idx - 1] = Fraction(c)
    return WeightVector(tuple(coords), Basis.FUNDAMENTAL_WEIGHT)


def kahler_class_vector(fv: FlagVariety, x: Sequence) -> WeightVector:
    """Kahler class kappa = sum x_i * omega_i, all x_i > 0."""
    if len(x) != len(fv.s_star_indices):
        raise IndexOutOfRange(
            f"expected {len(fv.s_star_indices)} coefficients, got {len(x)}")
    if any(Fraction(c) <= 0 for c in x):
        raise NonPositiveClass("all Kahler class coefficients must be positive")
    coords = [Fraction(0)] * fv.rs.rank
    for idx, c in zip(fv.s_star_indices, x):
        coords[idx - 1] = Fraction(c)
    return WeightVector(tuple(coords), Basis.FUNDAMENTAL_WEIGHT)


class BundleSign(Enum):
    AMPLE = "ample"
    NEGATIVE = "negative"
    SEMI_NEGATIVE = "semi_negative"
    SEMI_POSITIVE = "semi_positive"
    MIXED = "mixed"


def _pairings(fv: FlagVariety, v: WeightVector) -> tuple[list[int], int]:
    """Numerators of (v, alpha) for alpha in D+, in order, over one common
    positive denominator: each is one integer dot product with the row
    (v, alpha_j) = m_j * gram[j][j]/2, m the fundamental-weight coordinates
    of v (m = c A for simple-root coordinates c and the Cartan matrix A)."""
    rs = fv.rs
    den = math.lcm(*(x.denominator for x in v.coords))
    m = [x.numerator * (den // x.denominator) for x in v.coords]
    if v.basis is Basis.SIMPLE_ROOT:
        m = [sum(map(operator.mul, m, col)) for col in zip(*rs.cartan)]
    diag = [rs.gram[j][j] for j in range(rs.rank)]
    gden = math.lcm(*(g.denominator for g in diag))
    row = [x * g.numerator * (gden // g.denominator) for x, g in zip(m, diag)]
    return [sum(map(operator.mul, root, row)) for root in fv.d_plus], 2 * den * gden


def _by_root(fv: FlagVariety, pairs: tuple[list[int], int]) -> dict:
    nums, den = pairs
    return {root: Fraction(x, den) for root, x in zip(fv.d_plus, nums)}


def classify_bundle_weight(fv: FlagVariety, n: Sequence) -> BundleSign:
    nums, _ = _pairings(fv, bundle_weight_vector(fv, n))
    if all(v > 0 for v in nums):
        return BundleSign.AMPLE
    if all(v < 0 for v in nums):
        return BundleSign.NEGATIVE
    if all(v <= 0 for v in nums):
        return BundleSign.SEMI_NEGATIVE
    if all(v >= 0 for v in nums):
        return BundleSign.SEMI_POSITIVE
    return BundleSign.MIXED


def kahler_coeffs(fv: FlagVariety, x: Sequence) -> Mapping[tuple[int, ...], Fraction]:
    """Per-root coefficients 2*C_alpha = (kappa, alpha), all positive."""
    return _by_root(fv, _pairings(fv, kahler_class_vector(fv, x)))


def curvature_coeffs(fv: FlagVariety, n: Sequence) -> Mapping[tuple[int, ...], Fraction]:
    """Per-root curvature coefficients (lambda, alpha)."""
    return _by_root(fv, _pairings(fv, bundle_weight_vector(fv, n)))


def ke_coeffs(fv: FlagVariety) -> Mapping[tuple[int, ...], Fraction]:
    """Kahler-Einstein coefficients (alpha, delta), always positive."""
    return _by_root(fv, _pairings(fv, fv.delta))
