"""Root systems of semisimple Lie types with exact rational arithmetic.

Conventions: roots are stored in simple-root integer coordinates; the
invariant bilinear form is normalized so that in each simple factor the
long roots have squared length 2. The fundamental weights are derived by
inverting the Cartan matrix exactly.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, InvalidLieType

_RANK_CONSTRAINTS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}

_POSITIVE_ROOT_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


@dataclass(frozen=True)
class LieTypeSpec:
    """A product of simple factors, e.g. [("A", 2), ("A", 1)]."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise InvalidLieType("empty Lie type")
        for family, rank in self.factors:
            check = _RANK_CONSTRAINTS.get(family)
            if check is None or not check(rank):
                raise InvalidLieType(f"no simple Lie type {family}{rank}")

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)


def parse_lie_type(text: str) -> LieTypeSpec:
    """Parse strings of the form "A2", "B3", "A1xA1" (case-insensitive)."""
    factors = []
    for part in text.strip().split("x"):
        m = re.fullmatch(r"\s*([A-Ga-g])(\d+)\s*", part)
        if m is None:
            raise InvalidLieType(f"cannot parse Lie type factor {part!r}")
        factors.append((m.group(1).upper(), int(m.group(2))))
    return LieTypeSpec(tuple(factors))


class Basis(Enum):
    SIMPLE_ROOT = "simple_root"
    FUNDAMENTAL_WEIGHT = "fundamental_weight"


@dataclass(frozen=True)
class WeightVector:
    coords: tuple[Fraction, ...]
    basis: Basis

    @staticmethod
    def roots(coords: Sequence) -> "WeightVector":
        return WeightVector(tuple(Fraction(c) for c in coords), Basis.SIMPLE_ROOT)

    @staticmethod
    def weights(coords: Sequence) -> "WeightVector":
        return WeightVector(tuple(Fraction(c) for c in coords), Basis.FUNDAMENTAL_WEIGHT)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _simple_chain(rank: int) -> list[list[int]]:
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
        if i + 1 < rank:
            a[i][i + 1] = -1
            a[i + 1][i] = -1
    return a


def _cartan_and_lengths(family: str, rank: int) -> tuple[list[list[int]], list[Fraction]]:
    """Cartan matrix A[i][j] = 2(a_i, a_j)/(a_j, a_j) and half squared
    lengths d_j = (a_j, a_j)/2, normalized so long roots have d = 1."""
    one = Fraction(1)
    half = Fraction(1, 2)
    if family == "A":
        return _simple_chain(rank), [one] * rank
    if family == "B":
        a = _simple_chain(rank)
        a[rank - 2][rank - 1] = -2
        return a, [one] * (rank - 1) + [half]
    if family == "C":
        a = _simple_chain(rank)
        a[rank - 1][rank - 2] = -2
        return a, [half] * (rank - 1) + [one]
    if family == "D":
        a = _simple_chain(rank - 1)
        for row in a:
            row.append(0)
        a.append([0] * rank)
        a[rank - 1][rank - 1] = 2
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
        return a, [one] * rank
    if family == "E":
        # Bourbaki numbering: chain 1-3-4-5-6(-7)(-8), node 2 attached to 4
        a = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            a[i][i] = 2
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            a[i][j] = -1
            a[j][i] = -1
        return a, [one] * rank
    if family == "F":
        a = _simple_chain(4)
        a[1][2] = -2
        return a, [one, one, half, half]
    if family == "G":
        return [[2, -1], [-3, 2]], [Fraction(1, 3), one]
    raise InvalidLieType(family)


def _enumerate_positive_roots(cartan: list[list[int]], rank: int) -> list[tuple[int, ...]]:
    """Closure under simple-root addition, one height at a time. Each root
    beta carries its pairings <beta, alpha_i^v> (a parent's plus row i of
    the Cartan matrix) and its alpha_i-string depths p_i, the largest p with
    beta - p*alpha_i a root: p_i(beta) = p_i(beta - alpha_i) + 1, and every
    root beta - alpha_i of the height below adds alpha_i to reach beta."""
    level = {tuple(int(j == i) for j in range(rank)): (cartan[i], [0] * rank)
             for i in range(rank)}
    roots = []
    while level:
        roots += level
        below, level = level, {}
        for beta, (pairing, depth) in below.items():
            for i in range(rank):
                if depth[i] - pairing[i] >= 1:  # q = p - <beta, alpha_i^v>
                    cand = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    entry = level.get(cand)
                    if entry is None:
                        entry = level[cand] = (
                            [x + y for x, y in zip(pairing, cartan[i])], [0] * rank)
                    entry[1][i] = depth[i] + 1
    return sorted(roots)


def _invert(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of an integer matrix whose leading principal minors are
    positive, as a Cartan matrix's are: fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968), whose every division is
    exact, leaves det * I beside det * A^-1."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        pivot_row, pv = aug[k], aug[k][k]
        for r in range(n):
            if r != k:
                row, factor = aug[r], aug[r][k]
                aug[r] = [(pv * x - factor * y) // prev
                          for x, y in zip(row, pivot_row)]
        prev = pv
    return [[Fraction(x, prev) for x in row[n:]] for row in aug]


@dataclass(frozen=True)
class RootSystem:
    spec: LieTypeSpec
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    fundamental_weights: tuple[tuple[Fraction, ...], ...]  # simple-root coords
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    factor_slices: tuple[tuple[int, int], ...]

    def positive_root_set(self) -> frozenset:
        return frozenset(self.positive_roots)


def build_root_system(spec: LieTypeSpec) -> RootSystem:
    rank = spec.rank
    cartan = [[0] * rank for _ in range(rank)]
    gram = [[Fraction(0)] * rank for _ in range(rank)]
    roots: list[tuple[int, ...]] = []
    slices = []
    offset = 0
    for family, r in spec.factors:
        a, d = _cartan_and_lengths(family, r)
        for i in range(r):
            for j in range(r):
                cartan[offset + i][offset + j] = a[i][j]
                gram[offset + i][offset + j] = d[j] * a[i][j]
        for root in _enumerate_positive_roots(a, r):
            full = [0] * rank
            full[offset:offset + r] = root
            roots.append(tuple(full))
        slices.append((offset, offset + r))
        offset += r
    cartan_inv = _invert(cartan)
    # row j of the Cartan inverse gives omega_j in simple-root coordinates
    fweights = tuple(tuple(row) for row in cartan_inv)
    return RootSystem(
        spec=spec,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        gram=tuple(tuple(row) for row in gram),
        positive_roots=tuple(sorted(roots)),
        fundamental_weights=fweights,
        cartan_inverse=tuple(tuple(row) for row in cartan_inv),
        factor_slices=tuple(slices),
    )


def with_gram_scaled(rs: RootSystem, scale) -> RootSystem:
    """Same combinatorial root system with the bilinear form multiplied by a
    positive rational; used to test scale invariance of downstream output."""
    c = Fraction(scale)
    if c <= 0:
        raise ValueError("scale must be positive")
    gram = tuple(tuple(c * x for x in row) for row in rs.gram)
    return RootSystem(rs.spec, rs.rank, rs.cartan, gram, rs.positive_roots,
                      rs.fundamental_weights, rs.cartan_inverse, rs.factor_slices)


def _check_dim(rs: RootSystem, v: WeightVector) -> None:
    if len(v.coords) != rs.rank:
        raise DimensionMismatch(
            f"vector of length {len(v.coords)} in rank-{rs.rank} system")


def to_root_coords(rs: RootSystem, v: WeightVector) -> tuple[Fraction, ...]:
    _check_dim(rs, v)
    if v.basis is Basis.SIMPLE_ROOT:
        return v.coords
    # v = sum m_j omega_j, coords = m . A^{-1}, in integers over den**2
    inv = rs.cartan_inverse
    den = math.lcm(*(x.denominator for row in (v.coords, *inv) for x in row))
    m, *rows = [[x.numerator * (den // x.denominator) for x in row]
                for row in (v.coords, *inv)]
    return tuple(Fraction(sum(map(operator.mul, m, col)), den * den)
                 for col in zip(*rows))


def convert(rs: RootSystem, v: WeightVector, target: Basis) -> WeightVector:
    _check_dim(rs, v)
    if v.basis is target:
        return v
    if target is Basis.SIMPLE_ROOT:
        return WeightVector(to_root_coords(rs, v), Basis.SIMPLE_ROOT)
    # m_j = sum_i c_i A[i][j]
    c = v.coords
    m = tuple(sum(c[i] * rs.cartan[i][j] for i in range(rs.rank))
              for j in range(rs.rank))
    return WeightVector(m, Basis.FUNDAMENTAL_WEIGHT)


def inner_product(rs: RootSystem, v: WeightVector, w: WeightVector) -> Fraction:
    a = to_root_coords(rs, v)
    b = to_root_coords(rs, w)
    return sum(a[i] * rs.gram[i][j] * b[j]
               for i in range(rs.rank) for j in range(rs.rank))


def is_root(rs: RootSystem, v: WeightVector) -> bool:
    coords = to_root_coords(rs, v)
    ints = []
    for c in coords:
        if c.denominator != 1:
            return False
        ints.append(c.numerator)
    t = tuple(ints)
    neg = tuple(-x for x in ints)
    pos = rs.positive_root_set()
    return t in pos or neg in pos


def is_positive_root(rs: RootSystem, v: WeightVector) -> bool:
    coords = to_root_coords(rs, v)
    if any(c.denominator != 1 for c in coords):
        return False
    return tuple(c.numerator for c in coords) in rs.positive_root_set()
