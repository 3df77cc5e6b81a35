"""Exact univariate polynomial arithmetic over the rationals, Sturm
sequences and certified real-root isolation."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _horner_float(coeffs: Iterable[Fraction], x):
    """sum of c_i * x**(k - i) over coeffs c_0, ..., c_k, in binary64."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + float(c)
    return acc


class Polynomial:
    """Polynomial with Fraction coefficients, stored in ascending degree.

    The zero polynomial has an empty coefficient tuple and degree -1.
    All arithmetic is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        return _horner_float(reversed(self.coeffs), x)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self, constant=0) -> "Polynomial":
        out = [Fraction(constant)]
        out += [c / (i + 1) for i, c in enumerate(self.coeffs)]
        return Polynomial(out)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.leading
        while len(_trim(r)) - 1 >= d:
            r = list(_trim(r))
            k = len(r) - 1 - d
            factor = r[-1] / lc
            q[k] = factor
            for i, c in enumerate(other.coeffs):
                r[k + i] -= factor * c
        return Polynomial(q), Polynomial(r)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"


def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic polynomial gcd via the Euclidean algorithm."""
    while not q.is_zero():
        p, q = q, p.divmod(q)[1]
    if p.is_zero():
        return p
    return p * (1 / p.leading)


def squarefree_part(p: Polynomial) -> Polynomial:
    if p.degree <= 0:
        return p
    return p.divmod(gcd(p, p.derivative()))[0]


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Signed remainder sequence of the squarefree part of ``p``."""
    p = squarefree_part(p)
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-seq[-2].divmod(seq[-1])[1])
    return seq[:-1]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sign_variations_at(seq: Sequence[Polynomial], x: Fraction) -> int:
    signs = [s for s in (_sign(p(Fraction(x))) for p in seq) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Polynomial, a: Fraction, b: Fraction,
                seq: Sequence[Polynomial] | None = None) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (a, b]."""
    if a >= b:
        return 0
    if seq is None:
        seq = sturm_sequence(p)
    return sign_variations_at(seq, a) - sign_variations_at(seq, b)


def root_upper_bound(p: Polynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    if p.degree < 1:
        return Fraction(1)
    lc = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lc


def isolate_unique_root(p: Polynomial, lo: Fraction, hi: Fraction,
                        width: Fraction,
                        seq: Sequence[Polynomial] | None = None
                        ) -> tuple[Fraction, Fraction]:
    """Shrink (lo, hi] around the single root of ``p`` it contains, by
    Sturm-guided bisection, until hi - lo <= width and lo != 0: an
    enclosure of a positive root ends with lo > 0, however wide ``width``."""
    if seq is None:
        seq = sturm_sequence(p)
    assert count_roots(p, lo, hi, seq) == 1
    while hi - lo > width or lo == 0:
        mid = (lo + hi) / 2
        if count_roots(p, lo, mid, seq) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


class RationalFunction:
    """Quotient of two polynomials; no normalization is required and all
    derived quantities are reduction-independent."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    def __call__(self, x):
        return self.numerator(x) / self.denominator(x)

    def eval_float(self, x):
        """Binary64 value at a float or an array of floats. Where the
        quotient N(x)/D(x) is not finite and |x| > 1, it is
        x**(deg N - deg D) * N_rev(1/x)/D_rev(1/x) instead (N_rev, D_rev
        with the coefficient lists reversed), which overflows only where
        the value itself leaves binary64. Finite quotients are kept."""
        n, d = self.numerator, self.denominator
        with np.errstate(all="ignore"):
            value = n.eval_float(x) / d.eval_float(x)
            direct = np.isfinite(value) | (np.abs(x) <= 1)
            if direct.all():
                return value
            x, k = np.asarray(x, dtype=float), n.degree - d.degree
            # Horner on the ascending coefficients evaluates the reversal;
            # x**k = m**k * 2**(e*k) for x = m * 2**e, and the exact power
            # of 2 is applied last, so no intermediate overflows
            ratio = _horner_float(n.coeffs, 1 / x) / _horner_float(d.coeffs, 1 / x)
            m, e = np.frexp(x)
            far = np.ldexp(m ** k * ratio, e * k)
            value = np.where(direct, value, far)
        return value if value.ndim else float(value)

    def derivative_at(self, x: Fraction) -> Fraction:
        n, d = self.numerator, self.denominator
        dx = Fraction(x)
        return (n.derivative()(dx) * d(dx) - n(dx) * d.derivative()(dx)) / d(dx) ** 2

    def laurent_at_infinity(self, order: int) -> tuple[list[tuple[int, Fraction]], bool]:
        """Expansion sum c_k * tau**e_k as tau -> +inf.

        Returns (terms, terminates): ``terms`` lists (exponent, coefficient)
        pairs with nonzero coefficients, descending exponents, down to
        exponent ``top_exponent - order``. ``terminates`` is true when the
        quotient is exactly a polynomial (zero remainder).
        """
        n, d = self.numerator, self.denominator
        quot, rem = n.divmod(d)
        terms = [(i, c) for i, c in enumerate(quot.coeffs) if c != 0]
        terms.sort(key=lambda t: -t[0])
        if rem.is_zero():
            return terms, True
        # rem/d in the variable s = 1/tau: reverse both coefficient lists,
        # then rem/d = s**shift * R(s)/D(s) with D(0) != 0.
        a = list(reversed(rem.coeffs))
        b = list(reversed(d.coeffs))
        shift = d.degree - rem.degree
        top = terms[0][0] if terms else -shift
        n_terms = top + order + 1 - shift  # exponents -(shift+k) >= top-order
        c: list[Fraction] = []
        for k in range(max(n_terms, 0) + 1):
            ak = a[k] if k < len(a) else Fraction(0)
            s = ak - sum(b[j] * c[k - j] for j in range(1, min(k, len(b) - 1) + 1))
            c.append(s / b[0])
        for k, ck in enumerate(c):
            e = -(shift + k)
            if ck != 0 and e >= top - order:
                terms.append((e, ck))
        terms.sort(key=lambda t: -t[0])
        return terms, False
