import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cscflag.poly import (Polynomial, RationalFunction, count_roots, gcd,
                          isolate_unique_root, root_upper_bound,
                          squarefree_part, sturm_sequence)

F = Fraction


def P(*coeffs):
    return Polynomial(coeffs)


class TestArithmetic:
    def test_zero(self):
        z = Polynomial()
        assert z.is_zero() and z.degree == -1 and z.leading == 0
        assert z(F(3)) == 0

    def test_trim(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero()

    def test_eval_exact_and_float(self):
        p = P(1, -2, 3)  # 1 - 2x + 3x^2
        assert p(F(1, 2)) == F(3, 4)
        assert p.eval_float(0.5) == pytest.approx(0.75, abs=0)

    def test_ring_ops(self):
        a, b = P(1, 1), P(-1, 1)
        assert a * b == P(-1, 0, 1)
        assert a + b == P(0, 2)
        assert a - a == Polynomial()
        assert 3 * a == P(3, 3)

    def test_derivative_antiderivative_roundtrip(self):
        p = P(F(1, 3), 0, 5, -2)
        assert p.derivative().antiderivative(constant=p.coeffs[0]) == p
        assert p.antiderivative(constant=7).derivative() == p

    def test_divmod(self):
        num, den = P(-1, 0, 0, 1), P(-1, 1)  # x^3 - 1 = (x - 1)(x^2 + x + 1)
        q, r = num.divmod(den)
        assert q == P(1, 1, 1) and r.is_zero()
        q, r = P(1, 0, 1).divmod(P(0, 1))
        assert q == P(0, 1) and r == P(1)
        with pytest.raises(ZeroDivisionError):
            num.divmod(Polynomial())

    def test_division_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            a = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            b = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestRootTools:
    def test_gcd_monic(self):
        a = P(-2, 0, 2) * P(1, 1)  # 2(x-1)(x+1)^2
        b = P(-1, 1) * P(3)
        g = gcd(a, b)
        assert g == P(-1, 1)

    def test_squarefree(self):
        p = P(-1, 1) * P(-1, 1) * P(2, 1)
        sf = squarefree_part(p)
        assert sf.degree == 2
        assert sf(F(1)) == 0 and sf(F(-2)) == 0

    def test_sturm_count(self):
        p = P(-2, 0, 1)  # x^2 - 2, roots +-sqrt(2)
        assert count_roots(p, F(0), F(2)) == 1
        assert count_roots(p, F(-2), F(2)) == 2
        assert count_roots(p, F(2), F(3)) == 0

    def test_count_half_open(self):
        p = P(0, 1)  # root exactly at 0
        assert count_roots(p, F(0), F(1)) == 0
        assert count_roots(p, F(-1), F(0)) == 1

    def test_repeated_roots_counted_once(self):
        p = P(-1, 1) * P(-1, 1)
        assert count_roots(p, F(0), F(2)) == 1

    def test_cauchy_bound(self):
        p = P(-2, 0, 1)
        bound = root_upper_bound(p)
        assert bound >= 2  # sqrt(2) < bound
        assert count_roots(p, bound, 2 * bound) == 0

    def test_isolate_sqrt2(self):
        p = P(-2, 0, 1)
        lo, hi = isolate_unique_root(p, F(0), root_upper_bound(p), F(1, 10 ** 12))
        assert hi - lo <= F(1, 10 ** 12)
        mid = float((lo + hi) / 2)
        assert abs(mid - 2 ** 0.5) < 1e-12

    def test_sturm_sequence_ends_constant(self):
        seq = sturm_sequence(P(-2, 0, 1))
        assert seq[-1].degree == 0


class TestRationalFunction:
    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), Polynomial())

    def test_eval_and_derivative(self):
        f = RationalFunction(P(0, 1), P(1, 1))  # x/(1+x)
        assert f(F(1)) == F(1, 2)
        assert f.derivative_at(F(1)) == F(1, 4)  # 1/(1+x)^2

    def test_laurent_polynomial_case(self):
        # (tau^2 + tau)/(1 + tau) = tau exactly
        f = RationalFunction(P(0, 1, 1), P(1, 1))
        terms, terminates = f.laurent_at_infinity(8)
        assert terminates and terms == [(1, F(1))]

    def test_laurent_geometric_tail(self):
        # 1/(1+tau) = 1/tau - 1/tau^2 + 1/tau^3 - ...
        f = RationalFunction(P(1), P(1, 1))
        terms, terminates = f.laurent_at_infinity(4)
        assert not terminates
        assert terms[:3] == [(-1, F(1)), (-2, F(-1)), (-3, F(1))]

    def test_laurent_with_polynomial_part(self):
        # tau/2 + 1/2 - (1/2)/(1+tau)
        # (tau + tau^2/2)/(1 + tau)
        f = RationalFunction(P(0, 1, F(1, 2)), P(1, 1))
        terms, terminates = f.laurent_at_infinity(4)
        assert not terminates
        d = dict(terms)
        assert d[1] == F(1, 2) and d[0] == F(1, 2)
        assert d[-1] == F(-1, 2) and d[-2] == F(1, 2)

    def test_eval_float_keeps_finite_quotients(self):
        f = RationalFunction(P(0, 1, F(3, 2), F(1, 6)), P(1, 1))
        xs = [0.0, 0.5, 3.0, 1e50, 1e100, 1e102]
        direct = [f.numerator.eval_float(x) / f.denominator.eval_float(x)
                  for x in xs]
        assert [f.eval_float(x) for x in xs] == direct
        assert f.eval_float(np.array(xs)).tolist() == direct
        assert all(type(f.eval_float(x)) is float for x in xs)

    @pytest.mark.parametrize("x", [1e104, -1e104, 1e154, 3e154])
    def test_eval_float_past_the_numerator_overflow(self, x):
        # tau^3/6 overflows near 1e103, the quotient about tau^2/6 near 3e154
        f = RationalFunction(P(0, 1, F(3, 2), F(1, 6)), P(1, 1))
        want = float(f(F(x)))
        assert type(f.eval_float(x)) is float
        assert f.eval_float(x) == pytest.approx(want, rel=1e-15)
        assert f.eval_float(np.array([2.0, x]))[1] == f.eval_float(x)

    def test_eval_float_overflows_with_the_value(self):
        f = RationalFunction(P(0, 1, F(3, 2), F(1, 6)), P(1, 1))
        assert f.eval_float(1e155) == math.inf
        assert f.eval_float(-1e155) == math.inf
        # x^200/x^201: both overflow at 1e200, the quotient 1/x does not
        g = RationalFunction(P(*[0] * 200, 1), P(*[0] * 201, 1))
        assert g.eval_float(np.array([1e200, 2.0])).tolist() == [1e-200, 0.5]

    def test_laurent_matches_numeric(self):
        f = RationalFunction(P(3, 0, 2, 1), P(1, 2, 1))
        terms, _ = f.laurent_at_infinity(10)
        x = 50.0
        approx = sum(float(c) * x ** e for e, c in terms)
        assert abs(approx - f.eval_float(x)) < 1e-9
