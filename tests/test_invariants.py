from fractions import Fraction

import pytest

from cscflag import (ZeroWeight, build_flag, build_root_system,
                     classify_invariant_fields, ddc_applicable, parse_lie_type)

F = Fraction


def fv_of(text, pi_prime=()):
    return build_flag(build_root_system(parse_lie_type(text)), pi_prime)


class TestProjectiveLine:
    def test_negative_bundle(self):
        cls = classify_invariant_fields(fv_of("A1"), [-1])
        assert cls.case == "B"
        assert cls.distinguished_root == (1,)
        assert cls.proportionality == F(1, 2)  # lambda = -omega = -(1/2) alpha
        assert cls.dimension == 3

    def test_positive_bundle(self):
        cls = classify_invariant_fields(fv_of("A1"), [1])
        assert cls.case == "B" and cls.proportionality == F(-1, 2)

    def test_zero_weight(self):
        with pytest.raises(ZeroWeight):
            classify_invariant_fields(fv_of("A1"), [0])


@pytest.fixture(scope="module")
def fv_a2():
    return fv_of("A2")


@pytest.fixture(scope="module")
def fv_a3p():
    return fv_of("A3", [1])


class TestSu3FullFlag:
    """lambda = p*omega1 + q*omega2 on the full flag of A2: the three
    parallel lines p = -2q, p = q, 2p = -q give the extra fields."""

    def test_alpha_line(self, fv_a2):
        cls = classify_invariant_fields(fv_a2, [-2, 1])
        assert cls.case == "B" and cls.distinguished_root == (1, 0)

    def test_beta_line(self, fv_a2):
        cls = classify_invariant_fields(fv_a2, [1, 1])
        assert cls.case == "B" and cls.distinguished_root == (1, 1)
        assert cls.proportionality == -1

    def test_gamma_line(self, fv_a2):
        cls = classify_invariant_fields(fv_a2, [1, -2])
        assert cls.case == "B" and cls.distinguished_root == (0, 1)

    def test_generic(self, fv_a2):
        cls = classify_invariant_fields(fv_a2, [1, 2])
        assert cls.case == "A" and cls.dimension == 1

    def test_case_b_iff_parallel(self, fv_a2):
        for p in range(-5, 6):
            for q in range(-5, 6):
                if (p, q) == (0, 0):
                    continue
                cls = classify_invariant_fields(fv_a2, [p, q])
                expect_b = p == -2 * q or p == q or 2 * p == -q
                assert (cls.case == "B") == expect_b, (p, q)


class TestSu4Partial:
    """lambda = n*omega2 + m*omega3 on A3 with Pi' = {1}: the stabilizer
    root string kills every candidate except alpha3, reached on m = -2n."""

    def test_distinguished_line(self, fv_a3p):
        cls = classify_invariant_fields(fv_a3p, [1, -2])
        assert cls.case == "B"
        assert cls.distinguished_root == (0, 0, 1)
        assert cls.proportionality == 1  # lambda = omega2 - 2 omega3 = -alpha3

    def test_case_b_iff_distinguished_line(self, fv_a3p):
        for n in range(-5, 6):
            for m in range(-5, 6):
                if (n, m) == (0, 0):
                    continue
                cls = classify_invariant_fields(fv_a3p, [n, m])
                assert (cls.case == "B") == (m == -2 * n), (n, m)

    def test_stabilizer_string_blocks_alpha2(self, fv_a3p):
        # lambda parallel to alpha2 would need n = m = 0; and alpha2 + alpha1
        # is a root anyway, so alpha2 can never be distinguished
        for n, m in [(4, -8), (1, -2), (-3, 6)]:
            cls = classify_invariant_fields(fv_a3p, [n, m])
            assert cls.distinguished_root == (0, 0, 1)


class TestScaling:
    def test_classification_scales(self):
        fv = fv_of("A2")
        a = classify_invariant_fields(fv, [1, 1])
        b = classify_invariant_fields(fv, [3, 3])
        assert a.case == b.case == "B"
        assert b.proportionality == 3 * a.proportionality


class TestDdcPredicate:
    def test_case_a_applies(self):
        ok, reason = ddc_applicable(
            classify_invariant_fields(fv_of("A2"), [-1, -2]))
        assert ok and "case A" in reason

    def test_case_b_negative_applies(self):
        ok, reason = ddc_applicable(classify_invariant_fields(fv_of("A1"), [-1]))
        assert ok and "l > 0" in reason

    def test_case_b_positive_fails(self):
        ok, reason = ddc_applicable(classify_invariant_fields(fv_of("A1"), [1]))
        assert not ok and "requires l > 0" in reason
