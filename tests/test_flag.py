import random
from fractions import Fraction

import pytest

from cscflag import (BundleSign, IndexOutOfRange, NonPositiveClass,
                     WeightVector, ZeroWeight, build_flag, build_root_system,
                     classify_bundle_weight, curvature_coeffs, inner_product,
                     kahler_coeffs, ke_coeffs, parse_lie_type,
                     with_gram_scaled)
from reference import coefficient_maps

F = Fraction


def fv_of(text, pi_prime=()):
    return build_flag(build_root_system(parse_lie_type(text)), pi_prime)


class TestBuildFlag:
    def test_p1(self):
        fv = fv_of("A1")
        assert fv.d_plus == ((1,),)
        assert fv.r_plus == ()
        assert fv.dim_X == 1
        assert fv.s_star_indices == (1,)
        assert fv.delta.coords == (F(1),)

    def test_full_flag_a2(self):
        fv = fv_of("A2")
        assert fv.dim_X == 3
        assert set(fv.d_plus) == {(0, 1), (1, 0), (1, 1)}
        assert fv.delta.coords == (F(2), F(2))
        assert fv.s_star_indices == (1, 2)

    def test_a3_partial(self):
        fv = fv_of("A3", [1])
        assert fv.r_plus == ((1, 0, 0),)
        assert set(fv.d_plus) == {(0, 1, 0), (0, 0, 1), (1, 1, 0),
                                  (0, 1, 1), (1, 1, 1)}
        assert fv.dim_X == 5
        assert fv.s_star_indices == (2, 3)
        assert fv.delta.coords == (F(2), F(4), F(3))

    def test_delta_orthogonal_to_stabilizer_simples(self):
        for text, pi in [("A3", [1]), ("A3", [1, 3]), ("B3", [2]), ("G2", [1])]:
            fv = fv_of(text, pi)
            for i in fv.pi_prime:
                ai = WeightVector.roots(
                    tuple(int(k == i - 1) for k in range(fv.rs.rank)))
                assert inner_product(fv.rs, fv.delta, ai) == 0

    def test_stabilizer_closed_under_support(self):
        rng = random.Random(3)
        for _ in range(30):
            text = rng.choice(["A2", "A3", "B3", "G2"])
            rs = build_root_system(parse_lie_type(text))
            pi = sorted(rng.sample(range(1, rs.rank + 1),
                                   rng.randint(0, rs.rank)))
            fv = build_flag(rs, pi)
            assert len(fv.d_plus) + len(fv.r_plus) == len(rs.positive_roots)
            pi0 = {i - 1 for i in fv.pi_prime}
            for root in fv.r_plus:
                assert {i for i, c in enumerate(root) if c} <= pi0
            for root in fv.d_plus:
                assert not {i for i, c in enumerate(root) if c} <= pi0

    def test_bad_index(self):
        rs = build_root_system(parse_lie_type("A2"))
        with pytest.raises(IndexOutOfRange):
            build_flag(rs, [3])


class TestBundleClassification:
    def test_negative(self):
        assert classify_bundle_weight(fv_of("A1"), [-1]) is BundleSign.NEGATIVE

    def test_ample(self):
        assert classify_bundle_weight(fv_of("A2"), [1, 2]) is BundleSign.AMPLE

    def test_mixed(self):
        assert classify_bundle_weight(fv_of("A2"), [2, -1]) is BundleSign.MIXED

    def test_semi_negative(self):
        # lambda = -omega2 on A3 with Pi' = {1}: vanishes on alpha2-free roots
        fv = fv_of("A3", [1])
        assert classify_bundle_weight(fv, [-1, 0]) is BundleSign.SEMI_NEGATIVE

    def test_semi_positive(self):
        fv = fv_of("A3", [1])
        assert classify_bundle_weight(fv, [1, 0]) is BundleSign.SEMI_POSITIVE

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            classify_bundle_weight(fv_of("A2"), [0, 0])

    def test_wrong_length(self):
        with pytest.raises(IndexOutOfRange):
            classify_bundle_weight(fv_of("A2"), [1])

    def test_signs_match_coefficients(self):
        rng = random.Random(11)
        for _ in range(40):
            fv = fv_of(rng.choice(["A2", "A3", "B2"]))
            n = [rng.choice([-2, -1, 1, 2]) for _ in fv.s_star_indices]
            sign = classify_bundle_weight(fv, n)
            # on a full flag every omega_i pairs positively with some root
            if all(c > 0 for c in n):
                assert sign is BundleSign.AMPLE
            if all(c < 0 for c in n):
                assert sign is BundleSign.NEGATIVE


class TestCoefficients:
    def test_a2_kahler(self):
        fv = fv_of("A2")
        kah = kahler_coeffs(fv, [1, 1])
        assert kah[(1, 0)] == 1 and kah[(0, 1)] == 1 and kah[(1, 1)] == 2

    def test_kahler_linearity(self):
        fv = fv_of("A2")
        one = kahler_coeffs(fv, [1, 1])
        three = kahler_coeffs(fv, [3, 3])
        assert all(three[r] == 3 * one[r] for r in one)

    def test_kahler_positive(self):
        fv = fv_of("B3", [2])
        kah = kahler_coeffs(fv, [F(1, 2), 2])
        assert all(v > 0 for v in kah.values())

    def test_kahler_rejects_nonpositive(self):
        with pytest.raises(NonPositiveClass):
            kahler_coeffs(fv_of("A2"), [1, 0])

    def test_a2_ke(self):
        ke = ke_coeffs(fv_of("A2"))
        assert ke[(1, 0)] == 2 and ke[(0, 1)] == 2 and ke[(1, 1)] == 4

    def test_ke_positive(self):
        for text, pi in [("A3", [1]), ("B3", [2]), ("G2", []), ("G2", [1])]:
            assert all(v > 0 for v in ke_coeffs(fv_of(text, pi)).values())

    def test_curvature_negative_for_antidominant(self):
        fv = fv_of("A3", [2])
        curv = curvature_coeffs(fv, [-1, -3])
        assert all(v < 0 for v in curv.values())

    def test_curvature_on_p1(self):
        assert curvature_coeffs(fv_of("A1"), [-3])[(1,)] == -3

    @pytest.mark.parametrize("lie_type,pi_prime,scale", [
        ("A1", [], 1), ("A3", [2], 1), ("B3", [], 1), ("B4", [1, 3], 1),
        ("C3", [], 1), ("D4", [], 1), ("D5", [2, 4], 1), ("G2", [], 1),
        ("F4", [2], 1), ("E6", [1, 3], 1), ("E7", [7], 1), ("A2xA1", [], 1),
        ("B3", [2], F(7, 3)), ("A1xG2xC2", [3], F(1, 2)),
    ])
    def test_maps_match_inner_product(self, lie_type, pi_prime, scale):
        # the dot-product pairings against one inner_product per root
        rs = build_root_system(parse_lie_type(lie_type))
        fv = build_flag(rs if scale == 1 else with_gram_scaled(rs, scale),
                        pi_prime)
        rng = random.Random(lie_type)
        k = len(fv.s_star_indices)
        lam = [rng.choice([-3, -1, 1, 2]) for _ in range(k)]
        kappa = [F(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(k)]
        assert (curvature_coeffs(fv, lam), kahler_coeffs(fv, kappa),
                ke_coeffs(fv)) == coefficient_maps(fv, lam, kappa)
