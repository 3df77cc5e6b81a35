"""The integer exact layers against their Fraction references, over every
family: the Cartan inverse, the positive roots, the pairings, Qtilde and
P, the profile and the metric index, on the full flag and one maximal
parabolic with uniform and generic weights."""

import random
from fractions import Fraction

import pytest

import reference
from cscflag import (build_flag, build_profile_inputs, build_root_system,
                     bundle_weight_vector, curvature_coeffs, kahler_class_vector,
                     kahler_coeffs, ke_coeffs, metric_index, parse_lie_type,
                     solve_profile)
from cscflag.rootsys import _cartan_and_lengths, _enumerate_positive_roots, _invert

LIE_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
             + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(3, 9)]
             + ["E6", "E7", "E8", "F4", "G2", "A2xA1", "B2xG2"])


@pytest.mark.parametrize("lie_type", LIE_TYPES)
def test_rewritten_layers_equal_their_references(lie_type):
    spec = parse_lie_type(lie_type)
    for family, rank in spec.factors:
        cartan, _ = _cartan_and_lengths(family, rank)
        assert _enumerate_positive_roots(cartan, rank) \
            == reference.positive_roots(cartan, rank)
    rs = build_root_system(spec)
    inverse = _invert(rs.cartan)
    assert inverse == reference.invert(rs.cartan)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
            for row in rs.cartan] == [[int(i == j) for j in range(rs.rank)]
                                      for i in range(rs.rank)]

    rng = random.Random(lie_type)
    middle = rs.rank // 2 + 1  # the node a maximal parabolic leaves out
    for pi_prime in ([], [i for i in range(1, rs.rank + 1) if i != middle]):
        fv = build_flag(rs, pi_prime)
        k = len(fv.s_star_indices)
        ke = reference.fraction_pairings(fv, fv.delta)
        assert ke_coeffs(fv) == ke
        generic = ([-rng.randint(1, 4) for _ in range(k)],
                   [Fraction(rng.randint(1, 7), rng.randint(1, 3)) for _ in range(k)])
        for lam, kappa in (([-1] * k, [1] * k), generic):
            curv = reference.fraction_pairings(fv, bundle_weight_vector(fv, lam))
            kah = reference.fraction_pairings(fv, kahler_class_vector(fv, kappa))
            assert (curvature_coeffs(fv, lam), kahler_coeffs(fv, kappa)) == (curv, kah)
            qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
            assert (qtilde, p) == reference.profile_inputs(curv, kah, ke)
            for c in (Fraction(-1), Fraction(3, 2)):
                assert solve_profile(qtilde, p, c).phi_poly \
                    == reference.solve_profile(qtilde, p, c)
            assert metric_index(fv, lam) == reference.metric_index(curv, ke)
