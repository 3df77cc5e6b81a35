import math
from fractions import Fraction

import pytest

from cscflag import (ConeAngleData, ConicalExpansion, GridOutOfInterval,
                     HyperbolicData, InvalidRange, NotSemiNegative, Polynomial,
                     StepTooLarge, WrongCase, asymptotics, build_flag, build_profile_inputs,
                     build_root_system, classify_behavior, cone_angle_data,
                     conical_expansion, fiber_maps, find_smooth_C,
                     hyperbolic_data, metric_index, momentum_interval,
                     numeric_oracle, parse_lie_type, solve_profile,
                     with_gram_scaled)

F = Fraction


def fv_of(text, pi_prime=()):
    return build_flag(build_root_system(parse_lie_type(text)), pi_prime)


def o_minus(k):
    """O(-k) over the projective line with kappa = omega."""
    return fv_of("A1"), [-k], [1]


class TestProfileInputs:
    def test_o1(self):
        fv, lam, kappa = o_minus(1)
        qtilde, p, n = build_profile_inputs(fv, lam, kappa)
        assert qtilde == Polynomial([1, 1])
        assert p == Polynomial([2])
        assert n == 2

    def test_a2_full_flag(self):
        qtilde, p, n = build_profile_inputs(fv_of("A2"), [-1, -1], [1, 1])
        assert qtilde == Polynomial([2, 6, 6, 2])  # 2(1+tau)^3
        assert p == Polynomial([12, 24, 12])  # 12(1+tau)^2
        assert n == 4

    def test_rejects_positive_direction(self):
        with pytest.raises(NotSemiNegative):
            build_profile_inputs(fv_of("A2"), [1, -1], [1, 1])

    def test_degrees(self):
        qtilde, p, n = build_profile_inputs(fv_of("A3", [1]), [-1, -2],
                                            [F(1, 2), 3])
        assert qtilde.degree == n - 1 and p.degree == n - 2


class TestSolveProfile:
    def test_burns(self):
        fv, lam, kappa = o_minus(1)
        profile = solve_profile(*build_profile_inputs(fv, lam, kappa)[:2], 0)
        assert profile.phi_poly == Polynomial([0, 1, 1])  # tau + tau^2
        # phi = (tau + tau^2)/(1 + tau) = tau
        assert profile.phi(F(5)) == 5

    def test_a2_scalar_flat(self):
        qtilde, p, _ = build_profile_inputs(fv_of("A2"), [-1, -1], [1, 1])
        profile = solve_profile(qtilde, p, 0)
        # Phi = (1+tau)^4 - 2 tau - 1
        assert profile.phi_poly == Polynomial([0, 2, 6, 4, 1])
        assert profile.phi(F(1)) == F(13, 16)

    def test_initial_conditions(self):
        qtilde, p, _ = build_profile_inputs(fv_of("B2", [2]), [-3], [F(5, 2)])
        profile = solve_profile(qtilde, p, F(-1, 2))
        assert profile.phi_poly(F(0)) == 0
        assert profile.phi_poly.derivative()(F(0)) == qtilde(F(0))

    def test_ode_residual(self):
        qtilde, p, _ = build_profile_inputs(fv_of("G2"), [-1, -2], [1, 1])
        for c in (F(0), F(3), F(-2), F(1, 2)):
            profile = solve_profile(qtilde, p, c)
            second = profile.phi_poly.derivative().derivative()
            assert (second + c * qtilde - p).is_zero()


class TestMomentumInterval:
    def test_infinite_for_nonpositive_c(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        for c in (0, -3):
            interval = momentum_interval(solve_profile(qtilde, p, c))
            assert not interval.finite

    def test_sqrt3_enclosure(self):
        profile = solve_profile(Polynomial([1, 1]), Polynomial([2]), 2)
        # Phi = tau - tau^3/3... only for (Qtilde, P) = (1+tau, 2), C=2:
        # Phi'' = 2 - 2(1+tau) = -2tau
        assert profile.phi_poly == Polynomial([0, 1, 0, F(-1, 3)])
        interval = momentum_interval(profile)
        assert interval.finite
        assert interval.hi - interval.lo <= F(1, 10 ** 12)
        root3 = 3 ** 0.5
        assert float(interval.lo) <= root3 <= float(interval.hi)

    def test_custom_width(self):
        profile = solve_profile(Polynomial([1, 1]), Polynomial([2]), 2)
        interval = momentum_interval(profile, width=F(1, 100))
        assert interval.hi - interval.lo <= F(1, 100)
        assert abs(float(interval.midpoint) - 3 ** 0.5) < 0.01


class TestMetricIndex:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_o_minus_k(self, k):
        fv, lam, kappa = o_minus(k)
        assert metric_index(fv, lam) == F(1, k)

    def test_a2_full_flag(self):
        assert metric_index(fv_of("A2"), [-1, -1]) == F(1, 2)

    def test_requires_strict_negativity(self):
        with pytest.raises(NotSemiNegative):
            metric_index(fv_of("A2"), [1, 1])
        with pytest.raises(ZeroDivisionError):
            metric_index(fv_of("A3", [1]), [-1, 0])

    def test_matches_leading_coefficient(self):
        for args in [o_minus(3), (fv_of("A2"), [-2, -1], [1, F(1, 2)])]:
            fv, lam, kappa = args
            qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
            profile = solve_profile(qtilde, p, 0)
            lead = profile.phi_poly.leading / qtilde.leading
            assert lead == metric_index(fv, lam)


class TestBehavior:
    def test_scalar_flat(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(2))
        report = classify_behavior(solve_profile(qtilde, p, 0))
        assert report.theorem_case == "scalar_flat"
        assert report.domain == "whole_bundle"
        assert report.metric_index == F(1, 2)
        assert report.cone_exponent == 1
        assert not report.interval.finite
        assert report.far_end.kind == "infinite"
        assert report.far_end.growth_degree == 1

    def test_negative_csc(self):
        qtilde, p, n = build_profile_inputs(*o_minus(1))
        report = classify_behavior(solve_profile(qtilde, p, -3))
        assert report.theorem_case == "negative_csc"
        assert report.domain == "disk_bundle"
        assert report.leading_coefficient == F(3, n * n + n)
        assert report.hyperbolic_rate == pytest.approx(
            math.sqrt(12 / (n * n + n)))
        assert report.far_end.t_range_finite

    def test_positive_csc(self):
        report = classify_behavior(
            solve_profile(Polynomial([1, 1]), Polynomial([2]), 2))
        assert report.theorem_case == "positive_csc"
        assert report.domain == "whole_bundle"
        assert report.cone_angle_factor == pytest.approx(
            2 / (1 + 3 ** 0.5), abs=1e-9)
        assert report.smooth_completion is False
        assert report.far_end.kind == "finite"

    def test_origin_normalization(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        report = classify_behavior(solve_profile(qtilde, p, 1))
        assert report.origin.zero_order == 1 and report.origin.slope == 1.0


class TestAsymptotics:
    def test_conical_terminating(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        data = conical_expansion(solve_profile(qtilde, p, 0))
        assert isinstance(data, ConicalExpansion)
        assert data.terminates and data.terms == ((1, F(1)),)
        assert data.tail_order is None
        assert data.improved_decay
        assert data.decay_order == -2 * 2 + 2

    def test_conical_with_tail(self):
        # O(-2) with kappa = 2 omega: phi = tau/2 + 1/2 - (1/2)/(1+tau)
        qtilde, p, _ = build_profile_inputs(fv_of("A1"), [-2], [2])
        data = conical_expansion(solve_profile(qtilde, p, 0))
        terms = dict(data.terms)
        assert terms[1] == F(1, 2) and terms[0] == F(1, 2)
        assert terms[-1] == F(-1, 2)
        assert data.tail_order == -1
        assert not data.terminates
        # n = 2: improved decay needs tail <= 0, so -1 qualifies
        assert data.improved_decay

    def test_conical_generic_decay(self):
        qtilde, p, _ = build_profile_inputs(fv_of("A2"), [-1, -2], [1, 1])
        data = conical_expansion(solve_profile(qtilde, p, 0))
        n = qtilde.degree + 1
        if data.tail_order is not None and data.tail_order > -(n - 2):
            assert data.decay_order == -2

    def test_hyperbolic(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        data = hyperbolic_data(solve_profile(qtilde, p, F(-1, 2)))
        assert isinstance(data, HyperbolicData)
        assert data.leading_coefficient == F(1, 12)
        assert data.rate == pytest.approx(math.sqrt(F(1, 3)))

    def test_cone_angle(self):
        data = cone_angle_data(
            solve_profile(Polynomial([1, 1]), Polynomial([2]), 2))
        assert isinstance(data, ConeAngleData)
        assert abs(float(data.b_lo) - 3 ** 0.5) < 1e-12
        assert data.angle_factor == pytest.approx(2 / (1 + 3 ** 0.5), abs=1e-9)
        assert data.smooth_completion is False

    def test_smooth_completion_exact_case(self):
        # Qtilde = 1, P = 0, C = 2: Phi = tau - tau^2, phi'(1) = -1 exactly
        profile = solve_profile(Polynomial([1]), Polynomial([0]), 2)
        data = cone_angle_data(profile)
        assert data.smooth_completion is True
        assert data.angle_factor == pytest.approx(1.0, abs=1e-12)

    def test_dispatch(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        assert isinstance(asymptotics(solve_profile(qtilde, p, 0)),
                          ConicalExpansion)
        assert isinstance(asymptotics(solve_profile(qtilde, p, -1)),
                          HyperbolicData)
        assert isinstance(asymptotics(solve_profile(qtilde, p, 1)),
                          ConeAngleData)

    def test_wrong_case(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        flat = solve_profile(qtilde, p, 0)
        with pytest.raises(WrongCase):
            hyperbolic_data(flat)
        with pytest.raises(WrongCase):
            cone_angle_data(flat)
        with pytest.raises(WrongCase):
            conical_expansion(solve_profile(qtilde, p, 1))


class TestFiberMaps:
    def test_burns_closed_forms(self):
        # phi = tau: t = log tau, s = sqrt(tau) - 1, f = tau - 1 (from tau0=1)
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        profile = solve_profile(qtilde, p, 0)
        rows = fiber_maps(profile, 1, [F(1, 2), 1, 2, 4])
        for row in rows:
            assert row.t == pytest.approx(math.log(row.tau), abs=1e-9)
            assert row.s == pytest.approx(math.sqrt(row.tau) - 1, abs=1e-9)
            assert row.f == pytest.approx(row.tau - 1, abs=1e-9)
            assert row.r == pytest.approx(math.sqrt(row.tau), abs=1e-9)
            assert row.phi == pytest.approx(row.tau, abs=1e-12)

    def test_anchor(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(2))
        rows = fiber_maps(solve_profile(qtilde, p, 0), 2, [2])
        assert rows[0].t == 0 and rows[0].s == 0 and rows[0].f == 0
        assert rows[0].r == 1

    def test_grid_validation(self):
        profile = solve_profile(Polynomial([1, 1]), Polynomial([2]), 2)
        with pytest.raises(GridOutOfInterval):
            fiber_maps(profile, 1, [10])  # beyond b = sqrt(3)
        with pytest.raises(GridOutOfInterval):
            fiber_maps(profile, 5, [1])  # tau0 outside
        with pytest.raises(GridOutOfInterval):
            fiber_maps(profile, 1, [0])  # boundary excluded


class TestNumericOracle:
    def test_burns_exact_family(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        taus, phis = numeric_oracle(qtilde, p, 0, 2, F(1, 100))
        assert taus[0] == 0 and phis[0] == 0
        for t, ph in zip(taus, phis):
            assert ph == pytest.approx(t, abs=1e-12)  # phi = tau

    def test_a2_sample(self):
        qtilde, p, _ = build_profile_inputs(fv_of("A2"), [-1, -1], [1, 1])
        taus, phis = numeric_oracle(qtilde, p, 0, 1, F(1, 1000))
        assert phis[-1] == pytest.approx(13 / 16, abs=1e-10)

    def test_agrees_with_closed_form(self):
        qtilde, p, _ = build_profile_inputs(fv_of("B2"), [-2, -1], [1, 2])
        c = F(-1, 2)
        profile = solve_profile(qtilde, p, c)
        taus, phis = numeric_oracle(qtilde, p, c, 5, F(1, 1000))
        dev = max(abs(ph - profile.phi.eval_float(t))
                  for t, ph in zip(taus, phis))
        assert dev < 1e-8

    def test_rejects_bad_step(self):
        qtilde, p, _ = build_profile_inputs(*o_minus(1))
        with pytest.raises(ValueError):
            numeric_oracle(qtilde, p, 0, 2, 0)

    @pytest.mark.parametrize("lie_type,pi_prime,lam,kappa,c,tau_max,step", [
        ("A2", (), [-1, -1], [1, 1], 0, 1, F(1, 1000)),
        ("A2", (), [-1, -1], [1, 1], 0, 1, F(3, 1000)),
        ("B2", (), [-2, -1], [1, 2], F(-1, 2), 5, F(1, 1000)),
        ("B2", (), [-2, -1], [1, 2], F(-1, 2), 5, F(7, 1000)),
        ("G2", (1,), [-1], [1], 1, 10, F(1, 1000)),
        ("G2", (1,), [-1], [1], 1, F(29, 3), F(1, 300)),
    ])
    def test_matches_scalar_reference(self, lie_type, pi_prime, lam, kappa,
                                      c, tau_max, step):
        qtilde, p, _ = build_profile_inputs(fv_of(lie_type, pi_prime), lam,
                                            kappa)
        taus, phis = numeric_oracle(qtilde, p, c, tau_max, step)
        ref_taus, ref_phis = _reference_oracle(qtilde, p, c, tau_max, step)
        assert taus == ref_taus
        assert phis == ref_phis

    def test_coarse_step_on_high_degree_forcing_raises(self):
        qtilde, p = Polynomial([1]), Polynomial([0] * 8 + [1])  # u'' = tau^8
        with pytest.raises(StepTooLarge, match="exceeds .* at tau = 0"):
            numeric_oracle(qtilde, p, 0, 4, 2)
        taus, phis = numeric_oracle(qtilde, p, 0, 4, F(1, 100))
        assert phis[-1] == pytest.approx(4 + 4 ** 10 / 90, rel=1e-9)

    def test_bound_scales_with_the_state(self):
        # Scaling Q and P by 10^8 scales u and its step-doubling error
        # alike; an absolute bound of 1e-6 would reject the scaled system.
        scaled = Polynomial([10 ** 8]), Polynomial([0] * 8 + [10 ** 8])
        taus, phis = numeric_oracle(*scaled, 0, 4, F(1, 100))
        assert phis[-1] == pytest.approx(4 + 4 ** 10 / 90, rel=1e-9)


def _reference_oracle(qtilde, p, c, tau_max, step, error_bound=1e-6):
    """Scalar RK4 loop, one forcing evaluation per stage: the reference
    that numeric_oracle must reproduce float for float."""
    c = float(Fraction(c))
    tau_max = float(Fraction(tau_max))
    h = float(Fraction(step))

    def g(x):
        return p.eval_float(x) - c * qtilde.eval_float(x)

    def rk4_step(t, u, v, h):
        k1u, k1v = v, g(t)
        k2u, k2v = v + h / 2 * k1v, g(t + h / 2)
        k3u, k3v = v + h / 2 * k2v, g(t + h / 2)
        k4u, k4v = v + h * k3v, g(t + h)
        return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))

    steps = max(int(math.ceil(tau_max / h - 1e-12)), 1)
    h = tau_max / steps
    t, u, v = 0.0, 0.0, qtilde.eval_float(0.0)
    taus, phis = [0.0], [0.0]
    for _ in range(steps):
        u1, v1 = rk4_step(t, u, v, h)
        ua, va = rk4_step(t, u, v, h / 2)
        u2, v2 = rk4_step(t + h / 2, ua, va, h / 2)
        assert abs(u1 - u2) <= error_bound and abs(v1 - v2) <= error_bound
        t, u, v = t + h, u1, v1
        taus.append(t)
        phis.append(u / qtilde.eval_float(t))
    return taus, phis


class TestSmoothSearch:
    def test_o1_none(self):
        fv, lam, kappa = o_minus(1)
        result = find_smooth_C(fv, lam, kappa, F(1, 2), 6, samples=8)
        assert result.c_star is None
        assert len(result.samples) == 9

    def test_o2_none(self):
        fv, lam, kappa = o_minus(2)
        result = find_smooth_C(fv, lam, kappa, F(1, 2), 6, samples=8)
        assert result.c_star is None

    def test_invalid_range(self):
        fv, lam, kappa = o_minus(1)
        with pytest.raises(InvalidRange):
            find_smooth_C(fv, lam, kappa, 0, 1)
        with pytest.raises(InvalidRange):
            find_smooth_C(fv, lam, kappa, 2, 1)


class TestGramScaleInvariance:
    def test_profile_invariant(self):
        rs = build_root_system(parse_lie_type("A2"))
        base = build_flag(rs, [])
        scaled = build_flag(with_gram_scaled(rs, F(7, 3)), [])
        lam, kappa, c = [-1, -2], [1, F(3, 2)], F(1, 2)
        q1, p1, _ = build_profile_inputs(base, lam, kappa)
        q2, p2, _ = build_profile_inputs(scaled, lam, kappa)
        pr1 = solve_profile(q1, p1, c)
        pr2 = solve_profile(q2, p2, c)
        # phi is the same rational function even though Qtilde rescales
        assert pr1.phi_poly * q2 == pr2.phi_poly * q1
        assert momentum_interval(pr1) == momentum_interval(pr2)
        assert classify_behavior(pr1) == classify_behavior(pr2)
        assert metric_index(base, lam) == metric_index(scaled, lam)
