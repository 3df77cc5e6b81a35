"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured quantity.

Criteria 5-9 run over the shared randomized suite of admissible
instances (seeded; Lie types A1/A2/A3/B2/G2, random parabolic subset,
strictly negative weight, positive rational class, mixed-sign target
curvature). The RK4 oracle criterion uses a deterministic subsample of
that suite to stay within the per-item time budget; the exactness and
convergence assertions are unchanged.
"""

import json
import math
from fractions import Fraction

import pytest

from cscflag import (build_flag, build_root_system, build_profile_inputs,
                     classify_behavior, classify_invariant_fields,
                     find_smooth_C, metric_index,
                     momentum_interval, numeric_oracle, parse_lie_type,
                     solve_profile, with_gram_scaled)
from cscflag.cli import emit, main, parse_config, run
from cscflag.poly import Polynomial, count_roots, root_upper_bound

F = Fraction


def fv_of(text, pi_prime=()):
    return build_flag(build_root_system(parse_lie_type(text)), pi_prime)


def test_01_golden_invariant_field_tables():
    fv3 = fv_of("A2")
    checked = 0
    for p in range(-5, 6):
        for q in range(-5, 6):
            if (p, q) == (0, 0):
                continue
            cls = classify_invariant_fields(fv3, [p, q])
            if p == -2 * q:
                assert cls.case == "B" and cls.distinguished_root == (1, 0)
            elif p == q:
                assert cls.case == "B" and cls.distinguished_root == (1, 1)
            elif 2 * p == -q:
                assert cls.case == "B" and cls.distinguished_root == (0, 1)
            else:
                assert cls.case == "A" and cls.dimension == 1
            checked += 1
    fv4 = fv_of("A3", [1])
    for n in range(-5, 6):
        for m in range(-5, 6):
            if (n, m) == (0, 0):
                continue
            cls = classify_invariant_fields(fv4, [n, m])
            if m == -2 * n:
                assert cls.case == "B"
                assert cls.distinguished_root == (0, 0, 1)
            else:
                assert cls.case == "A" and cls.dimension == 1
            checked += 1
    print(f"PASS criterion 1: golden tables ({checked} weight pairs)")


def test_02_burns_profile():
    fv = fv_of("A1")
    qtilde, p, _ = build_profile_inputs(fv, [-1], [1])
    profile = solve_profile(qtilde, p, 0)
    # phi = (tau + tau^2)/(1 + tau) = tau as an exact identity
    assert profile.phi_poly == Polynomial([0, 1]) * qtilde
    assert metric_index(fv, [-1]) == 1
    print("PASS criterion 2: Burns profile phi(tau) = tau, index 1")


def test_03_o_minus_n_index_family():
    for k in range(1, 6):
        fv = fv_of("A1")
        idx = metric_index(fv, [-k])
        assert idx == F(1, k)
        qtilde, p, _ = build_profile_inputs(fv, [-k], [1])
        profile = solve_profile(qtilde, p, 0)
        assert profile.phi_poly.leading / qtilde.leading == idx
    print("PASS criterion 3: O(-n) metric index 1/n = leading coeff, n=1..5")


def test_04_su3_full_flag_profile():
    qtilde, p, _ = build_profile_inputs(fv_of("A2"), [-1, -1], [1, 1])
    profile = solve_profile(qtilde, p, 0)
    expansion = Polynomial([1, 1]) * Polynomial([1, 1])
    quartic = expansion * expansion - Polynomial([1, 2])  # (1+t)^4 - 2t - 1
    assert 2 * profile.phi_poly == 2 * quartic
    assert profile.phi_poly == quartic
    assert profile.phi(F(1)) == F(13, 16)
    print("PASS criterion 4: Phi = (1+tau)^4 - 2tau - 1, phi(1) = 13/16")


def test_05_ode_residual(random_suite):
    assert len(random_suite) >= 100
    for fv, lam, kappa, c in random_suite:
        qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
        profile = solve_profile(qtilde, p, c)
        residual = profile.phi_poly.derivative().derivative() \
            + c * qtilde - p
        assert residual.is_zero()
    print(f"PASS criterion 5: exact ODE residual on {len(random_suite)} "
          "instances")


def test_06_initial_conditions_and_degrees(random_suite):
    for fv, lam, kappa, c in random_suite:
        qtilde, p, n = build_profile_inputs(fv, lam, kappa)
        profile = solve_profile(qtilde, p, c)
        assert profile.phi_poly(F(0)) == 0  # phi(0) = 0
        assert profile.phi.derivative_at(F(0)) == 1  # phi'(0) = 1
        assert qtilde.degree == n - 1
        assert p.degree == n - 2
        assert profile.phi_poly.degree == (n if c == 0 else n + 1)
    print(f"PASS criterion 6: initial conditions and degree laws on "
          f"{len(random_suite)} instances")


def test_07_positive_root_counts(random_suite):
    positives = 0
    for fv, lam, kappa, c in random_suite:
        qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
        for cc in {c, F(2)}:
            if cc <= 0:
                continue
            profile = solve_profile(qtilde, p, cc)
            phi_poly = profile.phi_poly
            bound = root_upper_bound(phi_poly)
            assert count_roots(phi_poly, F(0), bound) == 1
            dbound = root_upper_bound(phi_poly.derivative())
            assert count_roots(phi_poly.derivative(), F(0), dbound) == 1
            positives += 1
    assert positives >= 100
    print(f"PASS criterion 7: unique positive root of Phi and Phi' in "
          f"{positives} C>0 profiles")


def test_08_negative_c_leading_term(random_suite):
    negatives = 0
    for fv, lam, kappa, c in random_suite:
        qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
        for cc in {c, F(-3)}:
            if cc >= 0:
                continue
            profile = solve_profile(qtilde, p, cc)
            n = profile.n
            lead = profile.phi_poly.leading / qtilde.leading
            assert lead == -cc / (n * n + n)
            report = classify_behavior(profile)
            assert report.leading_coefficient == lead
            negatives += 1
    assert negatives >= 100
    print(f"PASS criterion 8: phi leading coefficient -C/(n^2+n) exact in "
          f"{negatives} C<0 profiles")


def _oracle_deviation(qtilde, p, c, tau_max, step, error_bound=1e-3):
    profile = solve_profile(qtilde, p, c)
    phi = profile.phi
    taus, phis = numeric_oracle(qtilde, p, c, tau_max, step,
                                error_bound=error_bound)
    return max(abs(ph - phi.eval_float(t)) for t, ph in zip(taus, phis))


def test_09_numeric_oracle(random_suite):
    subsample = random_suite[::15]
    assert len(subsample) >= 8
    worst = 0.0
    checked_ratio = 0
    for fv, lam, kappa, c in subsample:
        qtilde, p, _ = build_profile_inputs(fv, lam, kappa)
        profile = solve_profile(qtilde, p, c)
        interval = momentum_interval(profile)
        if interval.finite:
            tau_max = min(interval.lo * F(9, 10), F(10))
        else:
            tau_max = F(10)
        dev = _oracle_deviation(qtilde, p, c, tau_max, F(1, 1000))
        worst = max(worst, dev)
        assert dev <= 1e-8
        # The Simpson-type RK4 quadrature is exact for forcing degree <= 3
        # and at step 1e-3 its truncation error sits below binary64
        # roundoff, so the order-4 halving ratio is measured at the
        # coarsest step whose deviation clears the roundoff floor.
        for base in (F(1, 10), F(1, 40), F(1, 160)):
            dev_base = _oracle_deviation(qtilde, p, c, tau_max, base,
                                         error_bound=1e9)
            if dev_base > 1e-10:
                dev_half = _oracle_deviation(qtilde, p, c, tau_max, base / 2,
                                             error_bound=1e9)
                assert dev_half <= dev_base / 8
                checked_ratio += 1
                break
    print(f"PASS criterion 9: RK4 oracle worst deviation {worst:.3e} on "
          f"{len(subsample)} instances; order-4 halving on {checked_ratio}")


def test_10_cone_data():
    profile = solve_profile(Polynomial([1, 1]), Polynomial([2]), 2)
    data = classify_behavior(profile)
    b = data.interval
    root3 = math.sqrt(3.0)
    assert b.hi - b.lo <= F(1, 10 ** 12)
    assert float(b.lo) - 1e-12 <= root3 <= float(b.hi) + 1e-12
    assert abs(float(b.lo) - root3) < 1e-12
    slope_target = -2 / (1 + root3)
    assert abs(-data.cone_angle_factor - slope_target) < 1e-9
    assert data.smooth_completion is False
    print(f"PASS criterion 10: b in [{float(b.lo):.15f}, "
          f"{float(b.hi):.15f}], phi'(b) = {-data.cone_angle_factor:.12f}")


def test_11_smoothness_elimination():
    for k in (1, 2):
        result = find_smooth_C(fv_of("A1"), [-k], [1], F(1, 10), F(20))
        assert result.c_star is None
        assert all(g != 0 for _, g in result.samples)
    print("PASS criterion 11: no smooth-completion C for O(-1), O(-2)")


def test_12_gram_scale_invariance():
    rs = build_root_system(parse_lie_type("A2"))
    lam, kappa = [-1, -2], [1, F(3, 2)]
    base = build_flag(rs, [])
    q1, p1, _ = build_profile_inputs(base, lam, kappa)
    for scale in (F(2), F(3), F(1, 5)):
        scaled = build_flag(with_gram_scaled(rs, scale), [])
        q2, p2, _ = build_profile_inputs(scaled, lam, kappa)
        for c in (F(0), F(2), F(-1)):
            pr1, pr2 = solve_profile(q1, p1, c), solve_profile(q2, p2, c)
            assert pr1.phi_poly * q2 == pr2.phi_poly * q1  # same phi
            assert momentum_interval(pr1) == momentum_interval(pr2)
            assert classify_behavior(pr1) == classify_behavior(pr2)
        assert metric_index(base, lam) == metric_index(scaled, lam)
    print("PASS criterion 12: phi, interval, index, behavior invariant "
          "under gram scaling by 2, 3, 1/5")


def test_13_determinism(tmp_path):
    job = {"lie_type": "A2", "pi_prime": [], "lambda": [-1, -1],
           "kappa": [1, 1], "scalar_curvature": "1/2",
           "options": {"emit_samples": True, "sample_count": 6}}
    spec = parse_config(json.dumps(job))[0][0]
    assert emit(run(spec)) == emit(run(spec))

    batch = [dict(job, scalar_curvature=s) for s in ("0", "1/2", "-2", "3")]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
    assert main([str(path), "--out", str(serial)]) == 0
    assert main([str(path), "--jobs", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert len(json.loads(serial.read_text())) == 4
    print("PASS criterion 13: byte-identical reruns; --jobs 4 == serial")
