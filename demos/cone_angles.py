"""Positive target curvature: certified momentum interval and cone angle.

For (Qtilde, P, C) = (1 + tau, 2, 2) the interval endpoint is b = sqrt(3),
enclosed to width 1e-12 by Sturm-guided bisection, and phi'(b) =
-2/(1 + sqrt(3)), so the completion at the divisor has a cone angle.
A sweep over C with find_smooth_C shows no C > 0 removes the angle for
O(-1) over the projective line.
"""

from fractions import Fraction

from cscflag import (Polynomial, build_flag, build_root_system,
                     classify_behavior, find_smooth_C, parse_lie_type,
                     solve_profile)

profile = solve_profile(Polynomial([1, 1]), Polynomial([2]), 2)
report = classify_behavior(profile)
b = report.interval
print(f"b enclosed in [{float(b.lo):.15f}, {float(b.hi):.15f}]")
print(f"phi'(b) = {-report.cone_angle_factor:.12f}  (exact target: -2/(1+sqrt(3)))")
print(f"smooth completion: {report.smooth_completion}")

fv = build_flag(build_root_system(parse_lie_type("A1")), [])
result = find_smooth_C(fv, [-1], [1], Fraction(1, 10), 20, samples=10)
print(f"\nsmooth-completion search over C in (1/10, 20): {result.c_star}")
for c, g in result.samples:
    print(f"  C = {str(c):>6}: phi'(b) + 1 = {g:+.6f}")
