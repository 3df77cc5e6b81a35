"""Momentum construction: closed-form solution of the prescribed constant
scalar curvature ODE (phi*Q)'' + C*Q = P on a negative line bundle,
certified momentum interval, behavior classification and asymptotic data.

All profile data is exact (Fraction coefficients). The unknown is stored
as Phi = phi * Qtilde, a polynomial; phi itself is a rational function.
Numeric output (Gauss-Legendre fiber maps, the RK4 oracle) is binary64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import poly
from .errors import (GridOutOfInterval, InternalInconsistency, InvalidRange,
                     NotSemiNegative, StepTooLarge, WrongCase)
from .flag import (FlagVariety, _pairings, bundle_weight_vector,
                   kahler_class_vector)
from .poly import Polynomial, RationalFunction

DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 10 ** 12)
FIBER_MAX_NODES = 256  # Gauss-Legendre nodes per gap in fiber_maps; graded
# gaps converge by 32, and leggauss(m) costs O(m**3)


@dataclass(frozen=True)
class MomentumProfile:
    n: int  # complex dimension of the line bundle total space
    qtilde: Polynomial
    p: Polynomial
    c: Fraction  # target constant scalar curvature
    phi_poly: Polynomial  # Phi = phi * qtilde

    @property
    def phi(self) -> RationalFunction:
        return RationalFunction(self.phi_poly, self.qtilde)


@dataclass(frozen=True)
class Interval:
    """Momentum interval [0, b); either b = +inf or a rational enclosure."""
    # the field order is the key order of the report's "interval"
    finite: bool
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _negative_curvature(fv: FlagVariety, lam: Sequence) -> tuple[list[int], int]:
    """Numerators of (lambda, alpha) for alpha in D+ over their common
    denominator, each checked to be negative."""
    nums, den = _pairings(fv, bundle_weight_vector(fv, lam))
    for root, v in zip(fv.d_plus, nums):
        if v >= 0:
            raise NotSemiNegative(
                f"(lambda, alpha) = {Fraction(v, den)} >= 0 for alpha = "
                f"{list(root)}; the momentum construction needs a strictly "
                "negative weight")
    return nums, den


def build_profile_inputs(fv: FlagVariety, lam: Sequence, kappa: Sequence
                         ) -> tuple[Polynomial, Polynomial, int]:
    """Exact Qtilde and P for the curvature ODE, plus n = dim_C L.
    Raises NotSemiNegative unless lambda is strictly negative.

    Qtilde = prod over D+ of the factors kappa_alpha - lambda_alpha*tau and
    P = sum (alpha, delta) * Qtilde / factor. With the pairings as integer
    numerators over common denominators (kd for kappa, cd for lambda, ed
    for delta), each factor is g_alpha/(kd*cd) * (A + B*tau) with coprime
    positive integers A, B; the roots of one pair (A, B) form a group g of
    m_g roots. The integer product prod (A_g + B_g*tau)^m_g is one big
    integer, its value at tau = 2^k (Kronecker substitution): its
    coefficients are nonnegative and sum to prod (A_g + B_g)^m_g < 2^k, so
    they unpack with no carries. Each quotient by A_g + B_g*tau comes from
    exact integer synthetic division and enters P with the integer weight
    w_g, the sum over the group of e_alpha * G/g_alpha, where e_alpha is the
    numerator of (alpha, delta) and G = lcm g_alpha."""
    curv, cd = _negative_curvature(fv, lam)
    kah, kd = _pairings(fv, kahler_class_vector(fv, kappa))
    ke, ed = _pairings(fv, fv.delta)
    pairs = []
    for k, c in zip(kah, curv):
        big_a, big_b = k * cd, -c * kd
        g = math.gcd(big_a, big_b)
        pairs.append((g, big_a // g, big_b // g))
    big_g = math.lcm(*(g for g, _, _ in pairs))
    groups: dict[tuple[int, int], list[int]] = {}  # (A, B) -> [m_g, w_g]
    for (g, big_a, big_b), e in zip(pairs, ke):
        group = groups.setdefault((big_a, big_b), [0, 0])
        group[0] += 1
        group[1] += e * (big_g // g)
    bound = math.prod((a + b) ** m for (a, b), (m, _) in groups.items())
    shift = bound.bit_length()
    packed = math.prod((a + (b << shift)) ** m
                       for (a, b), (m, _) in groups.items())
    d = fv.dim_X
    q = [packed >> (shift * i) & ((1 << shift) - 1) for i in range(d + 1)]
    p = [0] * d
    for (a, b), (_, weight) in groups.items():
        s = 0
        for i in range(d, 0, -1):
            s = (q[i] - a * s) // b  # coefficient i - 1 of q / (a + b*tau)
            p[i - 1] += weight * s
    # Qtilde = content * q, P = content * (kd*cd) / (ed*G) * p
    content = Fraction(math.prod(g for g, _, _ in pairs), (kd * cd) ** d)
    num, den = content.numerator, content.denominator
    p_num, p_den = num * kd * cd, den * ed * big_g
    return (Polynomial([Fraction(num * x, den) for x in q]),
            Polynomial([Fraction(p_num * x, p_den) for x in p]), d + 1)


def solve_profile(qtilde: Polynomial, p: Polynomial, c) -> MomentumProfile:
    """Integrate Phi'' = P - C*Qtilde twice with Phi(0) = 0,
    Phi'(0) = Qtilde(0); equivalent to phi(0) = 0, phi'(0) = 1."""
    c = Fraction(c)
    q, pc = qtilde.coeffs, p.coeffs
    # over one denominator: Phi_{i+2} = (cd*P_i - cn*Q_i)/(cd*den*(i+1)*(i+2))
    den = math.lcm(*(x.denominator for x in q + pc))
    q_int, p_int = ([x.numerator * (den // x.denominator) for x in f] for f in (q, pc))
    second = [c.denominator * y - c.numerator * x
              for x, y in itertools.zip_longest(q_int, p_int, fillvalue=0)]
    den *= c.denominator
    phi = [0, q[0] if q else 0]
    phi += [Fraction(x, den * (i + 1) * (i + 2)) for i, x in enumerate(second)]
    phi_poly = Polynomial(phi)
    return MomentumProfile(n=qtilde.degree + 1, qtilde=qtilde, p=p, c=c,
                           phi_poly=phi_poly)


def momentum_interval(profile: MomentumProfile,
                      width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> Interval:
    """[0, b): b = +inf for C <= 0, else the unique positive root of Phi,
    enclosed by Sturm-guided bisection to the requested width."""
    phi_poly = profile.phi_poly
    if profile.c <= 0:
        # Phi'' = P - C*Qtilde and Phi'(0) = Qtilde(0) > 0: with no negative
        # coefficient, Phi > 0 on (0, inf)
        if phi_poly.is_zero() or any(x.numerator < 0 for x in phi_poly.coeffs):
            raise InternalInconsistency(
                f"Phi is zero or has a negative coefficient at C = {profile.c}, "
                "so Phi > 0 on (0, inf) is not certified")
        return Interval(finite=False)
    bound = poly.root_upper_bound(phi_poly)
    seq = poly.sturm_sequence(phi_poly)
    count = poly.count_roots(phi_poly, Fraction(0), bound, seq)
    if count != 1:
        raise InternalInconsistency(
            f"expected exactly one positive root of Phi, Sturm count = {count}")
    lo, hi = poly.isolate_unique_root(phi_poly, Fraction(0), bound, width, seq)
    return Interval(finite=True, lo=lo, hi=hi)


@dataclass(frozen=True)
class EndpointRow:
    # the field order is the key order of the report's behavior endpoints
    kind: str  # "finite" or "infinite"
    zero_order: Optional[int] = None  # vanishing order of phi (finite ends)
    slope: Optional[float] = None  # phi' at a finite end
    growth_degree: Optional[int] = None  # infinite ends
    t_range_finite: Optional[bool] = None  # is the fiber log-coordinate bounded
    distance_finite: Optional[bool] = None


@dataclass(frozen=True)
class BehaviorReport:
    """Classification of a profile with the data of its case; the single
    source of the hyperbolic (C < 0) and cone-angle (C > 0) asymptotics."""
    # the field order, less interval, is the key order of the report's "behavior"
    theorem_case: str  # "scalar_flat" | "negative_csc" | "positive_csc"
    domain: str  # "whole_bundle" | "disk_bundle"
    interval: Interval
    origin: EndpointRow
    far_end: EndpointRow
    metric_index: Optional[Fraction] = None
    cone_exponent: Optional[Fraction] = None  # 2 * metric index (C = 0)
    hyperbolic_rate: Optional[float] = None  # alpha_{n,C} (C < 0)
    leading_coefficient: Optional[Fraction] = None  # of phi at infinity
    cone_angle_factor: Optional[float] = None  # a = -phi'(b) (C > 0)
    smooth_completion: Optional[bool] = None  # phi'(b) == -1 exactly (C > 0)


def _phi_prime_at_b_is_minus_one(profile: MomentumProfile, interval: Interval) -> bool:
    """Exact test for phi'(b) = -1 at the root b of Phi.

    Since Phi(b) = 0 and Qtilde(b) > 0, phi'(b) = Phi'(b)/Qtilde(b), so the
    condition is that Phi and Phi' + Qtilde share the root b."""
    h = profile.phi_poly.derivative() + profile.qtilde
    g = poly.gcd(profile.phi_poly, h)
    if g.degree < 1:
        return False
    return poly.count_roots(g, interval.lo, interval.hi) == 1


def metric_index(fv: FlagVariety, lam: Sequence) -> Fraction:
    """i = (1/((n-1)n)) * sum (alpha, delta)/(alpha, -lambda); the leading
    coefficient of the scalar-flat profile. Raises NotSemiNegative unless
    lambda is strictly negative."""
    curv, cd = _negative_curvature(fv, lam)
    ke, ed = _pairings(fv, fv.delta)
    big_l = math.lcm(*curv)
    total = sum(e * (big_l // -c) for e, c in zip(ke, curv))
    n = fv.dim_X + 1
    return Fraction(cd * total, ed * big_l * (n - 1) * n)


def classify_behavior(profile: MomentumProfile,
                      width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> BehaviorReport:
    interval = momentum_interval(profile, width)
    n = profile.n
    origin = EndpointRow(kind="finite", zero_order=1, slope=1.0,
                         t_range_finite=False, distance_finite=True)
    if profile.c == 0:
        growth = profile.phi_poly.degree - profile.qtilde.degree
        lead = profile.phi_poly.leading / profile.qtilde.leading
        far = EndpointRow(kind="infinite", growth_degree=growth,
                          t_range_finite=False, distance_finite=False)
        return BehaviorReport(
            theorem_case="scalar_flat", domain="whole_bundle",
            interval=interval, origin=origin, far_end=far,
            metric_index=lead, cone_exponent=2 * lead,
            leading_coefficient=lead)
    if profile.c < 0:
        lead = -profile.c / (n * n + n)
        far = EndpointRow(kind="infinite", growth_degree=2,
                          t_range_finite=True, distance_finite=False)
        return BehaviorReport(
            theorem_case="negative_csc", domain="disk_bundle",
            interval=interval, origin=origin, far_end=far,
            hyperbolic_rate=math.sqrt(float(4 * lead)),
            leading_coefficient=lead)
    b = interval.midpoint
    slope = (profile.phi_poly.derivative()(b) / profile.qtilde(b))
    smooth = _phi_prime_at_b_is_minus_one(profile, interval)
    far = EndpointRow(kind="finite", zero_order=1, slope=float(slope),
                      t_range_finite=True, distance_finite=True)
    return BehaviorReport(
        theorem_case="positive_csc", domain="whole_bundle",
        interval=interval, origin=origin, far_end=far,
        cone_angle_factor=float(-slope), smooth_completion=smooth)


@dataclass(frozen=True)
class ConicalExpansion:
    """C = 0 asymptotics: exact Laurent data of phi at infinity."""
    # the field order is the key order of the report's C = 0 "asymptotics",
    # after "case", with terms written as "laurent"
    terms: tuple[tuple[int, Fraction], ...]
    terminates: bool
    leading_coefficient: Fraction
    cone_exponent: Fraction  # 2 * leading coefficient (= 2 * metric index)
    tail_order: Optional[int]  # first exponent <= -1 with nonzero coefficient
    improved_decay: bool
    decay_order: int  # -2 generically, -2n+2 in the improved case


def conical_expansion(profile: MomentumProfile, order: int = 8) -> ConicalExpansion:
    if profile.c != 0:
        raise WrongCase("conical expansion only applies to scalar-flat profiles")
    terms, terminates = profile.phi.laurent_at_infinity(order)
    lead = profile.phi_poly.leading / profile.qtilde.leading
    tail = next((e for e, _ in terms if e <= -1), None)
    n = profile.n
    improved = tail is None or tail <= -(n - 2)
    return ConicalExpansion(
        terms=tuple(terms), terminates=terminates, leading_coefficient=lead,
        cone_exponent=2 * lead, tail_order=tail, improved_decay=improved,
        decay_order=(-2 * n + 2) if improved else -2)


def asymptotics(profile: MomentumProfile, order: int = 8,
                width: Fraction = DEFAULT_ENCLOSURE_WIDTH):
    """Case-appropriate asymptotic data: the conical expansion when C = 0,
    else the BehaviorReport, which carries the hyperbolic rate and leading
    coefficient (C < 0) or the b enclosure, cone-angle factor and smooth
    completion flag (C > 0)."""
    if profile.c == 0:
        return conical_expansion(profile, order)
    return classify_behavior(profile, width)


@dataclass(frozen=True)
class FiberSample:
    # the field order is the key order of a report sample and the CSV columns
    tau: float
    phi: float
    t: float  # log fiber norm coordinate, anchored t(tau0) = 0
    s: float  # fiberwise distance, anchored s(tau0) = 0
    f: float  # Kahler potential along the fiber, anchored at tau0
    r: float  # fiber radius exp(t/2)


def _graded(points: np.ndarray, b: float) -> np.ndarray:
    """Sorted ``points`` plus breakpoints graded geometrically toward the
    integrands' singularities at 0 and at b (math.inf when C <= 0): every
    gap [a, c] ends with c <= 2a and b - a <= 2(b - c), so no gap is longer
    than its distance to either and Gauss-Legendre converges as fast on
    each. Grids that already have these ratios gain no point."""
    cuts = []
    for a, c in zip(points[:-1].tolist(), points[1:].tolist()):
        x, d = 2 * a, (b - a) / 2
        while x < c:
            cuts.append(x)
            x *= 2
        while b < math.inf and b - d < c:
            cuts.append(b - d)
            d /= 2
    return np.union1d(points, cuts)


def fiber_maps(profile: MomentumProfile, interval: Interval, tau0,
               grid: Sequence, rel_tol: float = 1e-10) -> list[FiberSample]:
    """Fiber data t = int dx/phi, s = int dx/(2 sqrt(phi)), f = int x dx/phi
    from tau0, on the profile's certified ``interval``. The integrands are
    positive and analytic on every gap between the sorted points (Phi has no
    root in (0, b)), which are graded toward the singularities at 0 and b:
    Gauss-Legendre sums over all gaps at once, with nodes doubled from 16
    until successive sums agree to rel_tol, accumulate outward from tau0,
    where t = s = f = +0.0."""
    hi = math.inf if not interval.finite else float(interval.lo)
    xs = [float(Fraction(tau)) for tau in grid]
    x0 = float(Fraction(tau0))
    for tau, x in zip([tau0, *grid], [x0, *xs]):
        if not 0 < x < hi:
            raise GridOutOfInterval(f"point {tau} outside the interval interior")
    phi = profile.phi
    points = _graded(np.unique(xs + [x0]), hi)
    center = (points[1:] + points[:-1])[:, None] / 2
    half = np.diff(points)[:, None] / 2
    m, sums = 16, None
    # a sum that is not finite never converges, and fails below without a warning
    with np.errstate(all="ignore"):
        while True:
            nodes, weights = np.polynomial.legendre.leggauss(m)
            u, w = center + half * nodes, half * weights
            v = phi.eval_float(u)
            previous, sums = sums, np.stack(
                [w / v, w / (2 * np.sqrt(v)), w * u / v]).sum(axis=2)
            if m > 16 and (close := np.abs(sums - previous) < rel_tol * sums).all():
                break
            if m >= FIBER_MAX_NODES:
                gap = int(np.argmin(close.all(axis=0)))
                raise StepTooLarge(f"fiber-map quadrature misses rel_tol {rel_tol:.3e} with "
                                   f"{m} nodes on [{points[gap]:.17g}, {points[gap + 1]:.17g}]")
            m *= 2
    k = int(np.searchsorted(points, x0))
    below = -np.cumsum(sums[:, :k][:, ::-1], axis=1)[:, ::-1]
    tsf = np.hstack([below, np.zeros((3, 1)), np.cumsum(sums[:, k:], axis=1)])
    rows = tsf[:, np.searchsorted(points, xs)].T.tolist()
    return [FiberSample(tau=x, phi=phi.eval_float(x), t=t, s=s, f=f,
                        r=math.exp(t / 2)) for x, (t, s, f) in zip(xs, rows)]


ORACLE_MAX_STEPS = 10 ** 6  # the oracle holds about 25 arrays of this length


def oracle_steps(tau_max, step) -> int:
    """Number of RK4 steps numeric_oracle takes on [0, tau_max]."""
    return max(int(math.ceil(float(Fraction(tau_max)) / float(Fraction(step))
                             - 1e-12)), 1)


def _rk4_step(u, v, h: float, g0, g_mid, g1):
    # g0, g_mid, g1: forcing at t, t + h/2 and t + h
    k1u, k1v = v, g0
    k2u, k2v = v + h / 2 * k1v, g_mid
    k3u, k3v = v + h / 2 * k2v, g_mid
    k4u, k4v = v + h * k3v, g1
    return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))


def numeric_oracle(qtilde: Polynomial, p: Polynomial, c, tau_max, step,
                   error_bound: float = 1e-6) -> tuple[list[float], list[float]]:
    """Independent check of solve_profile: classical RK4 on u'' = P - C*Q
    with u(0) = 0, u'(0) = Q(0), in binary64; returns (taus, phi samples).

    The local error per step is estimated by step doubling on u and u';
    if it exceeds error_bound * max(1, |u|, |u'|), or the state (u, u')
    is not finite, StepTooLarge is raised at the first such step. The bound
    is relative because u = Phi grows like tau**(n+1). StepTooLarge is
    raised before any step, naming the polynomial, when a coefficient of Q
    or P is beyond binary64.

    The forcing g = P - C*Q does not depend on u, so every stage of u' is
    known up front and the recurrence runs as prefix sums over whole
    arrays: u' is the running sum of its increments, then u the running
    sum of its own. np.add.accumulate adds left to right, and each
    increment keeps a step's operation order, so every float, and the
    first failing step, is the one a step-by-step loop gives."""
    c = float(Fraction(c))
    tau_max = float(Fraction(tau_max))
    h = float(Fraction(step))
    if h <= 0 or tau_max <= 0:
        raise ValueError("step and tau_max must be positive")
    for name, f in (("Qtilde", qtilde), ("P", p)):
        try:
            [float(x) for x in f.coeffs]
        except OverflowError:
            raise StepTooLarge(f"a coefficient of {name} is beyond binary64, "
                               "so the oracle cannot evaluate it") from None

    def g(x: np.ndarray) -> np.ndarray:
        return p.eval_float(x) - c * qtilde.eval_float(x)

    steps = oracle_steps(tau_max, h)
    h = tau_max / steps
    grid = np.add.accumulate(np.r_[0.0, np.full(steps, h)])
    t = grid[:-1]
    mid = t + h / 2
    with np.errstate(all="ignore"):
        # t + h is exactly the next grid point, so the full step's end reuses it
        g_grid = g(grid)
        g_t, g_end = g_grid[:-1], g_grid[1:]
        g_mid, g_q1 = g(mid), g(t + h / 4)
        g_q3, g_mid_end = g(mid + h / 4), g(mid + h / 2)
        # a step's increments in its own operation order (2g + 2g, not 4g)
        dv = h / 6 * (g_t + 2 * g_mid + 2 * g_mid + g_end)
        v = np.add.accumulate(np.r_[qtilde.eval_float(0.0), dv])
        v0 = v[:-1]  # u' at the start of each step
        du = h / 6 * (v0 + 2 * (v0 + h / 2 * g_t) + 2 * (v0 + h / 2 * g_mid)
                      + (v0 + h * g_mid))
        u = np.add.accumulate(np.r_[0.0, du])
        u1, v1 = u[1:], v[1:]
        ua, va = _rk4_step(u[:-1], v0, h / 2, g_t, g_q1, g_mid)
        u2, v2 = _rk4_step(ua, va, h / 2, g_mid, g_q3, g_mid_end)
        # fmax, like max(), passes over NaN, and NaN compares false
        bound = error_bound * np.fmax(np.fmax(1.0, np.abs(u1)), np.abs(v1))
        bad = (np.abs(u1 - u2) > bound) | (np.abs(v1 - v2) > bound)
        phis = np.r_[0.0, u1 / qtilde.eval_float(grid[1:])]
    # the prefix sums carry inf and NaN forward, so only a run whose last
    # state is not finite looks for the first such state
    lost = (np.zeros_like(bad) if math.isfinite(u[-1]) and math.isfinite(v[-1])
            else ~(np.isfinite(u1) & np.isfinite(v1)))
    if (bad | lost).any():
        i = int((bad | lost).argmax())
        if not bad[i]:
            raise StepTooLarge(f"the state (u, u') is not finite at tau = "
                               f"{grid[i + 1].item():.6g}")
        err = max(abs(u1[i] - u2[i]), abs(v1[i] - v2[i])).item()
        raise StepTooLarge(f"local error estimate {err:.3e} exceeds "
                           f"{bound[i].item():.3e} at tau = {grid[i].item():.6g}")
    return grid.tolist(), phis.tolist()


@dataclass(frozen=True)
class SmoothSearchResult:
    # the field order is the key order of the report's "smooth_c_search"
    c_star: Optional[Fraction]
    samples: tuple[tuple[Fraction, float], ...]  # (C, phi'(b(C)) + 1)


def find_smooth_C(fv: FlagVariety, lam: Sequence, kappa: Sequence,
                  c_lo, c_hi, samples: int = 16, tol: float = 1e-9,
                  width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> SmoothSearchResult:
    """Search C > 0 with phi'(b(C)) = -1 (smooth completion at infinity).

    Samples g(C) = phi'(b(C)) + 1 on the range; if a sign change is
    bracketed, refine by bisection, else report None with the samples.
    Monotonicity of g is not assumed; only bracketed sign changes count."""
    c_lo, c_hi = Fraction(c_lo), Fraction(c_hi)
    if c_lo <= 0 or c_hi <= c_lo:
        raise InvalidRange("need 0 < c_lo < c_hi")
    if samples < 1:
        raise InvalidRange("need at least 1 sample")
    qtilde, p, _ = build_profile_inputs(fv, lam, kappa)

    def g(c: Fraction) -> float:
        behavior = classify_behavior(solve_profile(qtilde, p, c), width)
        return 1.0 - behavior.cone_angle_factor  # phi'(b) + 1

    grid = [c_lo + (c_hi - c_lo) * k / samples for k in range(samples + 1)]
    values = [(c, g(c)) for c in grid]
    bracket = None
    for (ca, ga), (cb, gb) in zip(values, values[1:]):
        if ga == 0.0:
            return SmoothSearchResult(ca, tuple(values))
        if ga * gb < 0:
            bracket = (ca, ga, cb, gb)
            break
    if bracket is None:
        if values[-1][1] == 0.0:
            return SmoothSearchResult(values[-1][0], tuple(values))
        return SmoothSearchResult(None, tuple(values))
    ca, ga, cb, gb = bracket
    while True:
        mid = (ca + cb) / 2
        gm = g(mid)
        if abs(gm) <= tol or cb - ca <= Fraction(1, 10 ** 15):
            return SmoothSearchResult(mid, tuple(values))
        if ga * gm < 0:
            cb, gb = mid, gm
        else:
            ca, ga = mid, gm
