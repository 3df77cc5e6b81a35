"""Momentum construction: closed-form solution of the prescribed constant
scalar curvature ODE (phi*Q)'' + C*Q = P on a negative line bundle,
certified momentum interval, behavior classification and asymptotic data.

All profile data is exact (Fraction coefficients). The unknown is stored
as Phi = phi * Qtilde, a polynomial; phi itself is a rational function.
Numeric output (fiber maps, the RK4 oracle) is binary64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from . import poly
from .errors import (GridOutOfInterval, InternalInconsistency, InvalidRange,
                     NotSemiNegative, StepTooLarge, WrongCase)
from .flag import FlagVariety, curvature_coeffs, kahler_coeffs, ke_coeffs
from .poly import Polynomial, RationalFunction

DEFAULT_ENCLOSURE_WIDTH = Fraction(1, 10 ** 12)


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
    finite: bool
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def build_profile_inputs(fv: FlagVariety, lam: Sequence, kappa: Sequence
                         ) -> tuple[Polynomial, Polynomial, int]:
    """Exact Qtilde and P for the curvature ODE, plus n = dim_C L."""
    curv = curvature_coeffs(fv, lam)
    kah = kahler_coeffs(fv, kappa)
    ke = ke_coeffs(fv)
    bad = [root for root, v in curv.items() if v > 0]
    if bad:
        raise NotSemiNegative(
            f"(lambda, alpha) = {curv[bad[0]]} > 0 for alpha = {list(bad[0])}")
    factors = {root: Polynomial([kah[root], -curv[root]]) for root in kah}
    qtilde = Polynomial([1])
    for f in factors.values():
        qtilde = qtilde * f
    p = Polynomial()
    for root in factors:
        term = Polynomial([ke[root]])
        for other, f in factors.items():
            if other != root:
                term = term * f
        p = p + term
    return qtilde, p, fv.dim_X + 1


def solve_profile(qtilde: Polynomial, p: Polynomial, c) -> MomentumProfile:
    """Integrate Phi'' = P - C*Qtilde twice with Phi(0) = 0,
    Phi'(0) = Qtilde(0); equivalent to phi(0) = 0, phi'(0) = 1."""
    c = Fraction(c)
    second = p - c * qtilde
    first = second.antiderivative(constant=qtilde(Fraction(0)))
    phi_poly = first.antiderivative(constant=0)
    return MomentumProfile(n=qtilde.degree + 1, qtilde=qtilde, p=p, c=c,
                           phi_poly=phi_poly)


def momentum_interval(profile: MomentumProfile,
                      width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> Interval:
    """[0, b): b = +inf for C <= 0, else the unique positive root of Phi,
    enclosed by Sturm-guided bisection to the requested width."""
    if profile.c <= 0:
        return Interval(finite=False)
    phi_poly = profile.phi_poly
    bound = poly.root_upper_bound(phi_poly)
    count = poly.count_roots(phi_poly, Fraction(0), bound)
    if count != 1:
        raise InternalInconsistency(
            f"expected exactly one positive root of Phi, Sturm count = {count}")
    lo, hi = poly.isolate_unique_root(phi_poly, Fraction(0), bound, width)
    return Interval(finite=True, lo=lo, hi=hi)


@dataclass(frozen=True)
class EndpointRow:
    kind: str  # "finite" or "infinite"
    zero_order: Optional[int] = None  # vanishing order of phi (finite ends)
    slope: Optional[float] = None  # phi' at a finite end
    growth_degree: Optional[int] = None  # infinite ends
    t_range_finite: Optional[bool] = None  # is the fiber log-coordinate bounded
    distance_finite: Optional[bool] = None


@dataclass(frozen=True)
class BehaviorReport:
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
    coefficient of the scalar-flat profile. Requires strict negativity."""
    curv = curvature_coeffs(fv, lam)
    ke = ke_coeffs(fv)
    for root, v in curv.items():
        if v > 0:
            raise NotSemiNegative(
                f"(lambda, alpha) = {v} > 0 for alpha = {list(root)}")
        if v == 0:
            raise ZeroDivisionError(
                f"(lambda, alpha) = 0 for alpha = {list(root)}; "
                "metric index needs a strictly negative weight")
    n = fv.dim_X + 1
    return Fraction(1, (n - 1) * n) * sum(ke[r] / -curv[r] for r in curv)


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
        rate = math.sqrt(float(-4 * profile.c / (n * n + n)))
        far = EndpointRow(kind="infinite", growth_degree=2,
                          t_range_finite=True, distance_finite=False)
        return BehaviorReport(
            theorem_case="negative_csc", domain="disk_bundle",
            interval=interval, origin=origin, far_end=far,
            hyperbolic_rate=rate, leading_coefficient=lead)
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


@dataclass(frozen=True)
class HyperbolicData:
    """C < 0 asymptotics along the fiber."""
    rate: float  # alpha_{n,C} = sqrt(-4C/(n^2+n))
    leading_coefficient: Fraction  # -C/(n^2+n), exact


def hyperbolic_data(profile: MomentumProfile) -> HyperbolicData:
    if profile.c >= 0:
        raise WrongCase("hyperbolic asymptotics require C < 0")
    n = profile.n
    lead = -profile.c / (n * n + n)
    return HyperbolicData(rate=math.sqrt(float(4 * lead)), leading_coefficient=lead)


@dataclass(frozen=True)
class ConeAngleData:
    """C > 0 endpoint data at the divisor added at infinity."""
    b_lo: Fraction
    b_hi: Fraction
    angle_factor: float  # a = -phi'(b)
    smooth_completion: bool


def cone_angle_data(profile: MomentumProfile,
                    width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> ConeAngleData:
    if profile.c <= 0:
        raise WrongCase("cone-angle data requires C > 0")
    interval = momentum_interval(profile, width)
    b = interval.midpoint
    slope = profile.phi_poly.derivative()(b) / profile.qtilde(b)
    return ConeAngleData(b_lo=interval.lo, b_hi=interval.hi,
                         angle_factor=float(-slope),
                         smooth_completion=_phi_prime_at_b_is_minus_one(profile, interval))


def asymptotics(profile: MomentumProfile, order: int = 8,
                width: Fraction = DEFAULT_ENCLOSURE_WIDTH):
    """Case-appropriate asymptotic data for a classified profile."""
    if profile.c == 0:
        return conical_expansion(profile, order)
    if profile.c < 0:
        return hyperbolic_data(profile)
    return cone_angle_data(profile, width)


@dataclass(frozen=True)
class FiberSample:
    tau: float
    phi: float
    t: float  # log fiber norm coordinate, anchored t(tau0) = 0
    s: float  # fiberwise distance, anchored s(tau0) = 0
    f: float  # Kahler potential along the fiber, anchored at tau0
    r: float  # fiber radius exp(t/2)


def fiber_maps(profile: MomentumProfile, tau0, grid: Sequence,
               rel_tol: float = 1e-10,
               width: Fraction = DEFAULT_ENCLOSURE_WIDTH) -> list[FiberSample]:
    """Reconstruct the fiber data t, s, f from phi by adaptive quadrature:
    t = int dx/phi, f = int x dx/phi, s = int dx/(2 sqrt(phi))."""
    interval = momentum_interval(profile, width)
    hi = math.inf if not interval.finite else float(interval.lo)
    tau0 = Fraction(tau0)
    if not (0 < tau0 and float(tau0) < hi):
        raise GridOutOfInterval(f"tau0 = {tau0} outside the interval interior")
    for tau in grid:
        if not (0 < Fraction(tau) and float(tau) < hi):
            raise GridOutOfInterval(f"grid point {tau} outside the interval interior")
    phi = profile.phi
    t0 = float(tau0)

    def integrate(f, upper):
        val, _ = quad(f, t0, upper, epsabs=0.0, epsrel=rel_tol, limit=500)
        return val

    out = []
    for tau in grid:
        x = float(Fraction(tau))
        t = integrate(lambda u: 1.0 / phi.eval_float(u), x)
        f = integrate(lambda u: u / phi.eval_float(u), x)
        s = integrate(lambda u: 0.5 / math.sqrt(phi.eval_float(u)), x)
        out.append(FiberSample(tau=x, phi=phi.eval_float(x), t=t, s=s, f=f,
                               r=math.exp(t / 2)))
    return out


def numeric_oracle(qtilde: Polynomial, p: Polynomial, c, tau_max, step,
                   error_bound: float = 1e-6) -> tuple[list[float], list[float]]:
    """Independent check of solve_profile: classical RK4 on u'' = P - C*Q
    with u(0) = 0, u'(0) = Q(0), in binary64; returns (taus, phi samples).

    The local error per step is estimated by step doubling on u and u';
    if it exceeds error_bound * max(1, |u|, |u'|), StepTooLarge is raised.
    The bound is relative because u = Phi grows like tau**(n+1).

    The forcing does not depend on u, so it is evaluated once per abscissa
    array; only the recurrence runs step by step. Every float is the one a
    step-by-step evaluation would give: abscissae accumulate by repeated
    t + h and the forcing is P(x) - C*Q(x)."""
    c = float(Fraction(c))
    tau_max = float(Fraction(tau_max))
    h = float(Fraction(step))
    if h <= 0 or tau_max <= 0:
        raise ValueError("step and tau_max must be positive")

    def g(x: np.ndarray) -> list[float]:
        return (p.eval_float(x) - c * qtilde.eval_float(x)).tolist()

    def rk4_step(u: float, v: float, h: float, g0: float, g_mid: float,
                 g1: float) -> tuple[float, float]:
        # g0, g_mid, g1: forcing at t, t + h/2 and t + h
        k1u, k1v = v, g0
        k2u, k2v = v + h / 2 * k1v, g_mid
        k3u, k3v = v + h / 2 * k2v, g_mid
        k4u, k4v = v + h * k3v, g1
        return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))

    steps = max(int(math.ceil(tau_max / h - 1e-12)), 1)
    h = tau_max / steps
    taus = list(itertools.accumulate(itertools.repeat(h, steps), initial=0.0))
    grid = np.array(taus)
    t = grid[:-1]
    mid = t + h / 2
    # t + h is exactly the next grid point, so the full step's end reuses it
    g_grid = g(grid)
    g_t, g_end = g_grid[:-1], g_grid[1:]
    g_mid, g_q1 = g(mid), g(t + h / 4)
    g_q3, g_mid_end = g(mid + h / 4), g(mid + h / 2)
    u, v = 0.0, qtilde.eval_float(0.0)
    us = []
    for i in range(steps):
        u1, v1 = rk4_step(u, v, h, g_t[i], g_mid[i], g_end[i])
        ua, va = rk4_step(u, v, h / 2, g_t[i], g_q1[i], g_mid[i])
        u2, v2 = rk4_step(ua, va, h / 2, g_mid[i], g_q3[i], g_mid_end[i])
        bound = error_bound * max(1.0, abs(u1), abs(v1))
        if abs(u1 - u2) > bound or abs(v1 - v2) > bound:
            raise StepTooLarge(
                f"local error estimate {max(abs(u1 - u2), abs(v1 - v2)):.3e} "
                f"exceeds {bound:.3e} at tau = {taus[i]:.6g}")
        u, v = u1, v1
        us.append(u)
    phis = [0.0] + (np.array(us) / qtilde.eval_float(grid[1:])).tolist()
    return taus, phis


@dataclass(frozen=True)
class SmoothSearchResult:
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
    qtilde, p, _ = build_profile_inputs(fv, lam, kappa)

    def g(c: Fraction) -> float:
        profile = solve_profile(qtilde, p, c)
        data = cone_angle_data(profile, width)
        return 1.0 - data.angle_factor  # phi'(b) + 1

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
