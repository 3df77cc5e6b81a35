"""Independent exact references for the profile inputs, used only by the
tests: the per-root pairings through ``rootsys.inner_product``, the
per-root product for Qtilde and P, and the closed-form profile of a
Kahler class proportional to the bundle weight."""

from fractions import Fraction
from math import comb

from cscflag import (Polynomial, WeightVector, bundle_weight_vector,
                     inner_product, kahler_class_vector)


def pairings(fv, v):
    """(v, alpha) for alpha in D+, one inner_product per root."""
    return {root: inner_product(fv.rs, v, WeightVector.roots(root))
            for root in fv.d_plus}


def coefficient_maps(fv, lam, kappa):
    """(curvature, kahler, ke) per-root maps, as flag.curvature_coeffs,
    flag.kahler_coeffs and flag.ke_coeffs give them."""
    return (pairings(fv, bundle_weight_vector(fv, lam)),
            pairings(fv, kahler_class_vector(fv, kappa)),
            pairings(fv, fv.delta))


def per_root_profile_inputs(fv, lam, kappa):
    """Qtilde = prod (kappa_alpha - lambda_alpha*tau) and
    P = sum (alpha, delta) * prod over the other roots, multiplied out one
    root at a time in Fraction arithmetic (O(n^3))."""
    curv, kah, ke = coefficient_maps(fv, lam, kappa)
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
    return qtilde, p


def _shifted_power(c, e):
    """(c + tau)^e, expanded."""
    return Polynomial([comb(e, j) * c ** (e - j) for j in range(e + 1)])


def proportional_constants(fv, lam):
    """(m, K, i) for kappa proportional to -lambda: m = |D+|,
    K = prod (alpha, -lambda) and the metric index
    i = sum (alpha, delta)/(alpha, -lambda) / (m(m+1))."""
    curv = pairings(fv, bundle_weight_vector(fv, lam))
    ke = pairings(fv, fv.delta)
    m = len(fv.d_plus)
    big_k = Fraction(1)
    for v in curv.values():
        big_k *= -v
    return m, big_k, sum(ke[r] / -curv[r] for r in curv) / (m * (m + 1))


def proportional_profile(constants, c, curvature):
    """Closed form for kappa = -c*lambda, with (m, K, i) from
    proportional_constants and x = c + tau: Qtilde = K*x^m and
    Phi = K*i*x^(m+1) - C*K*x^(m+2)/((m+1)(m+2)) + A*x + B,
    where Phi(0) = 0 and Phi'(0) = K*c^m fix A and B.
    Returns (Qtilde, Phi)."""
    m, big_k, index = constants
    c, curvature = Fraction(c), Fraction(curvature)
    top = big_k * index
    quad = curvature * big_k / ((m + 1) * (m + 2))
    a = big_k * c ** m - top * (m + 1) * c ** m + quad * (m + 2) * c ** (m + 1)
    b = -(top * c ** (m + 1) - quad * c ** (m + 2) + a * c)
    phi = (_shifted_power(c, m + 1) * top - _shifted_power(c, m + 2) * quad
           + Polynomial([a * c + b, a]))
    return _shifted_power(c, m) * big_k, phi
