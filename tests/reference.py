"""Independent exact references, used only by the tests: the per-root
pairings through ``rootsys.inner_product``, the per-root product for
Qtilde and P, the closed-form profile of a Kahler class proportional to
the bundle weight, and the straightforward Fraction versions of the
integer layers (Cartan inverse, positive roots, pairings, profile inputs,
profile and metric index)."""

import math
from fractions import Fraction
from math import comb

from cscflag import (Basis, Polynomial, WeightVector, bundle_weight_vector,
                     inner_product, kahler_class_vector)


def invert(matrix):
    """Gauss-Jordan inverse in Fraction arithmetic, with row pivoting."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def positive_roots(cartan, rank):
    """Closure under simple-root addition, probing down each alpha_i-string
    for its depth p and adding alpha_i while q = p - <beta, alpha_i^v> >= 1."""
    roots = {tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(beta[k] * cartan[k][i] for k in range(rank))
                p = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                if p - pairing >= 1:
                    cand = list(beta)
                    cand[i] += 1
                    t = tuple(cand)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return sorted(roots)


def fraction_pairings(fv, v):
    """(v, alpha) for alpha in D+ through the Gram row g_j = (v, alpha_j),
    one Fraction per root."""
    gram = fv.rs.gram
    if v.basis is Basis.FUNDAMENTAL_WEIGHT:
        row = [c * gram[j][j] / 2 for j, c in enumerate(v.coords)]
    else:
        row = [sum(c * g[j] for c, g in zip(v.coords, gram))
               for j in range(len(v.coords))]
    return {root: sum(a * b for a, b in zip(root, row)) for root in fv.d_plus}


def profile_inputs(curv, kah, ke):
    """Qtilde and P from the per-root curvature, Kahler and KE maps: each
    factor is content * (A + B*tau) with coprime A, B; equal pairs are
    grouped, Qtilde is the integer product of the groups times the Fraction
    content, and each group's quotient enters P with weight
    sum (alpha, delta)/content."""
    groups, content = {}, Fraction(1)
    for root, k in kah.items():
        a, b = k, -curv[root]
        den = math.lcm(a.denominator, b.denominator)
        big_a = a.numerator * (den // a.denominator)
        big_b = b.numerator * (den // b.denominator)
        g = math.gcd(big_a, big_b)
        c = Fraction(g, den)
        content *= c
        group = groups.setdefault((big_a // g, big_b // g), [0, Fraction(0)])
        group[0] += 1
        group[1] += ke[root] / c
    q = [1]  # the product of the A + B*tau, one factor at a time
    for (a, b), (m, _) in groups.items():
        for _ in range(m):
            q = [a * x + b * y for x, y in zip(q + [0], [0] + q)]
    p = [Fraction(0)] * (len(q) - 1)
    for (a, b), (_, w) in groups.items():
        s = 0  # synthetic division by A + B*tau from the top
        for i in range(len(q) - 1, 0, -1):
            s, rest = divmod(q[i] - a * s, b)
            assert rest == 0
            p[i - 1] += w * s
        assert q[0] == a * s
    return (Polynomial([content * x for x in q]),
            Polynomial([content * x for x in p]))


def solve_profile(qtilde, p, c):
    """Phi with Phi'' = P - C*Qtilde, Phi(0) = 0, Phi'(0) = Qtilde(0),
    through two antiderivatives."""
    c = Fraction(c)
    first = (p - c * qtilde).antiderivative(constant=qtilde(Fraction(0)))
    return first.antiderivative(constant=0)


def metric_index(curv, ke):
    """sum (alpha, delta)/(alpha, -lambda) / ((n - 1) n), n = |D+| + 1,
    from the per-root curvature and KE maps."""
    n = len(curv) + 1
    return Fraction(1, (n - 1) * n) * sum(ke[r] / -curv[r] for r in curv)


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
