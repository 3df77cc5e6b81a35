"""The library-user sequence from the README quickstart, and conversion of
its results to the field layout of a CLI report so that one output check
serves both paths."""

from __future__ import annotations

from fractions import Fraction

import cscflag


def run_library(job: dict):
    """build_root_system -> build_flag -> build_profile_inputs ->
    solve_profile -> classify_behavior -> asymptotics, plus the
    invariant-field case and, for strictly negative weights, metric_index."""
    rs = cscflag.build_root_system(cscflag.parse_lie_type(job["lie_type"]))
    fv = cscflag.build_flag(rs, job["pi_prime"])
    lam = job["lambda"]
    kappa = [Fraction(x) for x in job["kappa"]]
    qtilde, p, _ = cscflag.build_profile_inputs(fv, lam, kappa)
    profile = cscflag.solve_profile(qtilde, p, Fraction(job["scalar_curvature"]))
    behavior = cscflag.classify_behavior(profile)
    asym = cscflag.asymptotics(profile)
    inv = cscflag.classify_invariant_fields(fv, lam)
    index = cscflag.metric_index(fv, lam) if all(x < 0 for x in lam) else None
    return profile, behavior, asym, inv, index


def _strs(coeffs) -> list[str]:
    return [str(c) for c in coeffs]


def library_report(result) -> dict:
    """The checked fields of ``run_library``'s result, laid out as in a CLI
    report."""
    profile, behavior, asym, inv, index = result
    interval = behavior.interval
    report = {
        "profile": {"qtilde": _strs(profile.qtilde.coeffs),
                    "p": _strs(profile.p.coeffs),
                    "phi_numerator": _strs(profile.phi_poly.coeffs)},
        "interval": {"finite": interval.finite,
                     "lo": None if interval.lo is None else str(interval.lo),
                     "hi": None if interval.hi is None else str(interval.hi)},
        "behavior": {"theorem_case": behavior.theorem_case,
                     "smooth_completion": behavior.smooth_completion},
        "invariant_fields": {"case": inv.case},
        "metric_index": None if index is None else str(index),
        "asymptotics": {},
    }
    if isinstance(asym, cscflag.ConicalExpansion):
        report["asymptotics"]["laurent"] = [[e, str(c)] for e, c in asym.terms]
    return report
