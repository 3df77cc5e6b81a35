"""Output check: compare each job's output with the values recorded for it
and verify the reported enclosure of b exactly."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

DEFAULT_TOLERANCE = Fraction(1, 10 ** 12)
SAMPLE_REL_TOL = 1e-9


def load_expected(path: Path) -> dict[str, dict]:
    """Job key -> expected values, from a file written by record.py."""
    lines = path.read_text().splitlines()[1:]  # first line: provenance
    return {row["key"]: row["expect"]
            for row in map(json.loads, lines)}


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _optional_fraction(value):
    return None if value is None else Fraction(value)


def _check_interval(interval: dict, phi: list[Fraction], positive_c: bool,
                    tolerance: Fraction) -> list[str]:
    if interval["finite"] != positive_c:
        return [f"interval.finite is {interval['finite']}, expected {positive_c}"]
    if not positive_c:
        return []
    lo, hi = Fraction(interval["lo"]), Fraction(interval["hi"])
    problems = []
    if not 0 <= lo < hi or hi - lo > tolerance:
        problems.append(f"enclosure ({lo}, {hi}] is not within width {tolerance}")
    at_lo, at_hi = _horner(phi, lo), _horner(phi, hi)
    if not (at_hi == 0 or at_lo * at_hi < 0):
        problems.append(f"Phi does not change sign across ({lo}, {hi}]")
    return problems


def _check_samples(rows: list[dict], expect: dict, count: int) -> list[str]:
    """Sampled phi against the exact profile at each tau."""
    if len(rows) != count:
        return [f"{len(rows)} samples, expected {count}"]
    phi, qtilde = _fractions(expect["phi"]), _fractions(expect["qtilde"])
    previous = 0.0
    for row in rows:
        tau = row["tau"]
        x = Fraction(tau)
        exact = float(_horner(phi, x) / _horner(qtilde, x))
        if not (tau > previous and math.isclose(row["phi"], exact,
                                                rel_tol=SAMPLE_REL_TOL)):
            return [f"sample at tau = {tau}: phi = {row['phi']}, expected {exact}"]
        previous = tau
    return []


def check_report(job: dict, report: dict, expect: dict) -> list[str]:
    """Problems found in one JSON report (CLI or library layout)."""
    problems = []

    def same(label, got, want):
        if got == want:
            return
        if isinstance(got, list) and isinstance(want, list):
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            label = f"{label}[{at}]"
            got = got[at] if at < len(got) else "nothing"
            want = want[at] if at < len(want) else "nothing"
        problems.append(f"{label}: got {got}, expected {want}")

    profile = report["profile"]
    same("qtilde", _fractions(profile["qtilde"]), _fractions(expect["qtilde"]))
    same("p", _fractions(profile["p"]), _fractions(expect["p"]))
    same("phi", _fractions(profile["phi_numerator"]), _fractions(expect["phi"]))
    same("theorem_case", report["behavior"]["theorem_case"],
         expect["theorem_case"])
    same("invariant_case", report["invariant_fields"]["case"],
         expect["invariant_case"])
    same("metric_index", _optional_fraction(report["metric_index"]),
         _optional_fraction(expect["metric_index"]))
    c = Fraction(job["scalar_curvature"])
    if c == 0:
        same("laurent", [(e, Fraction(v)) for e, v in
                         report["asymptotics"]["laurent"]],
             [(e, Fraction(v)) for e, v in expect["laurent"]])
    if c > 0:
        same("smooth_completion", report["behavior"]["smooth_completion"],
             expect["smooth_completion"])
    if "c_star" in expect:
        same("c_star", _optional_fraction(report["smooth_c_search"]["c_star"]),
             _optional_fraction(expect["c_star"]))
    options = job.get("options", {})
    tolerance = Fraction(options.get("tolerance", DEFAULT_TOLERANCE))
    problems += _check_interval(report["interval"], _fractions(expect["phi"]),
                                c > 0, tolerance)
    if options.get("emit_samples"):
        problems += _check_samples(report["samples"], expect,
                                   options["sample_count"])
    return problems


def check_csv(job: dict, text: str, expect: dict) -> list[str]:
    lines = text.splitlines()
    keys = ("tau", "phi", "t", "s", "f", "r")
    if not lines or lines[0] != ",".join(keys):
        return ["csv header missing"]
    rows = [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]
    return _check_samples(rows, expect, job["options"]["sample_count"])


def check_output(job: dict, fmt: str, text: str, expect: dict) -> list[str]:
    """Problems found in one job's output; empty when it is correct."""
    try:
        if fmt == "csv":
            return check_csv(job, text, expect)
        return check_report(job, json.loads(text), expect)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
