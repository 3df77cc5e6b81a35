"""Golden reports: ``emit(run(spec))`` for a few small jobs that together
reach every branch of the report: C < 0, C = 0 in invariant-field cases A
and B, C > 0 with a smooth-C search, C > 0 with samples and an explicit
tau0, and a two-job batch.

Every byte must match, except the sample values t, s, f and r: they come
from numpy's quadrature and follow the LAPACK build, so they are compared
to a relative 1e-12.

To re-record after a deliberate report change (a schema bump), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import re
from pathlib import Path

import pytest

from cscflag.cli import emit, parse_config, run

GOLDEN = Path(__file__).resolve().parent / "golden"

JOBS = {
    "negative_c": {
        "lie_type": "B2", "pi_prime": [], "lambda": [-1, -2],
        "kappa": [1, "3/2"], "scalar_curvature": "-1/2"},
    "scalar_flat_case_a": {
        "lie_type": "A2", "pi_prime": [], "lambda": [-1, -2],
        "kappa": [1, "3/2"], "scalar_curvature": 0},
    "scalar_flat_case_b": {
        "lie_type": "A1", "pi_prime": [], "lambda": [-1], "kappa": [1],
        "scalar_curvature": 0},
    "smooth_c_search": {
        "lie_type": "A2", "pi_prime": [], "lambda": [-1, -1],
        "kappa": [1, 1], "scalar_curvature": 1,
        "options": {"find_smooth_c": ["1/10", "2"], "sample_count": 4}},
    "samples_tau0": {
        "lie_type": "A2", "pi_prime": [], "lambda": [-1, -1],
        "kappa": [1, 1], "scalar_curvature": "1/2",
        "options": {"emit_samples": True, "sample_count": 4, "tau0": "1/3"}},
    "batch": [
        {"lie_type": "G2", "pi_prime": [1], "lambda": [-1], "kappa": [1],
         "scalar_curvature": 1},
        {"lie_type": "A2", "pi_prime": [2], "lambda": [-2],
         "kappa": ["3/2"], "scalar_curvature": -1}],
}

# a sample's quadrature values; no other report key is one letter long
_QUADRATURE = re.compile(rb'"([tsfr])":([^,}]+)')


def _report(name):
    specs, is_batch = parse_config(json.dumps(JOBS[name]))
    reports = [run(spec) for spec in specs]
    return reports if is_batch else reports[0]


def _json_types_only(obj):
    if isinstance(obj, dict):
        return all(isinstance(k, str) and _json_types_only(v)
                   for k, v in obj.items())
    if isinstance(obj, list):
        return all(_json_types_only(v) for v in obj)
    return obj is None or isinstance(obj, (str, int, float, bool))


@pytest.mark.parametrize("name", JOBS)
def test_report_matches_golden(name):
    report = _report(name)
    assert _json_types_only(report)
    got = emit(report)
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert _QUADRATURE.sub(rb'"\1":_', got) == _QUADRATURE.sub(rb'"\1":_', want)
    got_values = _QUADRATURE.findall(got)
    want_values = _QUADRATURE.findall(want)
    assert [k for k, _ in got_values] == [k for k, _ in want_values]
    for (key, g), (_, w) in zip(got_values, want_values):
        assert math.isclose(float(g), float(w), rel_tol=1e-12), key


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for job_name in JOBS:
        (GOLDEN / f"{job_name}.json").write_bytes(emit(_report(job_name)))
