"""Self-tests of the benchmark: seeded generation, the output check and
the span arithmetic of the traced run.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cscflag.cli  # noqa: E402
from check import check_output, load_expected  # noqa: E402
from pipeline import library_report, run_library  # noqa: E402
from tracing import Tracer, per_job, self_times  # noqa: E402
from workloads import WORKLOADS, generate, job_key  # noqa: E402

A1_POSITIVE = {"lie_type": "A1", "pi_prime": [], "lambda": [-1],
               "kappa": ["1"], "scalar_curvature": "1"}


def _composition(entries):
    flags = Counter((e["job"]["lie_type"], tuple(e["job"]["pi_prime"]))
                    for e in entries)
    return flags, Counter(e["format"] for e in entries)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 11) == generate(workload, 11)
    assert json.dumps(generate(workload, 11)) == json.dumps(generate(workload, 11))
    assert any(generate(workload, 11) != generate(workload, s)
               for s in range(12, 20))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_gives_the_same_mix_with_recorded_values(workload):
    expected = load_expected(BENCH / "expected" / f"{workload}.jsonl")
    for index in range(3):
        first = generate(workload, 0, index)
        for seed in range(1, 30):
            entries = generate(workload, seed, index)
            assert _composition(entries) == _composition(first)
            assert all(job_key(e["job"]) in expected for e in entries)


def _a1_case():
    report = library_report(run_library(A1_POSITIVE))
    # the A1 job above need not be in a pool: derive its expected values
    # from a copy of the report, and check that the report passes
    copy = json.loads(json.dumps(report))
    expect = {"qtilde": copy["profile"]["qtilde"],
              "p": copy["profile"]["p"],
              "phi": copy["profile"]["phi_numerator"],
              "theorem_case": copy["behavior"]["theorem_case"],
              "invariant_case": copy["invariant_fields"]["case"],
              "metric_index": copy["metric_index"], "laurent": None,
              "smooth_completion": copy["behavior"]["smooth_completion"]}
    assert check_output(A1_POSITIVE, "json", json.dumps(report), expect) == []
    return report, expect


def test_check_rejects_one_altered_phi_coefficient():
    report, expect = _a1_case()
    coeffs = report["profile"]["phi_numerator"]
    coeffs[-1] = str(Fraction(coeffs[-1]) + Fraction(1, 10 ** 9))
    problems = check_output(A1_POSITIVE, "json", json.dumps(report), expect)
    assert any(p.startswith(f"phi[{len(coeffs) - 1}]:") for p in problems)


def test_check_rejects_an_enclosure_that_misses_the_root():
    report, expect = _a1_case()
    lo, hi = Fraction(report["interval"]["lo"]), Fraction(report["interval"]["hi"])
    report["interval"]["lo"], report["interval"]["hi"] = str(hi), str(2 * hi - lo)
    problems = check_output(A1_POSITIVE, "json", json.dumps(report), expect)
    assert any("sign" in p for p in problems)


def test_check_rejects_an_enclosure_wider_than_the_tolerance():
    report, expect = _a1_case()
    report["interval"]["lo"] = "0"
    problems = check_output(A1_POSITIVE, "json", json.dumps(report), expect)
    assert any("width" in p for p in problems)


def test_check_accepts_recorded_pool_jobs_and_rejects_a_wrong_case():
    expected = load_expected(BENCH / "expected" / "large_flags.jsonl")
    entry = generate("large_flags", 3)[0]
    report = library_report(run_library(entry["job"]))
    expect = expected[job_key(entry["job"])]
    assert check_output(entry["job"], "library", json.dumps(report), expect) == []
    report["behavior"]["theorem_case"] = "not_a_case"
    assert check_output(entry["job"], "library", json.dumps(report), expect)


def test_check_rejects_a_csv_sample_off_the_profile(tmp_path):
    expected = load_expected(BENCH / "expected" / "search_jobs.jsonl")
    job = next(e["job"] for e in generate("search_jobs", 5)
               if e["job"]["lie_type"] == "A1")
    expect = expected[job_key(job)]
    job_file, out = tmp_path / "job.json", tmp_path / "out.csv"
    job_file.write_text(json.dumps(job))
    assert cscflag.cli.main([str(job_file), "--out", str(out),
                             "--format", "csv"]) == 0
    text = out.read_text()
    assert check_output(job, "csv", text, expect) == []
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    lines[5] = ",".join(cells)
    assert check_output(job, "csv", "\n".join(lines) + "\n", expect)


def test_traced_self_times_sum_to_span_totals(tmp_path):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(A1_POSITIVE))
    original = cscflag.cli.build_flag
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "cli"
        assert tracer.span("job", cscflag.cli.main,
                           [str(job_file), "--out", str(tmp_path / "o")]) == 0
        tracer.job = "library"
        tracer.span("job", run_library, A1_POSITIVE)
    finally:
        tracer.uninstall()
    assert cscflag.cli.build_flag is original
    selfs = self_times(tracer.spans)
    assert min(selfs) >= -1e-9
    jobs = per_job(tracer.spans)
    assert set(jobs) == {"cli", "library"}
    for job in jobs.values():
        assert sum(job["self"].values()) == pytest.approx(job["root_s"],
                                                          abs=1e-9)
    cli_calls = jobs["cli"]["calls"]
    # calls across layers through names imported by value are captured
    assert cli_calls["flag.build_flag"] == 1
    assert cli_calls["rootsys.build_root_system"] == 2
    assert cli_calls["poly.count_roots"] > 0
    assert jobs["cli"]["values"]["momentum.numeric_oracle"][0] > 0
