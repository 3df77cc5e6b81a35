"""cscflag benchmark: time generated jobs end to end, check every output,
and, in a separate traced run, report time and counts per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: small_jobs, generic_jobs, large_flags, search_jobs (see
README.md). The seed fixes the generated jobs. Run from anywhere; the
package is imported from ``src`` next to this directory and nothing else.

Each pass of jobs runs in a fresh interpreter (worker.py). Passes 0, 1,
2, ... of the seed run until their summed time is within half a pass of S.
With --trace 1, each pass runs twice, untraced and then traced, and the
run stops within half such a pair of S.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable summary, including every failed job with its error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import check_output, load_expected  # noqa: E402
from tracing import LAYERS, per_job  # noqa: E402
from workloads import (TAIL_PERCENTILE, WHY, WORKLOADS, generate,  # noqa: E402
                       job_key)

MIN_SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s
PASS_TIMEOUT_S = 110
WALL_LIMIT_S = 50  # start no pass after this much wall time

# per-layer metric -> (kind, span names); each is a mean per traced job.
# "self" excludes the time of wrapped callees, "total" includes it.
LAYER_METRICS = {
    "rootsys.build_root_system.calls": ("calls", "rootsys.build_root_system"),
    "flag.build_flag.s": ("self", "flag.build_flag"),
    "flag.coeffs.s": ("self", ("flag.classify_bundle_weight",
                               "flag.curvature_coeffs", "flag.kahler_coeffs",
                               "flag.ke_coeffs")),
    "invariants.classify_invariant_fields.s":
        ("self", "invariants.classify_invariant_fields"),
    "invariants.classify_invariant_fields.calls":
        ("calls", "invariants.classify_invariant_fields"),
    "momentum.build_profile_inputs.s": ("self", "momentum.build_profile_inputs"),
    "momentum.solve_profile.s": ("self", "momentum.solve_profile"),
    "momentum.classify_behavior.s": ("self", "momentum.classify_behavior"),
    "momentum.asymptotics.s": ("self", "momentum.asymptotics"),
    "momentum.metric_index.s": ("self", "momentum.metric_index"),
    "momentum.momentum_interval.s": ("self", "momentum.momentum_interval"),
    "momentum.momentum_interval.calls": ("calls", "momentum.momentum_interval"),
    "momentum.momentum_interval.total_s":
        ("total", "momentum.momentum_interval"),
    "momentum.numeric_oracle.s": ("self", "momentum.numeric_oracle"),
    "momentum.numeric_oracle.steps": ("value_sum", "momentum.numeric_oracle"),
    "momentum.find_smooth_C.s": ("self", "momentum.find_smooth_C"),
    "momentum.find_smooth_C.total_s": ("total", "momentum.find_smooth_C"),
    "momentum.find_smooth_C.certifications": ("certifications", ()),
    "momentum.fiber_maps.s": ("self", "momentum.fiber_maps"),
    "poly.sturm_sequence.s": ("self", "poly.sturm_sequence"),
    "poly.sturm_sequence.calls": ("calls", "poly.sturm_sequence"),
    "poly.count_roots.s": ("self", "poly.count_roots"),
    "poly.count_roots.calls": ("calls", "poly.count_roots"),
    "poly.sign_variations_at.s": ("self", "poly.sign_variations_at"),
    "poly.gcd.s": ("self", "poly.gcd"),
    "poly.gcd.calls": ("calls", "poly.gcd"),
    "poly.sturm.length": ("value_max", "poly.sturm_sequence"),
    "cli.parse_config.s": ("self", "cli.parse_config"),
    "cli.emit.s": ("self", "cli.emit"),
    "cli.main.self_s": ("self", "cli.main"),
    "cli.run.self_s": ("self", "cli.run"),
}
UNITS = {"s": "s", "self_s": "s", "total_s": "s", "calls": "count",
         "certifications": "count", "steps": "count", "length": "count"}


def percentile(values: list[float], p: int) -> float:
    """Linear interpolation between closest ranks (p50 is the median)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _check_pass(entries, expected, result, out_dir) -> None:
    """Annotate every sample of one pass with its entry, ``ok`` and
    ``problems``."""
    for sample in result["samples"]:
        entry = entries[sample["job"]]
        sample["entry"] = entry
        if sample["rc"] != 0:
            sample["ok"], sample["problems"] = False, []
            continue
        text = (out_dir / sample["out"]).read_text()
        sample["problems"] = check_output(entry["job"], entry["format"], text,
                                          expected[job_key(entry["job"])])
        sample["ok"] = not sample["problems"]


def end_to_end(workload, passes, setup_samples) -> dict:
    samples = [s for p in passes for s in p["samples"]]
    times = [s["seconds"] for s in samples]
    passed = sum(s["ok"] for s in samples)
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (percentile(times, TAIL_PERCENTILE[workload]), "s"),
        "jobs_per_s": (passed / sum(p["pass_s"] for p in passes), "1/s"),
        "passed_share": (passed / len(samples), "ratio"),
        "failed_share": (1 - passed / len(samples), "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def per_layer(expected, untraced, traced) -> tuple[dict, list]:
    """Per-job means over the traced passes. ``untraced`` holds the same
    passes run without tracing, for the overhead."""
    jobs = [job for p in traced for job in per_job(p["spans"]).values()]

    def per_span_job(kind, names):
        names = (names,) if isinstance(names, str) else names
        if kind == "certifications":
            return sum(j["certifications"] for j in jobs) / len(jobs)
        total = 0.0
        for j in jobs:
            for name in names:
                if kind in ("self", "total"):
                    total += j[kind].get(name, 0.0)
                elif kind == "calls":
                    total += j["calls"].get(name, 0)
                elif kind == "value_sum":
                    total += sum(j["values"].get(name, ()))
                else:  # value_max
                    total += max(j["values"].get(name, ()), default=0)
        return total / len(jobs)

    metrics = {name: (per_span_job(kind, names),
                      UNITS[name.rsplit(".", 1)[1]])
               for name, (kind, names) in LAYER_METRICS.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(t for j in jobs for name, t in j["self"].items()
                if name.startswith(layer + ".")) / len(jobs), "s")
    phis = [[Fraction(c) for c in expected[job_key(s["entry"]["job"])]["phi"]]
            for p in traced for s in p["samples"]]
    metrics["poly.phi.degree"] = (
        statistics.fmean(len(phi) - 1 for phi in phis), "count")
    metrics["poly.phi.coeff_bits_max"] = (
        statistics.fmean(max(map(_bits, phi)) for phi in phis), "bits")
    metrics["trace.overhead_s"] = (
        statistics.fmean(s["seconds"] for p in traced for s in p["samples"])
        - statistics.fmean(s["seconds"] for p in untraced
                           for s in p["samples"]), "s")
    return metrics, jobs


def _print_metrics(metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def _print_summary(workload, seed, metrics, passes) -> None:
    print(f"workload {workload} (seed {seed}): {WHY[workload]}")
    _print_metrics(metrics)
    n = sum(len(p["samples"]) for p in passes)
    print(f"  samples: {n} jobs in {len(passes)} passes of "
          f"{len(passes[0]['samples'])}; job_tail_s is "
          f"p{TAIL_PERCENTILE[workload]}")
    for number, p in enumerate(passes):
        for s in p["samples"]:
            if not s["ok"]:
                why = s["error"] or "; ".join(s["problems"])
                print(f"  failed job {number}:{s['job']} "
                      f"{job_key(s['entry']['job'])}: {why}")


def _print_trace_table(jobs) -> None:
    selfs: dict[str, float] = {}
    totals: dict[str, float] = {}
    for j in jobs:
        for name, t in j["self"].items():
            selfs[name] = selfs.get(name, 0.0) + t
            totals[name] = totals.get(name, 0.0) + j["total"][name]
    print(f"  per job, by function: {'self s':>12} {'total s':>12}")
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {name:<42} {t / len(jobs):>12.6f} "
              f"{totals[name] / len(jobs):>12.6f}")


def run_passes(args, expected, rundir):
    """Run passes until the time is used; returns (passes, setup samples)
    or raises RuntimeError."""
    worker = str(BENCH / "worker.py")
    passes, setup_samples = [], []
    started = time.perf_counter()
    measured = 0.0
    while True:
        number = len(passes)
        traced = bool(args.trace) and number % 2 == 1
        entries = generate(args.workload, args.seed,
                           number // 2 if args.trace else number)
        missing = [job_key(e["job"]) for e in entries
                   if job_key(e["job"]) not in expected]
        if missing:
            raise RuntimeError(f"no expected values for {missing[0]}")
        passdir = rundir / f"pass_{number:03d}"
        (passdir / "out").mkdir(parents=True)
        (passdir / "jobs.json").write_text(json.dumps([e["job"] for e in entries]))
        (passdir / "pass.json").write_text(json.dumps(entries))
        proc = _python(worker, str(passdir), *(["--trace"] if traced else []),
                       timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        result = json.loads((passdir / "result.json").read_text())
        _check_pass(entries, expected, result, passdir / "out")
        result["traced"] = traced
        passes.append(result)
        setup_samples.append(result["setup_s"])
        measured += result["pass_s"]
        # stop when half of the next step (a pass, or with --trace a pair
        # of passes) would end beyond the time
        step = result["pass_s"] * (2 if args.trace else 1)
        if traced == bool(args.trace) and (
                measured + step / 2 > args.seconds
                or time.perf_counter() - started > WALL_LIMIT_S):
            break
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        probe = _python(worker, str(passdir), "--setup-only", timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up failed: {probe.stderr.strip()}")
        setup_samples.append(json.loads(probe.stdout)["setup_s"])
    return passes, setup_samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cscflag" / "cli.py").is_file():
        return _fail(f"no cscflag package under {ROOT / 'src'}")
    expected = load_expected(BENCH / "expected" / f"{args.workload}.jsonl")
    rundir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        passes, setup_samples = run_passes(args, expected, rundir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = end_to_end(args.workload, untraced, setup_samples)
    _print_summary(args.workload, args.seed, metrics, untraced)
    if args.trace:
        metrics, jobs = per_layer(expected, untraced, traced)
        print("traced run (per job, over the traced passes):")
        _print_metrics(metrics)
        _print_trace_table(jobs)
    else:
        del metrics["failed_share"]  # printed above; passed_share is its complement
    counted = [s for p in (traced if args.trace else untraced)
               for s in p["samples"]]
    every = [s for p in passes for s in p["samples"]]
    print(json.dumps({
        "correct": all(not s["problems"] for s in every)
        and any(s["ok"] for s in every),
        "attempted": len(counted),
        "failed": sum(not s["ok"] for s in counted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
