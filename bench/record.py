"""Record the expected values of every pool job through the library path.

    python3 bench/record.py [WORKLOAD ...]

Writes ``bench/expected/<workload>.jsonl``: one line per pool job with its
canonical key and the values the output check compares (Qtilde, P, the
Phi coefficients, the theorem case, the invariant-field case, the metric
index, the Laurent terms, smooth_completion and, for smooth-C searches,
c_star). For jobs the benchmark runs through the CLI it also records the
CLI's exit code and error at this commit (``seed_cli``). Jobs that fail
there stay in the pools; they count as failed in every run until the
program is fixed. Run it only on the commit whose behaviour is the
reference; the recorded files name that commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cscflag  # noqa: E402
import cscflag.cli  # noqa: E402

from pipeline import library_report, run_library  # noqa: E402
from workloads import CLI_WORKLOADS, WORKLOADS, job_key, pools  # noqa: E402


def expected_values(job: dict) -> dict:
    report = library_report(run_library(job))
    out = {
        "qtilde": report["profile"]["qtilde"],
        "p": report["profile"]["p"],
        "phi": report["profile"]["phi_numerator"],
        "theorem_case": report["behavior"]["theorem_case"],
        "invariant_case": report["invariant_fields"]["case"],
        "metric_index": report["metric_index"],
        "laurent": report["asymptotics"].get("laurent"),
        "smooth_completion": report["behavior"]["smooth_completion"],
    }
    options = job.get("options", {})
    if options.get("find_smooth_c"):
        rs = cscflag.build_root_system(cscflag.parse_lie_type(job["lie_type"]))
        fv = cscflag.build_flag(rs, job["pi_prime"])
        lo, hi = options["find_smooth_c"]
        result = cscflag.find_smooth_C(
            fv, job["lambda"], [Fraction(x) for x in job["kappa"]],
            Fraction(lo), Fraction(hi), samples=options["sample_count"])
        out["c_star"] = None if result.c_star is None else str(result.c_star)
    return out


def seed_cli(job: dict) -> dict:
    """Exit code and error message of ``cscflag JOB --out FILE``."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cscflag.cli.main([str(path), "--out", str(Path(tmp) / "out")])
    return {"rc": rc, "error": err.getvalue().strip()}


def main(argv: list[str]) -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    (BENCH / "expected").mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        lines = [json.dumps({"recorded_at": commit or "unknown"})]
        for jobs in pools(workload).values():
            for job in jobs:
                row = {"key": job_key(job), "expect": expected_values(job)}
                if workload in CLI_WORKLOADS:
                    row["seed_cli"] = seed_cli(job)
                lines.append(json.dumps(row, separators=(",", ":")))
        path = BENCH / "expected" / f"{workload}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        print(f"{workload}: {len(lines) - 1} jobs -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
