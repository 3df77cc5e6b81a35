"""Job pools and the seeded job generator for the four workloads.

Each workload draws its jobs from a fixed, finite pool. The pool is built
from a fixed internal seed and never changes with the benchmark's
``--seed``; expected values for every pool job are recorded once in
``expected/<workload>.jsonl`` (see ``record.py``). The benchmark seed
chooses the jobs of each pass and their order, under fixed stratum
counts, so that pass k of every seed has the same composition.

A *pass* is the list of jobs one worker process runs; a run times passes
0, 1, 2, ... of its seed while its time lasts (see ``run.py``). This
module imports nothing from ``cscflag``: the program under test sees only
the generated jobs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("small_jobs", "generic_jobs", "large_flags", "search_jobs")
CLI_WORKLOADS = ("small_jobs", "generic_jobs", "search_jobs")

WHY = {  # the same lines as in BENCHMARK.json
    "small_jobs":
        "typical CLI job on small flags at default options; the RK4 "
        "oracle dominates and the exact layers do almost nothing",
    "generic_jobs":
        "generic weights on rank 2-4 full flags with C > 0 and a short "
        "oracle range, so full-length Sturm chains and bisection "
        "dominate",
    "large_flags":
        "README library sequence on E6/E7 and generic A5/B4/C4 full "
        "flags the CLI cannot finish; exact polynomial work dominates",
    "search_jobs":
        "smooth-C search with samples and JSON/CSV output: dozens of "
        "different certifications per job, fiber maps and CSV emit",
}

# Percentile reported as job_tail_s, fixed per workload so that it compares
# across commits. Each keeps at least ten samples beyond it at the usual
# sample count of a run (30, 60, 24 and 20 jobs at 27 s).
TAIL_PERCENTILE = {
    "small_jobs": 65,
    "generic_jobs": 75,
    "large_flags": 50,
    "search_jobs": 55,
}

SMALL_FLAGS = (
    ("A1", ()), ("A1xA1", ()), ("A2", ()), ("A2", (1,)), ("A2", (2,)),
    ("A3", (1,)), ("A3", (3,)), ("A3", (1, 2)), ("A3", (2, 3)),
    ("B2", ()), ("B2", (1,)), ("C2", (2,)), ("G2", (1,)),
    ("A4", (2, 3, 4)), ("A5", (2, 3, 4, 5)),
)
GENERIC_FLAGS = (("G2", ()), ("B3", ()), ("C3", ()), ("A4", ()), ("D4", ()))
# E7 runs only at C <= 0, where no certification runs: an E7 certification
# (about 0.5 s twice per job) would make one job a tenth of a run.
UNIFORM_FLAGS = (("E6", (), ("0", "1")), ("E7", (), ("-1", "0")))
GENERIC_LARGE_FLAGS = (("A5", ()), ("B4", ()), ("C4", ()))
SEARCH_FLAGS = (("A1", ()), ("A1xA1", ()), ("A2", (1,)), ("A2", (2,)),
                ("A2", ()), ("B2", (1,)))

SMALL_KAPPA = ("1/2", "1", "3/2", "2", "3")
GENERIC_KAPPA = ("1/2", "1", "3/2", "2", "5/2", "3")
POSITIVE_C = ("1/2", "1", "2")
SEARCH_OPTIONS = {"find_smooth_c": ["1/10", "20"], "emit_samples": True,
                  "sample_count": 64}


def rank(lie_type: str) -> int:
    return sum(int(part[1:]) for part in lie_type.split("x"))


def _job(lie_type, pi_prime, lam, kappa, c, options=None) -> dict:
    job = {"lie_type": lie_type, "pi_prime": list(pi_prime),
           "lambda": list(lam), "kappa": list(kappa), "scalar_curvature": c}
    if options:
        job["options"] = dict(options)
    return job


def job_key(job: dict) -> str:
    """Canonical text of a job; the key of its expected values."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def _weights(rng, k, lam_choices, kappa_choices):
    return ([-rng.choice(lam_choices) for _ in range(k)],
            [rng.choice(kappa_choices) for _ in range(k)])


def _generic_weights(rng, k):
    """Non-uniform lambda and kappa, not proportional to each other."""
    while True:
        lam, kappa = _weights(rng, k, (1, 2, 3, 4), GENERIC_KAPPA)
        ratios = {Fraction(x) / l for l, x in zip(lam, kappa)}
        if len(set(lam)) > 1 and len(set(kappa)) > 1 and len(ratios) > 1:
            return lam, kappa


def _flag_label(lie_type, pi_prime) -> str:
    return lie_type + ("/" + ",".join(map(str, pi_prime)) if pi_prime else "")


def pools(workload: str) -> dict[str, list[dict]]:
    """Stratum label -> candidate jobs. Deterministic; independent of the
    benchmark seed."""
    rng = random.Random(f"cscflag-bench-pool:{workload}")
    out: dict[str, list[dict]] = {}
    if workload == "small_jobs":
        for lt, pi in SMALL_FLAGS:
            k = rank(lt) - len(pi)
            for cls, cs in (("neg", ("-1",)), ("zero", ("0",)),
                            ("pos", POSITIVE_C)):
                jobs = []
                for _ in range(4):
                    lam, kappa = _weights(rng, k, (1, 2, 3), SMALL_KAPPA)
                    jobs.append(_job(lt, pi, lam, kappa, rng.choice(cs)))
                out[f"{_flag_label(lt, pi)}|{cls}"] = jobs
    elif workload == "generic_jobs":
        for lt, pi in GENERIC_FLAGS:
            out[lt] = [_job(lt, pi, *_generic_weights(rng, rank(lt)),
                            rng.choice(POSITIVE_C), {"tau_max": "1/2"})
                       for _ in range(10)]
    elif workload == "large_flags":
        for lt, pi, cs in UNIFORM_FLAGS:
            r = rank(lt)
            for c in cs:
                jobs = []
                for m, q in rng.sample([(1, "1"), (2, "1"), (1, "2"),
                                        (3, "2")], 2):
                    jobs.append(_job(lt, pi, [-m] * r, [q] * r, c))
                out[f"{lt}|{c}"] = jobs
        for lt, pi in GENERIC_LARGE_FLAGS:
            out[lt] = [_job(lt, pi, *_generic_weights(rng, rank(lt)), "1")
                       for _ in range(6)]
    elif workload == "search_jobs":
        for lt, pi in SEARCH_FLAGS:
            k = rank(lt) - len(pi)
            jobs = []
            for _ in range(6):
                lam, kappa = _weights(rng, k, (1, 2, 3), SMALL_KAPPA)
                jobs.append(_job(lt, pi, lam, kappa, "1", SEARCH_OPTIONS))
            out[_flag_label(lt, pi)] = jobs
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def generate(workload: str, seed: int, index: int = 0) -> list[dict]:
    """Pass ``index`` of the workload for ``seed``: a list of entries
    ``{"job": <cscflag job>, "format": "json" | "csv" | "library"}``.

    The same seed and index always give the same list, and every seed
    gives the same stratum counts for a given index (on large_flags the
    generic flag turns with the index; elsewhere all passes match)."""
    pool = pools(workload)
    rng = random.Random(f"cscflag-bench-seed:{workload}:{seed}:{index}")
    picks: list[tuple[dict, str]] = []
    if workload == "small_jobs":
        # each flag once; C classes dealt 5 neg / 5 zero / 5 pos
        classes = ["neg"] * 5 + ["zero"] * 5 + ["pos"] * 5
        rng.shuffle(classes)
        for (lt, pi), cls in zip(SMALL_FLAGS, classes):
            picks.append((rng.choice(pool[f"{_flag_label(lt, pi)}|{cls}"]),
                          "json"))
    elif workload == "generic_jobs":
        for lt, _ in GENERIC_FLAGS:
            picks += [(job, "json") for job in rng.sample(pool[lt], 3)]
    elif workload == "large_flags":
        for lt, _, cs in UNIFORM_FLAGS:
            picks += [(rng.choice(pool[f"{lt}|{c}"]), "library") for c in cs]
        # one generic flag per pass, in turn, keeps a pass near 7 s so that
        # a run holds about 20 jobs; the median falls among the E7 jobs
        lt = GENERIC_LARGE_FLAGS[index % len(GENERIC_LARGE_FLAGS)][0]
        picks.append((rng.choice(pool[lt]), "library"))
    elif workload == "search_jobs":
        formats = ["json"] * 3 + ["csv"] * 3
        rng.shuffle(formats)
        for (lt, pi), fmt in zip(SEARCH_FLAGS, formats):
            picks.append((rng.choice(pool[_flag_label(lt, pi)]), fmt))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(picks)
    return [{"job": job, "format": fmt} for job, fmt in picks]
