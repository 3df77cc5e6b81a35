"""One pass of a workload in a fresh interpreter: import cscflag, then run
the pass's jobs serially, one caller in a closed loop.

    python3 bench/worker.py PASSDIR [--setup-only] [--trace]

PASSDIR holds ``jobs.json``, the pass's job file (a batch of its jobs),
and ``pass.json``, the same jobs with their output format, both written by
run.py. The package under test is imported from ``src`` next to the
benchmark directory. A CLI job is timed around
``cscflag.cli.main([job_file, "--out", out_file, "--format", fmt])``; a
library job around the README sequence (``pipeline.run_library``).
Outputs go to ``PASSDIR/out``, and timings (and, with --trace, the spans)
to ``PASSDIR/result.json``; run.py checks them after this process ends.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(passdir: Path, src: Path) -> float:
    """import cscflag.cli and parse the job file: the work a fresh
    interpreter does before its first job can start."""
    sys.path.insert(0, str(src))
    import cscflag.cli
    origin = Path(cscflag.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"cscflag imported from {origin}, not from {src}")
    cscflag.cli.parse_config((passdir / "jobs.json").read_text())
    return time.perf_counter() - STARTED


def main(argv: list[str]) -> int:
    passdir = Path(argv[0])
    bench = Path(__file__).resolve().parent
    setup_s = _setup(passdir, bench.parent / "src")
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    traced = "--trace" in argv

    import contextlib
    import io
    import resource

    import cscflag.cli
    sys.path.insert(0, str(bench))
    from pipeline import library_report, run_library
    from tracing import Tracer

    entries = json.loads((passdir / "pass.json").read_text())
    out_dir = passdir / "out"
    out_dir.mkdir(exist_ok=True)
    job_files = []
    for i, entry in enumerate(entries):
        path = passdir / f"job_{i:03d}.json"
        path.write_text(json.dumps(entry["job"]))
        job_files.append(str(path))

    def cli_job(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cscflag.cli.main(argv)
        return rc, err.getvalue().strip()

    tracer = Tracer()
    if traced:
        tracer.install()
    samples = []
    pass_started = time.perf_counter()
    for i, entry in enumerate(entries):
        fmt = entry["format"]
        out = out_dir / f"{i:03d}.{'csv' if fmt == 'csv' else 'json'}"
        tracer.job = i
        rc, error, result = 0, "", None
        started = time.perf_counter()
        try:
            if fmt == "library":
                result = (tracer.span("job", run_library, entry["job"])
                          if traced else run_library(entry["job"]))
            else:
                argv = [job_files[i], "--out", str(out), "--format", fmt]
                rc, error = (tracer.span("job", cli_job, argv)
                             if traced else cli_job(argv))
        except Exception as exc:  # a job that raises counts as failed
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if result is not None:
            out.write_text(json.dumps(library_report(result)))
        samples.append({"job": i, "seconds": elapsed, "rc": rc,
                        "error": error, "out": out.name})
    pass_s = time.perf_counter() - pass_started
    tracer.uninstall()

    (passdir / "result.json").write_text(json.dumps({
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": samples,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
