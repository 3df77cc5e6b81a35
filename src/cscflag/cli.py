"""Job configuration, pipeline orchestration and deterministic report
emission.

A job is a JSON object (or an array of objects for batch mode) naming the
Lie type, the parabolic subset, the bundle weight, the Kahler class and
the target scalar curvature. ``run`` builds its report from the objects
the pipeline returns and renders them with one rule (``_plain``). The
serialization is canonical: fixed key order, rationals as "p/q" strings,
binary64 values with 17 significant digits, so identical jobs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional

import numpy as np

from . import momentum
from .errors import (CscflagError, InternalInconsistency, InvalidLieType,
                     NonPositiveClass, NotSemiNegative, SchemaError,
                     StepTooLarge, ZeroWeight)
from .flag import build_flag, classify_bundle_weight, curvature_coeffs, \
    kahler_coeffs, ke_coeffs
from .invariants import classify_invariant_fields, ddc_applicable
from .rootsys import build_root_system, parse_lie_type

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WEIGHT_DOMAIN = 3
EXIT_INTERNAL = 4
EXIT_ORACLE = 5


@dataclass(frozen=True)
class JobOptions:
    # the field order is the key order of the report's options echo
    tolerance: Fraction = momentum.DEFAULT_ENCLOSURE_WIDTH
    sample_count: int = 16
    tau_max: Fraction = Fraction(10)
    tau0: Optional[Fraction] = None
    find_smooth_c: Optional[tuple[Fraction, Fraction]] = None
    emit_samples: bool = False
    oracle_step: Fraction = Fraction(1, 1000)


@dataclass(frozen=True)
class JobSpec:
    lie_type: str
    pi_prime: tuple[int, ...]
    lam: tuple[int, ...]
    kappa: tuple[Fraction, ...]
    scalar_curvature: Fraction
    options: JobOptions = field(default_factory=JobOptions)


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (str, float)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError):  # NaN, Infinity
            raise SchemaError(path, f"cannot parse rational {value!r}") from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def _int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise SchemaError(path, "expected a list of integers")
    return tuple(value)


def _parse_options(raw, path: str) -> JobOptions:
    if raw is None:
        return JobOptions()
    if not isinstance(raw, dict):
        raise SchemaError(path, "options must be an object")
    known = {f.name for f in fields(JobOptions)}
    for key in raw:
        if key not in known:
            raise SchemaError(f"{path}.{key}", "unknown option")
    kw = {}
    if "tolerance" in raw:
        kw["tolerance"] = _rational(raw["tolerance"], f"{path}.tolerance")
        if kw["tolerance"] <= 0:
            raise SchemaError(f"{path}.tolerance", "must be positive")
    if "sample_count" in raw:
        sc = raw["sample_count"]
        if not isinstance(sc, int) or isinstance(sc, bool):
            raise SchemaError(f"{path}.sample_count", "expected an integer")
        kw["sample_count"] = sc
    if "tau_max" in raw:
        kw["tau_max"] = _rational(raw["tau_max"], f"{path}.tau_max")
        if kw["tau_max"] <= 0:
            raise SchemaError(f"{path}.tau_max", "must be positive")
    if raw.get("tau0") is not None:
        kw["tau0"] = _rational(raw["tau0"], f"{path}.tau0")
    if raw.get("find_smooth_c") is not None:
        rng = raw["find_smooth_c"]
        if not isinstance(rng, list) or len(rng) != 2:
            raise SchemaError(f"{path}.find_smooth_c", "expected [lo, hi]")
        lo, hi = (_rational(rng[0], f"{path}.find_smooth_c[0]"),
                  _rational(rng[1], f"{path}.find_smooth_c[1]"))
        if not 0 < lo < hi:
            raise SchemaError(f"{path}.find_smooth_c", "need 0 < lo < hi")
        kw["find_smooth_c"] = (lo, hi)
    if "emit_samples" in raw:
        if not isinstance(raw["emit_samples"], bool):
            raise SchemaError(f"{path}.emit_samples", "expected a boolean")
        kw["emit_samples"] = raw["emit_samples"]
    if "oracle_step" in raw:
        kw["oracle_step"] = _rational(raw["oracle_step"], f"{path}.oracle_step")
        if kw["oracle_step"] <= 0:
            raise SchemaError(f"{path}.oracle_step", "must be positive")
    opts = JobOptions(**kw)
    # a tau0 at or beyond b needs b, so run() rejects it (GridOutOfInterval)
    if opts.emit_samples and opts.tau0 is not None and opts.tau0 <= 0:
        raise SchemaError(f"{path}.tau0", "must be positive")
    if opts.emit_samples and opts.sample_count < 2:
        raise SchemaError(f"{path}.sample_count",
                          "need at least 2 samples when emit_samples is set")
    searching = opts.find_smooth_c is not None
    if searching and opts.sample_count < 1:
        raise SchemaError(f"{path}.sample_count",
                          "need at least 1 sample when find_smooth_c is set")
    # each sample is a row of fiber-map nodes or one certification
    if (searching or opts.emit_samples) and opts.sample_count > 1024:
        raise SchemaError(f"{path}.sample_count", "at most 1024 samples when "
                          "emit_samples or find_smooth_c is set")
    return opts


def _parse_job(raw, path: str) -> JobSpec:
    if not isinstance(raw, dict):
        raise SchemaError(path, "job must be an object")
    required = {"lie_type", "pi_prime", "lambda", "kappa", "scalar_curvature"}
    missing = required - raw.keys()
    if missing:
        raise SchemaError(path, f"missing fields: {sorted(missing)}")
    unknown = raw.keys() - required - {"options", "schema_version"}
    if unknown:
        raise SchemaError(path, f"unknown fields: {sorted(unknown)}")
    # the job schema is the same in v1 and v2; only the report changed
    if raw.get("schema_version", SCHEMA_VERSION) not in (1, SCHEMA_VERSION):
        raise SchemaError(f"{path}.schema_version",
                          f"unsupported version {raw['schema_version']}")
    if not isinstance(raw["lie_type"], str):
        raise SchemaError(f"{path}.lie_type", "expected a string")
    try:
        lt = parse_lie_type(raw["lie_type"])
    except InvalidLieType as exc:
        raise SchemaError(f"{path}.lie_type", str(exc)) from None
    pi_prime = _int_list(raw["pi_prime"], f"{path}.pi_prime")
    for i in pi_prime:
        if not (1 <= i <= lt.rank):
            raise SchemaError(f"{path}.pi_prime", f"index {i} outside 1..{lt.rank}")
    k = lt.rank - len(set(pi_prime))
    lam = _int_list(raw["lambda"], f"{path}.lambda")
    if len(lam) != k:
        raise SchemaError(f"{path}.lambda", f"expected {k} coefficients")
    if all(c == 0 for c in lam):
        raise ZeroWeight("lambda must be nonzero")
    if not isinstance(raw["kappa"], list):
        raise SchemaError(f"{path}.kappa", "expected a list")
    kappa = tuple(_rational(x, f"{path}.kappa[{i}]")
                  for i, x in enumerate(raw["kappa"]))
    if len(kappa) != k:
        raise SchemaError(f"{path}.kappa", f"expected {k} coefficients")
    if any(x <= 0 for x in kappa):
        raise NonPositiveClass("all kappa coefficients must be positive")
    c = _rational(raw["scalar_curvature"], f"{path}.scalar_curvature")
    options = _parse_options(raw.get("options"), f"{path}.options")
    return JobSpec(lie_type=str(lt), pi_prime=tuple(sorted(set(pi_prime))),
                   lam=lam, kappa=kappa, scalar_curvature=c, options=options)


def parse_config(text: str) -> tuple[list[JobSpec], bool]:
    """Parse a config document; returns (jobs, is_batch)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if isinstance(doc, list):
        return [_parse_job(item, f"$[{i}]") for i, item in enumerate(doc)], True
    return [_parse_job(doc, "$")], False


def _weight_basis(rs, root) -> list[str]:
    """Fundamental-weight coordinates of an integral root: the integer
    Cartan products m_j = sum_i c_i A[i][j]."""
    return [str(sum(c * a for c, a in zip(root, column)))
            for column in zip(*rs.cartan)]


def _fields(obj) -> dict:
    """A dataclass's fields by name, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _asymptotics(profile: momentum.MomentumProfile,
                 behavior: momentum.BehaviorReport) -> dict:
    """The case asymptotics: the conical expansion at C = 0, its terms
    written as "laurent", else the case data of the behavior report."""
    if profile.c == 0:
        expansion = _fields(momentum.conical_expansion(profile))
        return {"case": "conical", "laurent": expansion.pop("terms"), **expansion}
    if profile.c < 0:
        return {"case": "hyperbolic", "rate": behavior.hyperbolic_rate,
                "leading_coefficient": behavior.leading_coefficient}
    return {"case": "cone_angle",
            "b_enclosure": [behavior.interval.lo, behavior.interval.hi],
            "angle_factor": behavior.cone_angle_factor,
            "smooth_completion": behavior.smooth_completion}


def _plain(obj):
    """The report's one rendering rule: a dataclass becomes the dict of its
    fields in declaration order, a tuple becomes a list and a Fraction its
    "p/q" string; dicts keep their key order, JSON scalars stay as they are."""
    if obj is None or isinstance(obj, (str, int, float)):  # bool is an int
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    return _plain(_fields(obj))


def run(spec: JobSpec, with_timing: bool = False) -> dict:
    """Execute the full classification pipeline for one job."""
    started = time.perf_counter()
    rs = build_root_system(parse_lie_type(spec.lie_type))
    fv = build_flag(rs, spec.pi_prime)
    o = spec.options

    bundle_sign = classify_bundle_weight(fv, spec.lam)
    curv = curvature_coeffs(fv, spec.lam)
    kah = kahler_coeffs(fv, spec.kappa)
    ke = ke_coeffs(fv)
    inv = classify_invariant_fields(fv, spec.lam)
    ddc_ok, ddc_reason = ddc_applicable(inv)

    qtilde, p, n = momentum.build_profile_inputs(fv, spec.lam, spec.kappa)
    profile = momentum.solve_profile(qtilde, p, spec.scalar_curvature)
    behavior = momentum.classify_behavior(profile, o.tolerance)
    interval = behavior.interval

    # independent numeric cross-check of the closed-form profile
    if interval.finite:
        oracle_max = min(o.tau_max, interval.lo * Fraction(9, 10))
    else:
        oracle_max = min(o.tau_max, Fraction(10))
    steps = momentum.oracle_steps(oracle_max, o.oracle_step)
    if steps > momentum.ORACLE_MAX_STEPS:
        raise SchemaError("options.oracle_step",
                          f"{steps} oracle steps on [0, {float(oracle_max):.6g}] "
                          f"exceed the cap of {momentum.ORACLE_MAX_STEPS}")
    taus, phis = momentum.numeric_oracle(qtilde, p, spec.scalar_curvature,
                                         oracle_max, o.oracle_step)
    deviation = float(np.max(np.abs(
        np.array(phis) - profile.phi.eval_float(np.array(taus)))))

    smooth_search = None
    if o.find_smooth_c is not None:
        smooth_search = momentum.find_smooth_C(
            fv, spec.lam, spec.kappa, *o.find_smooth_c,
            samples=o.sample_count, width=o.tolerance)

    samples = None
    if o.emit_samples:
        if interval.finite:
            hi = min(o.tau_max, interval.lo * Fraction(9, 10))
            tau0 = o.tau0 if o.tau0 is not None else interval.lo / 2
        else:
            hi = o.tau_max
            tau0 = o.tau0 if o.tau0 is not None else Fraction(1)
        grid = [hi * j / o.sample_count for j in range(1, o.sample_count + 1)]
        samples = momentum.fiber_maps(profile, interval, tau0, grid)

    behavior_fields = _fields(behavior)
    del behavior_fields["interval"]  # the report's own "interval"
    return _plain({
        "schema_version": SCHEMA_VERSION,
        "job": {"lie_type": spec.lie_type, "pi_prime": spec.pi_prime,
                "lambda": spec.lam, "kappa": spec.kappa,
                "scalar_curvature": spec.scalar_curvature,
                "options": o},
        "flag": {
            "rank": rs.rank,
            "dim_X": fv.dim_X,
            "n": n,
            "s_star_indices": fv.s_star_indices,
            "d_plus": [{"root": r, "weight_basis": _weight_basis(rs, r)}
                       for r in fv.d_plus],
            "delta": {
                "root": fv.delta.coords,
                "weight_basis": _weight_basis(
                    rs, [int(c) for c in fv.delta.coords]),
            },
        },
        "bundle": {
            "classification": bundle_sign.value,
            "curvature_coeffs": [curv[r] for r in fv.d_plus],
            "kahler_coeffs": [kah[r] for r in fv.d_plus],
            "ke_coeffs": [ke[r] for r in fv.d_plus],
        },
        "invariant_fields": {
            "case": inv.case,
            "dimension": inv.dimension,
            "distinguished_root": inv.distinguished_root,
            "l": inv.proportionality,
            "convention": "lambda = -l * alpha",
            "ddc_applicable": ddc_ok,
            "ddc_reason": ddc_reason,
        },
        "profile": {
            "n": n,
            "qtilde": qtilde.coeffs,
            "p": p.coeffs,
            "phi_numerator": profile.phi_poly.coeffs,
            "scalar_curvature": profile.c,
        },
        "interval": interval,
        "behavior": behavior_fields,
        "metric_index": momentum.metric_index(fv, spec.lam),
        "asymptotics": _asymptotics(profile, behavior),
        "oracle": {
            "step": float(o.oracle_step),
            "tau_max": float(oracle_max),
            "max_abs_deviation": deviation,
        },
        "smooth_c_search": smooth_search,
        "samples": samples,
        "timing": time.perf_counter() - started if with_timing else None,
    })


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{x} is not a JSON number")
        return format(x, ".17g")
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=True)
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def _dump_json(obj, out: io.StringIO) -> None:
    if isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(",")
            out.write(_json_scalar(str(k)))
            out.write(":")
            _dump_json(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(",")
            _dump_json(v, out)
        out.write("]")
    else:
        out.write(_json_scalar(obj))


def emit(report, fmt: str = "json") -> bytes:
    """Serialize one report (or a batch list) canonically."""
    if fmt == "json":
        buf = io.StringIO()
        _dump_json(report, buf)
        buf.write("\n")
        return buf.getvalue().encode("utf-8")
    if fmt == "csv":
        if isinstance(report, list):
            raise ValueError("csv output requires a single job")
        samples = report.get("samples")
        if not samples:
            raise ValueError("csv output requires emit_samples")
        lines = [",".join(samples[0])]  # the FiberSample fields
        lines += [",".join(format(v, ".17g") for v in row.values())
                  for row in samples]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported format {fmt!r}")


def _run_jobs(jobs: list[JobSpec], n_workers: int, with_timing: bool) -> list[dict]:
    if n_workers <= 1 or len(jobs) <= 1:
        return [run(spec, with_timing) for spec in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, jobs, [with_timing] * len(jobs)))


# exit code and stderr prefix of each failure; the first matching row wins
_FAILURES = (
    ((NotSemiNegative, ZeroWeight), EXIT_WEIGHT_DOMAIN, "weight domain error"),
    (InternalInconsistency, EXIT_INTERNAL, "internal inconsistency"),
    (StepTooLarge, EXIT_ORACLE, "oracle error"),
    ((SchemaError, NonPositiveClass), EXIT_CONFIG, "config error"),
    ((CscflagError, ValueError, OSError), EXIT_CONFIG, "error"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cscflag",
        description="Classify invariant constant-scalar-curvature Kahler "
                    "metrics on negative line bundles over flag varieties.")
    parser.add_argument("config", help="path to a JSON job file, or '-' for stdin")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default: json)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for batch configs (default: 1)")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in reports "
                             "(breaks byte-for-byte reproducibility)")
    args = parser.parse_args(argv)

    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        jobs, is_batch = parse_config(text)
        reports = _run_jobs(jobs, args.jobs, args.timing)
        data = emit(reports if is_batch else reports[0], args.format)
    except (CscflagError, ValueError, OSError) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _FAILURES
                            if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
