"""Spans around the public functions of the cscflag modules, recorded from
the benchmark's side with no edit to the package.

``Tracer.install`` replaces every module attribute that refers to a wrapped
function, in every cscflag module, so calls between layers are captured
too (``cli.build_flag``, ``momentum.curvature_coeffs``, ...). Spans are
kept in memory as ``[name, start, end, parent, job, value]`` and written
out when the run ends. ``value`` holds a count read from the result where
one is defined (oracle steps, Sturm chain length).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("rootsys", "flag", "invariants", "poly", "momentum", "cli")

# Counts read from a wrapped function's result.
RESULT_COUNTS = {
    "momentum.numeric_oracle": lambda result: len(result[0]) - 1,
    "poly.sturm_sequence": len,
}

NAME, START, END, PARENT, JOB, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
        count = RESULT_COUNTS.get(name)
        if count is not None:
            record[VALUE] = count(result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self, package: str = "cscflag") -> None:
        """Wrap the public functions defined in each layer module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Children
    of one span run one after another, so they cover the sum of their
    durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_job(spans: list[list]) -> dict:
    """job -> {"self": {name: seconds}, "total": {name: seconds},
    "calls": {name: n}, "values": {name: [counts]}, "root_s": seconds,
    "certifications": n}.

    ``total`` is the time inside a function including its callees (no
    wrapped function calls itself). ``certifications`` counts
    momentum_interval calls made inside find_smooth_C."""
    selfs = self_times(spans)
    jobs: dict = defaultdict(lambda: {"self": defaultdict(float),
                                      "total": defaultdict(float),
                                      "calls": defaultdict(int),
                                      "values": defaultdict(list),
                                      "root_s": 0.0, "certifications": 0})
    for i, s in enumerate(spans):
        j = jobs[s[JOB]]
        j["self"][s[NAME]] += selfs[i]
        j["total"][s[NAME]] += s[END] - s[START]
        j["calls"][s[NAME]] += 1
        if s[VALUE] is not None:
            j["values"][s[NAME]].append(s[VALUE])
        if s[PARENT] is None:
            j["root_s"] += s[END] - s[START]
        if s[NAME] == "momentum.momentum_interval" and _has_ancestor(
                spans, i, "momentum.find_smooth_C"):
            j["certifications"] += 1
    return jobs


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
