"""Spans around the public functions of each `llbar` layer, an FFT-call
counter, and the per-layer metrics computed from them.

Functions are wrapped where the calling module looks them up (for example
`llbar.integrator.nonlinear_rhs`), so the program itself is unchanged. A
span is [name, start, end, parent index, file path or None]; spans stay in
memory until the round ends. A layer's self time is its span's duration
minus the time its direct child spans cover. A target the program no
longer has is recorded as missing, and the metrics that need it are
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter

# n-dimensional transforms of numpy.fft and scipy.fft, both directions,
# real and complex
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

STUDY_NAMES = ("run_eps_cauchy", "run_eps_limit", "run_uniqueness",
               "run_linear_growth", "run_gn_calibration")

# (span name, module, attribute path, rebind in every llbar module that
# holds the same object, index of the file-path argument for I/O spans)
TARGETS = (
    ("advance", "llbar.integrator", "Stepper.advance", False, None),
    ("nonlinear_rhs", "llbar.integrator", "nonlinear_rhs", False, None),
    ("propagator_build", "llbar.integrator", "LinearPropagator.build", False, None),
    ("report", "llbar.integrator", "report", False, None),
    ("identity_suite", "llbar.cli", "identity_suite", False, None),
    ("field", "llbar.physics", "random_band_limited_field", False, None),
    ("make_mollifier", "llbar.mollifier", "make_mollifier", True, None),
    ("properties", "llbar.cli", "verify_mollifier_properties", False, None),
    ("leg", "llbar.experiments", "integrate", False, None),
    ("compare", "llbar.experiments", "sup_t_difference", False, None),
    ("io", "llbar.io", "save_snapshot", True, 0),
    ("io", "llbar.io", "write_config", True, 0),
    ("io", "llbar.diagnostics", "TimeSeries.write_csv", False, 1),
) + tuple(("study", "llbar.cli", name, False, None) for name in STUDY_NAMES)

# metric -> (unit, span names it is computed from)
SPAN_METRICS = {
    "grid.transforms_per_step": ("count", ("advance", "fft")),
    "grid.transforms_per_report": ("count", ("report", "fft")),
    "grid.transforms_per_field": ("count", ("identity_suite", "field", "fft")),
    "grid.transform_ms": ("ms", ("fft",)),
    "grid.transform_s": ("s", ("fft",)),
    "physics.nonlinear_rhs_per_step": ("count", ("advance", "nonlinear_rhs")),
    "physics.nonlinear_rhs_ms": ("ms", ("nonlinear_rhs",)),
    "physics.identity_field_ms": ("ms", ("identity_suite", "field")),
    "integrator.advance_self_ms": ("ms", ("advance",)),
    "integrator.propagator_build_ms": ("ms", ("propagator_build",)),
    "diagnostics.report_ms": ("ms", ("report",)),
    "mollifier.make_ms": ("ms", ("make_mollifier",)),
    "mollifier.properties_s": ("s", ("properties",)),
    "experiments.leg_s": ("s", ("leg",)),
    "experiments.compare_s": ("s", ("compare",)),
    "io.write_s": ("s", ("io",)),
}

# plain totals of the traced round; zero is a true reading for these
COUNT_METRICS = {
    "integrator.propagator_builds": ("count", ("propagator_build",)),
    "diagnostics.reports": ("count", ("report",)),
    "mollifier.bump_quad_evals": ("count", ()),
    "io.bytes_written": ("B", ("io",)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()
        self._stack = []

    def wrap(self, name, fn, path_arg=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if path_arg is not None and len(args) > path_arg:
                    span[4] = os.fspath(args[path_arg])

        return traced

    def install(self):
        """Wrap every target; call after `llbar.cli` is imported."""
        import numpy.fft
        import scipy.fft

        llbar_modules = [m for k, m in list(sys.modules.items())
                         if (k == "llbar" or k.startswith("llbar.")) and m is not None]
        for module in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                original = getattr(module, attr, None)
                if original is not None:
                    wrapped = self.wrap("fft", original)
                    setattr(module, attr, wrapped)
                    _rebind(llbar_modules, original, wrapped)
        for name, module_name, path, everywhere, path_arg in TARGETS:
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if raw is None:
                self.missing.add(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, path_arg)))
                continue
            wrapped = self.wrap(name, raw, path_arg)
            setattr(owner, attr, wrapped)
            if everywhere:
                _rebind(llbar_modules, raw, wrapped)


def _rebind(modules, original, wrapped):
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _median_ms(values):
    return statistics.median(values) * 1e3


def span_metrics(spans):
    """Every SPAN_METRICS entry whose spans occur, plus all COUNT_METRICS
    totals; `field` spans count only inside `identity_suite`."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]

    def inside(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def total_s(name):
        return sum(dur[i] for i in by_name[name] if not inside(i, name))

    ffts = by_name["fft"]
    out = {}
    if ffts:
        out["grid.transform_ms"] = _median_ms([dur[i] for i in ffts])
        out["grid.transform_s"] = total_s("fft")
    steps = by_name["advance"]
    if steps:
        out["grid.transforms_per_step"] = sum(inside(i, "advance") for i in ffts) / len(steps)
        out["physics.nonlinear_rhs_per_step"] = (
            sum(inside(i, "advance") for i in by_name["nonlinear_rhs"]) / len(steps))
        out["integrator.advance_self_ms"] = _median_ms([dur[i] - child[i] for i in steps])
    if by_name["nonlinear_rhs"]:
        out["physics.nonlinear_rhs_ms"] = _median_ms(
            [dur[i] - child[i] for i in by_name["nonlinear_rhs"]])
    reports = by_name["report"]
    if reports:
        out["grid.transforms_per_report"] = sum(inside(i, "report") for i in ffts) / len(reports)
        out["diagnostics.report_ms"] = _median_ms([dur[i] for i in reports])
    # one seeded field of the identity suite runs from the start of its
    # generation to the start of the next one (the last to the suite's end)
    fft_starts = sorted(spans[i][1] for i in ffts)
    field_times, field_ffts = [], 0
    for suite in by_name["identity_suite"]:
        gens = [spans[i][1] for i in by_name["field"]
                if inside(i, "identity_suite") and spans[suite][1] <= spans[i][1] <= spans[suite][2]]
        ends = gens[1:] + [spans[suite][2]]
        for start, end in zip(gens, ends):
            field_times.append(end - start)
            field_ffts += bisect_left(fft_starts, end) - bisect_left(fft_starts, start)
    if field_times:
        out["grid.transforms_per_field"] = field_ffts / len(field_times)
        out["physics.identity_field_ms"] = _median_ms(field_times)
    for metric, name in (("integrator.propagator_build_ms", "propagator_build"),
                         ("mollifier.make_ms", "make_mollifier")):
        if by_name[name]:
            out[metric] = _median_ms([dur[i] for i in by_name[name]])
    if by_name["leg"]:
        out["experiments.leg_s"] = statistics.median(dur[i] for i in by_name["leg"])
    for metric, name in (("mollifier.properties_s", "properties"),
                         ("experiments.compare_s", "compare"), ("io.write_s", "io")):
        if by_name[name]:
            out[metric] = total_s(name)
    out["integrator.propagator_builds"] = len(by_name["propagator_build"])
    out["diagnostics.reports"] = len(reports)
    out["io.bytes_written"] = sum(
        os.path.getsize(spans[i][4]) for i in by_name["io"]
        if spans[i][4] and os.path.exists(spans[i][4]))
    return out


def layer_metrics(tracer):
    """(metrics of the traced round, names of the span metrics the round
    never reached, names of the metrics that are missing). A metric that is
    not reached or missing reads 0."""
    out = span_metrics(tracer.spans)
    bump = getattr(sys.modules.get("llbar.mollifier"), "bump_profile", None)
    info = getattr(bump, "cache_info", None)
    if info is not None:
        out["mollifier.bump_quad_evals"] = info().misses
    missing = {m for m, (_, needs) in {**SPAN_METRICS, **COUNT_METRICS}.items()
               if set(needs) & tracer.missing}
    if info is None:
        missing.add("mollifier.bump_quad_evals")
    not_reached = {m for m in SPAN_METRICS if m not in out} - missing
    for metric in not_reached | missing:
        out[metric] = 0.0
    return out, sorted(not_reached), sorted(missing)
