"""Spans and counters for the benchmark's traced run.

A traced pass replaces public functions of the library with wrappers that
are plain module (or class) attributes, and puts the originals back when the
pass ends.  No library file is edited and nothing is wrapped outside a traced
pass, so end-to-end numbers always come from unwrapped code.

Each wrapped call records one span: name, tag, start, end, parent span and
operation id (the draw or replicate index it belongs to).  Spans stay in
memory until the pass ends.  Hot scalar functions are counted without spans.
A wrap target that no longer exists is recorded as absent and the metrics
that need it are left out, so the benchmark keeps running when a later change
inlines or deletes the function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

SPAN = "span"
COUNT = "count"

# (modules patched, attribute path, span or counter name, kind).  A callee
# imported by name into another module is patched where it is looked up.
TARGETS = (
    (("variance", "simulate"), "simulate_population", "simulate.simulate_population", SPAN),
    (("variance", "simulate"), "extract_cohort", "simulate.extract", SPAN),
    (("variance",), "extract_doubly_censored", "simulate.extract", SPAN),
    (("variance", "simulate"), "build_census", "simulate.build_census", SPAN),
    (("variance",), "resample_variance", "variance.resample_variance", SPAN),
    (("variance",), "_study_replicate", "variance.replicate", SPAN),
    (("variance",), "fit_algorithm2", "fit_census.fit_algorithm2", SPAN),
    (("variance",), "fit_ideal", "fit_census.fit_ideal", SPAN),
    (("fit_census",), "event_stratum_weights", "fit_census.event_stratum_weights", SPAN),
    (("fit_census",), "baseline_update", "fit_census.baseline_update", SPAN),
    (("fit_census",), "constant_baseline_projection",
     "fit_census.constant_baseline_projection", SPAN),
    (("fit_census",), "CensusRiskProvider.integral_g0", "fit_census.integral_g0", SPAN),
    (("fit_census",), "CensusRiskProvider.base_mass", "fit_census.base_mass", SPAN),
    (("fit_census",), "integrated_stratum1_survival", "model.integrated_stratum1_survival",
     COUNT),
    (("variance",), "em_fit", "fit_zt.em_fit", SPAN),
    (("fit_zt",), "damped_newton_maximize", "numeric.newton", SPAN),
    (("fit_zt",), "mixture_loglik", "fit_zt.mixture_loglik", COUNT),
    (("fit_zt",), "numerical_hessian", "fit_zt.covariance", SPAN),
)

# criterion 6f: a converged census fit has score norm <= 1e-6 (1 + events)
SCORE_NORM_SCALE = 1e-6


def score_norm_ok(fit, n_events: int) -> bool:
    """True unless a fit labelled converged misses the 6f score-norm bound."""
    return not fit.converged or max(fit.score_norm.values()) <= SCORE_NORM_SCALE * (1 + n_events)


def _arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index, operation id]
        self.counts = Counter()
        self.installed = set()
        self.absent = set()
        self._stack = []
        self._ops = Counter()
        self._saved = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for modules, path, name, kind in TARGETS:
            for module_name in modules:
                module = importlib.import_module(f"recurstrat.{module_name}")
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.add(name)
                    continue
                wrapper = self._counter(name, original) if kind == COUNT else self._span(
                    name, original, *_HOOKS.get(attr, (None, None, None)))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                self.installed.add(name)
        self.absent -= self.installed

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn, tag_of, on_result, rewrite):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            if rewrite:
                args, kwargs = rewrite(self, args, kwargs)
            parent = stack[-1] if stack else None
            op = self._operation(name, tag, parent)
            index = len(spans)
            record = [name, tag, 0.0, 0.0, parent, op]
            spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if on_result:
                on_result(self, tag, args, kwargs, result)
            return result

        return traced

    def _operation(self, name, tag, parent):
        """Draws and replicates open a new operation; other spans inherit."""
        kind = "draw" if tag == "draw" else "replicate" if name == "variance.replicate" else None
        if kind is not None:
            self._ops[kind] += 1
            return f"{kind}:{self._ops[kind] - 1}"
        return self.spans[parent][5] if parent is not None else None


# -- hooks per wrapped function: (tag from arguments, on result, rewrite) ----


def _fit_algorithm2_tag(args, kwargs):
    return "draw" if kwargs.get("multipliers") is not None else None


def _fit_algorithm2_result(tracer, tag, args, kwargs, fit):
    tracer.counts["fit_census.outer_iterations"] += fit.outer_iterations
    if not score_norm_ok(fit, _arg(args, kwargs, 0, "cohort").n_events):
        tracer.counts["check.score_norm_violations"] += 1


def _em_fit_tag(args, kwargs):
    return "em" if _arg(args, kwargs, 3, "initial_strata") is None else "known"


def _em_fit_result(tracer, tag, args, kwargs, fit):
    if tag == "em":
        tracer.counts["fit_zt.em_iterations"] += fit.iterations
    tracer.counts["fit_zt.not_converged"] += int(not fit.converged)


def _newton_objective(tracer, args, kwargs):
    """Count every objective evaluation the Newton solve makes."""
    objective = _arg(args, kwargs, 0, "value_and_grad")
    counts = tracer.counts

    def counted(x):
        counts["numeric.newton.objective_calls"] += 1
        return objective(x)

    if "value_and_grad" in kwargs:
        return args, {**kwargs, "value_and_grad": counted}
    return (counted,) + tuple(args[1:]), kwargs


def _newton_result(tracer, tag, args, kwargs, result):
    _x, _value, _grad, _trace, n_iter, converged = result
    tracer.counts["numeric.newton.iterations"] += n_iter
    tracer.counts["numeric.newton.capped"] += int(not converged)


def _resample_result(tracer, tag, args, kwargs, result):
    tracer.counts["variance.draws_requested"] += result.n_requested
    tracer.counts["variance.draws_dropped"] += result.n_dropped


def _cohort_result(tracer, tag, args, kwargs, cohort):
    tracer.counts["problem.cohorts"] += 1
    tracer.counts["problem.cohort_subjects"] += cohort.n_subjects
    tracer.counts["problem.cohort_events"] += cohort.n_events


# keyed by attribute: extract_cohort and extract_doubly_censored share a span
# name, and only the cohort gives the problem size
_HOOKS = {
    "fit_algorithm2": (_fit_algorithm2_tag, _fit_algorithm2_result, None),
    "em_fit": (_em_fit_tag, _em_fit_result, None),
    "damped_newton_maximize": (None, _newton_result, _newton_objective),
    "resample_variance": (None, _resample_result, None),
    "extract_cohort": (None, _cohort_result, None),
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class _Summary:
    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts
        self.total = Counter()
        self.calls = Counter()
        self.durations = {}
        child = Counter()
        for name, tag, start, end, parent, _op in tracer.spans:
            duration = end - start
            for key in (name, f"{name}.{tag}") if tag else (name,):
                self.total[key] += duration
                self.calls[key] += 1
                self.durations.setdefault(key, []).append(duration)
            if parent is not None:
                child[parent] += duration
        self.self_time = Counter()
        for index, (name, _tag, start, end, _parent, _op) in enumerate(tracer.spans):
            self.self_time[name] += (end - start) - child[index]

    def quantile(self, key: str, q: float):
        values = self.durations.get(key)
        return float(np.quantile(values, q)) if values else None

    def ratio(self, num: float, den: float):
        return num / den if den else None


# name -> (unit, wrap target the metric needs, value from a _Summary)
LAYER_METRICS = {
    "simulate.simulate_population.s": (
        "s", "simulate.simulate_population", lambda m: m.total["simulate.simulate_population"]),
    "simulate.build_census.s": (
        "s", "simulate.build_census", lambda m: m.total["simulate.build_census"]),
    "simulate.extract.s": ("s", "simulate.extract", lambda m: m.total["simulate.extract"]),
    "fit_census.fit_algorithm2.s": (
        "s", "fit_census.fit_algorithm2", lambda m: m.total["fit_census.fit_algorithm2"]),
    "fit_census.fit_algorithm2.calls": (
        "count", "fit_census.fit_algorithm2", lambda m: m.calls["fit_census.fit_algorithm2"]),
    "fit_census.outer_iterations": (
        "count", "fit_census.fit_algorithm2", lambda m: m.counts["fit_census.outer_iterations"]),
    "fit_census.outer_per_fit": (
        "iter/fit", "fit_census.fit_algorithm2",
        lambda m: m.ratio(m.counts["fit_census.outer_iterations"],
                          m.calls["fit_census.fit_algorithm2"])),
    "fit_census.self_s": (
        "s", "fit_census.fit_algorithm2", lambda m: m.self_time["fit_census.fit_algorithm2"]),
    "fit_census.integral_g0.s": (
        "s", "fit_census.integral_g0", lambda m: m.total["fit_census.integral_g0"]),
    "fit_census.integral_g0.calls": (
        "count", "fit_census.integral_g0", lambda m: m.calls["fit_census.integral_g0"]),
    "fit_census.event_stratum_weights.s": (
        "s", "fit_census.event_stratum_weights",
        lambda m: m.total["fit_census.event_stratum_weights"]),
    "fit_census.base_mass.s": (
        "s", "fit_census.base_mass", lambda m: m.total["fit_census.base_mass"]),
    "fit_census.base_mass.calls": (
        "count", "fit_census.base_mass", lambda m: m.calls["fit_census.base_mass"]),
    "fit_census.baseline_update.s": (
        "s", "fit_census.baseline_update", lambda m: m.total["fit_census.baseline_update"]),
    "fit_census.constant_baseline_projection.s": (
        "s", "fit_census.constant_baseline_projection",
        lambda m: m.total["fit_census.constant_baseline_projection"]),
    "fit_census.fit_ideal.s": (
        "s", "fit_census.fit_ideal", lambda m: m.total["fit_census.fit_ideal"]),
    "model.integrated_stratum1_survival.calls": (
        "count", "model.integrated_stratum1_survival",
        lambda m: m.counts["model.integrated_stratum1_survival"]),
    "fit_zt.em_fit.known.s": ("s", "fit_zt.em_fit", lambda m: m.total["fit_zt.em_fit.known"]),
    "fit_zt.em_fit.em.s": ("s", "fit_zt.em_fit", lambda m: m.total["fit_zt.em_fit.em"]),
    "fit_zt.em_iterations": ("count", "fit_zt.em_fit", lambda m: m.counts["fit_zt.em_iterations"]),
    "fit_zt.not_converged": ("count", "fit_zt.em_fit", lambda m: m.counts["fit_zt.not_converged"]),
    "fit_zt.mixture_loglik.calls": (
        "count", "fit_zt.mixture_loglik", lambda m: m.counts["fit_zt.mixture_loglik"]),
    "fit_zt.covariance.s": ("s", "fit_zt.covariance", lambda m: m.total["fit_zt.covariance"]),
    "numeric.newton.calls": ("count", "numeric.newton", lambda m: m.calls["numeric.newton"]),
    "numeric.newton.iterations": (
        "count", "numeric.newton", lambda m: m.counts["numeric.newton.iterations"]),
    "numeric.newton.objective_calls": (
        "count", "numeric.newton", lambda m: m.counts["numeric.newton.objective_calls"]),
    "numeric.newton.capped": (
        "count", "numeric.newton", lambda m: m.counts["numeric.newton.capped"]),
    "numeric.newton.s": ("s", "numeric.newton", lambda m: m.total["numeric.newton"]),
    "variance.resample_variance.s": (
        "s", "variance.resample_variance", lambda m: m.total["variance.resample_variance"]),
    "variance.draw.p50_s": (
        "s", "fit_census.fit_algorithm2",
        lambda m: m.quantile("fit_census.fit_algorithm2.draw", 0.5)),
    "variance.draw.p90_s": (
        "s", "fit_census.fit_algorithm2",
        lambda m: m.quantile("fit_census.fit_algorithm2.draw", 0.9)),
    "variance.draws_dropped": (
        "count", "variance.resample_variance", lambda m: m.counts["variance.draws_dropped"]),
    "variance.draw_keep_ratio": (
        "ratio", "variance.resample_variance",
        lambda m: m.ratio(m.counts["variance.draws_requested"] - m.counts["variance.draws_dropped"],
                          m.counts["variance.draws_requested"])),
    "variance.replicate.p50_s": (
        "s", "variance.replicate", lambda m: m.quantile("variance.replicate", 0.5)),
}


def layer_metrics(tracer: Tracer) -> dict:
    """{name: (value, unit)} for every layer metric whose target was wrapped.

    A value is None where the layer did no work that defines it (a ratio or
    percentile with no samples); a metric whose target is absent is left out.
    """
    summary = _Summary(tracer)
    out = {}
    for name, (unit, target, value) in LAYER_METRICS.items():
        if target in tracer.installed:
            out[name] = (value(summary), unit)
    return out
