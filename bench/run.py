#!/usr/bin/env python3
"""Benchmark of the recurstrat batch pipeline at acceptance scale.

Run from the repository root (stdlib and numpy only, the library is imported
from ``src``):

    python3 bench/run.py --workload resample --seed 404 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, both modes

Each workload is one closed loop in one process with the library defaults in
force: the next chunk of draws or replicates starts only after the previous
one returns.  A workload's chunks form a fixed cycle derived from the seed.
``--trace 0`` times whole cycles, starting another only while it is expected
to end within ``--seconds``, so a faster program times the same inputs as a
slower one, and reports the end-to-end metrics.  ``--trace 1`` runs the first
chunks of the cycle twice, unwrapped and then with the span wrappers of
``spans.py`` installed, and reports the per-layer metrics, the tracing
overhead, and whether both passes gave the same output digests.  The traced
run does a fixed amount of work so that its counts repeat exactly for a
given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are the
ones ``BENCHMARK.json`` lists for the mode.  The lines before it print every
metric by name and unit, the environment, the problem size and the digests.
See ``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics, score_norm_ok

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
IMPORT_REPEATS = 11
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB",
             "failed_fraction": "ratio"}
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import recurstrat"


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one unit of items_per_s is
    seed: int  # acceptance seed, the default
    chunk: int  # draws or replicates per library call
    cycle: int  # chunks in one cycle; for resample also the number of cohorts
    traced_chunks: int  # chunks of the cycle the traced run repeats
    scenario: int
    population: int
    tasks: tuple  # (approach, model) for studies; empty for resample
    em_limits: tuple = ()  # EmConfig fields that differ from the defaults


WORKLOADS = {
    w.name: w for w in (
        Workload("resample", "draw", 404, 32, 8, 1, 1, 100_000, ()),
        # With the default EM limits a zero-truncated EM fit takes 0.6-58 s
        # here: near a boundary its M-step Newton solves run to the 200-step
        # cap one after another.  Capping the solves and the EM iterations
        # bounds a replicate at about 5 s; capped solves stay in the counts.
        Workload("study-s1", "replicate", 101, 1, 16, 3, 1, 100_000,
                 (("census", "ssc"), ("zt", "ssc"), ("zt-em", "ssc"), ("ideal", "ssc")),
                 (("max_iterations", 30), ("newton_max_iter", 12))),
        Workload("study-s3", "replicate", 303, 8, 7, 1, 3, 100_000,
                 (("census", "ssv"), ("census", "ssc"))),
    )
}


def chunk_seed(seed: int, chunk: int) -> int:
    """Seed of one library call.  Chunk 0 uses the workload seed itself, so at
    the acceptance seeds it repeats the acceptance suite's first draws or
    replicates; later chunks of the cycle get independent streams."""
    if chunk == 0:
        return seed
    return int(np.random.SeedSequence([seed, chunk]).generate_state(1)[0])


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Workload bodies: inputs, one chunk, output checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    items: int
    attempted: int
    failed: int
    violations: list  # output checks that failed
    digest: str


def prepare(w: Workload, seed: int, population: int):
    """Inputs of the timed phase; for resample, the cohorts and censuses."""
    from recurstrat import ModelSpec, scenario_preset, simulate

    config = scenario_preset(w.scenario, population, seed=seed)
    if w.name != "resample":
        return {"config": config}
    data = []
    for k in range(w.cycle):
        pop = simulate.simulate_population(replace(config, seed=chunk_seed(seed, k)))
        data.append((simulate.extract_cohort(pop, *config.window),
                     simulate.build_census(pop, *config.window)))
    return {"config": config, "spec": ModelSpec.from_code("ssc"), "data": data}


def run_chunk(w: Workload, inputs: dict, seed: int, chunk: int, size: int) -> Outcome:
    """Chunk ``chunk`` of the cycle (0 <= chunk < w.cycle)."""
    if w.name == "resample":
        cohort, census = inputs["data"][chunk]
        return _resample_chunk(cohort, census, inputs["spec"], chunk_seed(seed, chunk), size)
    return _study_chunk(w, inputs, chunk_seed(seed, chunk), size)


def _resample_chunk(cohort, census, spec, seed: int, draws: int) -> Outcome:
    from recurstrat import ResampleConfig, variance
    from recurstrat._numeric import FitError

    attempted = 1 + draws  # the base fit and every draw
    try:
        rr = variance.resample_variance(cohort, census, spec,
                                        resample=ResampleConfig(draws=draws, seed=seed))
    except FitError as err:  # more than the allowed share of draws dropped
        return Outcome(0, attempted, attempted, [f"resample raised: {err}"], "")
    violations = []
    base = rr.base_fit
    base_values = [base.beta[s] for s in base.beta] + [list(base.lambda0.values())]
    base_failed = not all(np.all(np.isfinite(v)) for v in base_values)
    if base_failed:
        violations.append("base fit has a non-finite estimate")
    if not score_norm_ok(base, cohort.n_events):
        violations.append("converged base fit misses the score-norm bound")
        base_failed = True
    kept = draws - rr.n_dropped
    finite_rows = np.ones(kept, dtype=bool)
    for s in rr.beta_draws:
        finite_rows &= np.all(np.isfinite(rr.beta_draws[s]), axis=1)
        finite_rows &= np.isfinite(rr.lambda0_draws[s])
        finite_rows &= np.all(np.isfinite(rr.baseline_draws[s]), axis=1)
    if not finite_rows.all():
        violations.append(f"{int((~finite_rows).sum())} kept draws have non-finite estimates")
    ses = [rr.se_beta[s] for s in rr.se_beta] + [list(rr.se_lambda0.values())]
    if not all(np.all(np.isfinite(v)) for v in ses):
        violations.append("non-finite standard error")
    if rr.n_dropped > 0.10 * draws:
        violations.append(f"{rr.n_dropped} of {draws} draws dropped (limit 10%)")
    failed = int(base_failed) + rr.n_dropped + int((~finite_rows).sum())
    digest = _digest(
        [rr.n_dropped]
        + [np.ascontiguousarray(a).tobytes() for a in base_values + ses]
        + [np.ascontiguousarray(d[s]).tobytes()
           for d in (rr.beta_draws, rr.lambda0_draws, rr.baseline_draws) for s in sorted(d)]
    )
    return Outcome(draws, attempted, failed, violations, digest)


def _study_chunk(w: Workload, inputs: dict, seed: int, replicates: int) -> Outcome:
    from recurstrat import EmConfig, ModelSpec, variance

    config = replace(inputs["config"], seed=seed)
    report, estimates = variance.replicate_study(config, replicates, list(w.tasks),
                                                 em_config=EmConfig(**dict(w.em_limits)),
                                                 collect_estimates=True)
    p = len(config.truth.beta[1])
    attempted = replicates * len(w.tasks)
    failed = 0
    violations = []
    for approach, model in w.tasks:
        spec = ModelSpec.from_code(model)
        labels = ["none"] if spec.scheme == "none" else ["1", "2"]
        params = [f"beta{j + 1}" for j in range(p)]
        params += [] if spec.baseline_time_varying else ["lambda0"]
        rows = {(r.stratum, r.parameter): r for r in report.rows
                if (r.approach, r.model) == (approach, model)}
        if not rows:  # the library dropped this task in every replicate
            failed += replicates
            continue
        n_failed = next(iter(rows.values())).n_failed
        failed += n_failed
        for key in [(s, q) for s in labels for q in params]:
            row = rows.get(key)
            if row is None or row.n_replicates != replicates - n_failed:
                violations.append(f"{approach} {model} {key}: row missing or wrong n_replicates")
                failed += 1
        task_est = estimates[(approach, model)]
        values = np.array([task_est[k] for k in sorted(task_est)], dtype=float)
        bad = int((~np.all(np.isfinite(values), axis=0)).sum())
        if bad:
            violations.append(f"{approach} {model}: {bad} replicates with non-finite estimates")
            failed += bad
    digest = _digest([report.to_csv()] + [
        np.asarray(estimates[t][k], dtype=float).tobytes()
        for t in estimates for k in sorted(estimates[t])
    ])
    return Outcome(replicates, attempted, failed, violations, digest)


def problem_size(w: Workload, inputs: dict, seed: int, size: int) -> dict:
    """Cohort subjects and events of the first chunk: the first resample
    cohort, or the first replicate (seeded as ``replicate_study`` seeds it)."""
    from recurstrat import simulate

    if w.name == "resample":
        cohort = inputs["data"][0][0]
    else:
        rep_seed = np.random.SeedSequence(chunk_seed(seed, 0)).generate_state(
            size, dtype=np.uint64)[0]
        config = replace(inputs["config"], seed=int(rep_seed))
        cohort = simulate.extract_cohort(simulate.simulate_population(config), *config.window)
    return {"population": inputs["config"].population_size,
            "cohort_subjects": cohort.n_subjects, "cohort_events": cohort.n_events}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports recurstrat, from
    process start to exit."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                       capture_output=True, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_now_mb():
    """The process's peak resident set so far (VmHWM), or None off Linux."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
        "seed": seed,
    }


def measure_untraced(w: Workload, seed: int, seconds: float, size: int, population: int):
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # so two input sets are never alive at once
        t0 = time.perf_counter()
        inputs = prepare(w, seed, population)
        setup_samples.append(time.perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(setup_samples)
    setup_peak = peak_rss_now_mb()
    outcomes, chunk_s = [], []
    cycles = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    # whole cycles only, so every run times the same inputs in the same mix
    while not cycles or (time.perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        for chunk in range(w.cycle):
            t0 = time.perf_counter()
            outcomes.append(run_chunk(w, inputs, seed, chunk, size))
            chunk_s.append(time.perf_counter() - t0)
        cycles += 1
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    items = sum(o.items for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rates = [o.items / t for o, t in zip(outcomes, chunk_s)]
    metrics = {
        "setup_s": setup_s,
        # the rate of the fastest tenth of chunks: host slowdowns and the
        # replicates whose M-step solves hit their cap fall in the slower ones
        "items_per_s": statistics.quantiles(rates, n=10, method="inclusive")[8]
        if len(rates) > 1 else rates[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed / attempted,
    }
    detail = {
        "cycles": cycles, "chunks": len(outcomes), "items": items,
        "timed_s": elapsed, "timed_cpu_s": cpu,
        "items_per_s_total": items / elapsed,
        "chunk_s": chunk_s,
        "digests": [o.digest for o in outcomes],
        # the timed phase set peak_rss_mb only if its peak exceeds set-up's
        "peak_rss_setup_mb": setup_peak, "peak_rss_end_mb": peak_rss_now_mb(),
        "problem": problem_size(w, inputs, seed, size),
    }
    violations = [v for o in outcomes for v in o.violations]
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, \
        attempted, failed, violations, detail


def _run_traced_chunks(w: Workload, inputs: dict, seed: int, size: int):
    t0 = time.perf_counter()
    outcomes = [run_chunk(w, inputs, seed, chunk, size) for chunk in range(w.traced_chunks)]
    return outcomes, time.perf_counter() - t0


def measure_traced(w: Workload, seed: int, size: int, population: int):
    inputs = prepare(w, seed, population)
    plain, plain_s = _run_traced_chunks(w, inputs, seed, size)
    inputs = None
    tracer = Tracer()
    with tracer:
        inputs = prepare(w, seed, population)
        traced, traced_s = _run_traced_chunks(w, inputs, seed, size)
    violations = [v for o in traced for v in o.violations]
    digests = [o.digest for o in traced]
    if digests != [o.digest for o in plain]:
        violations.append("traced and untraced passes gave different outputs")
    norm_misses = tracer.counts["check.score_norm_violations"]
    if norm_misses:
        violations.append(f"{norm_misses} converged census fits miss the score-norm bound")
    cohorts = tracer.counts["problem.cohorts"]
    detail = {
        "chunks": len(traced), "items": sum(o.items for o in traced), "digests": digests,
        "untraced_digests": [o.digest for o in plain],
        "trace_overhead_s": traced_s - plain_s,
        "trace_overhead_ratio": traced_s / plain_s - 1.0,
        "spans": len(tracer.spans),
        "absent_targets": sorted(tracer.absent),
        "problem": {
            "population": inputs["config"].population_size,
            "mean_cohort_subjects": tracer.counts["problem.cohort_subjects"] / max(cohorts, 1),
            "mean_cohort_events": tracer.counts["problem.cohort_events"] / max(cohorts, 1),
        },
    }
    return layer_metrics(tracer), sum(o.attempted for o in traced), \
        sum(o.failed for o in traced) + norm_misses, violations, detail


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")


def run_one(args) -> int:
    if not (SRC / "recurstrat" / "__init__.py").is_file():
        print(f"error: the library sources are missing under {SRC}", file=sys.stderr)
        return 2
    if not SPEC_FILE.is_file():
        print(f"error: {SPEC_FILE.name} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recurstrat

    if Path(recurstrat.__file__).resolve().parent != SRC / "recurstrat":
        print(f"error: imported recurstrat from {recurstrat.__file__}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    w = WORKLOADS[args.workload]
    seed = w.seed if args.seed is None else args.seed
    size = args.size or w.chunk
    population = args.population or w.population
    if args.trace:
        metrics, attempted, failed, violations, detail = measure_traced(
            w, seed, size, population)
        listed = spec["per_layer"]
    else:
        metrics, attempted, failed, violations, detail = measure_untraced(
            w, seed, args.seconds, size, population)
        listed = spec["end_to_end"]
    mode = "traced" if args.trace else "untraced"
    _print_metrics(f"workload {w.name} ({mode}, seed {seed}, {detail['items']} {w.item}s)",
                   metrics)
    for v in violations:
        print(f"  CHECK FAILED: {v}")
    detail.update(workload=w.name, trace=int(args.trace), env=environment(seed),
                  attempted=attempted, failed=failed, violations=violations,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {}
    for entry in listed:
        value, unit = metrics.get(entry["name"], (None, entry["unit"]))
        if unit != entry["unit"]:
            print(f"error: {entry['name']} is measured in {unit}, not {entry['unit']}",
                  file=sys.stderr)
            return 3
        if value is None:  # its wrap target is gone or it had no samples
            print(f"warning: {entry['name']} is absent", file=sys.stderr)
            continue
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not violations, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload at acceptance scale, untraced then traced, each in its
    own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("detail ")))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the untraced timed phase, in whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population", type=int, default=0,
                        help="population size (default: the workload's, 100,000)")
    parser.add_argument("--size", type=int, default=0,
                        help="draws or replicates per chunk (default: the workload's)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
