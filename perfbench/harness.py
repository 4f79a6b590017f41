"""Timing loop, metrics and the traced run.

``pass_s`` is the time of one pass over a workload's inputs at the
machine's undisturbed speed: for each class of equal-work operations, the
fastest of its per-operation wall times, times the number of such
operations in a pass, summed over classes.  A shared two-core machine runs
the same loop at speeds up to 1.6x apart, in phases that last from seconds
to minutes; a whole-run total or median mixes them in whatever proportion a
run happened to get, and so does the 10th percentile when a slow phase
covers nine tenths of a run.  The minimum over like operations needs only
one undisturbed operation per class.

In a traced run every other operation of each class runs with the tracer
installed; per-layer figures are means over the traced operations, scaled
to one pass, and ``trace.overhead_pct`` compares the pass time of the
traced operations with that of the untraced ones from the same run.
"""

from __future__ import annotations

import json
import os
import resource
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

QUANTILE = 0  # percentile of per-operation time that pass_s uses

# per-layer metrics: (name, unit); the README maps each to the end-to-end
# metric it should move
LAYER_METRICS = [
    ("params.thresholds.calls", "count"),
    ("params.thresholds.repeat_ratio", "ratio"),
    ("numerics.find_root_bracketed.calls", "count"),
    ("numerics.find_root_bracketed.self_ms", "ms"),
    ("numerics.newton_solve.calls", "count"),
    ("numerics.newton_solve.self_ms", "ms"),
    ("numerics.newton_solve.per_state", "ratio"),
    ("profiles.steady_residual_fields.calls", "count"),
    ("profiles.steady_residual_fields.self_ms", "ms"),
    ("profiles.profile_from_zeta.self_ms", "ms"),
    ("profiles.continue_curve.self_ms", "ms"),
    ("profiles.even_profile.self_ms", "ms"),
    ("functionals.evaluate.calls", "count"),
    ("functionals.evaluate.self_ms", "ms"),
    ("functionals.evaluate.per_state", "ratio"),
    ("functionals.energy_along_curve.self_ms", "ms"),
    ("functionals.dissipation.self_ms", "ms"),
    ("fvm.step.calls", "count"),
    ("fvm.step.self_ms", "ms"),
    ("fvm.step.self_us_per_call", "us"),
    ("fvm.face_velocities.self_ms", "ms"),
    ("fvm.run.self_ms", "ms"),
    ("fvm.cell_averages.calls", "count"),
    ("fvm.cell_averages.self_ms", "ms"),
    ("fvm.cell_averages.repeat_ratio", "ratio"),
    ("fvm.l2_distance.calls", "count"),
    ("fvm.l2_distance.self_ms", "ms"),
    ("fvm.init_state.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("setup.profiles.steady_residual_fields.calls", "count"),
    ("setup.profiles.steady_residual_fields.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


def fresh_dir(root: Path, stem: str) -> Path:
    """A directory no earlier run has used; nothing in it is ever rewritten."""
    d = root / f"{stem}-{os.getpid()}-{time.time_ns()}"
    d.mkdir(parents=True)
    return d


def pass_time(samples: dict, counts: dict, q: float = QUANTILE) -> float:
    """Sum over classes of (operations per pass) x (q-th percentile time)."""
    return sum(n * float(np.percentile(samples[c], q)) for c, n in counts.items())


def per_pass(values: dict, counts: dict) -> float:
    """Sum over classes of (operations per pass) x (mean over measured ops)."""
    return sum(n * float(np.mean(values[c])) for c, n in counts.items())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, out_root: Path,
            short: bool = False, probe=None, n_probes: int = 0):
    """Run one workload.

    ``probe``, when given, is called ``n_probes`` times at evenly spaced
    moments of the run, between operations, so that its figures sample the
    run's slow and fast phases alike.  Returns the result object, the report
    lines, the run's own output directory and the probe results.
    """
    run_dir = fresh_dir(out_root, f"{name}-s{seed}-t{int(trace)}")
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    wl = WORKLOADS[name](seed, short, run_dir)
    setup_end = tracer.mark() if tracer else 0
    if tracer:
        tracer.uninstall()

    plain, traced = defaultdict(list), defaultdict(list)
    spans = []  # (class, lo, hi) of each traced operation
    seen = Counter()
    attempted = failed = rounds = 0
    errors = []
    probe_at = [i * seconds / n_probes for i in range(n_probes)] if probe else []
    probed = []
    t_begin = time.perf_counter()
    while (rounds == 0 or time.perf_counter() - t_begin < seconds
           or (trace and rounds < 2)) and not errors:
        for cls, fn, tag in wl.ops(rounds):
            while probe_at and time.perf_counter() - t_begin >= probe_at[0]:
                probe_at.pop(0)
                probed.append(probe())
            on = trace and seen[cls] % 2 == 1
            seen[cls] += 1
            if on:
                tracer.install()
                lo = tracer.mark()
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception:
                failed += 1
                errors.append(traceback.format_exc())
                break
            finally:
                dt = time.perf_counter() - t0
                if on:
                    tracer.uninstall()
            (traced if on else plain)[cls].append(dt)
            if on:
                spans.append((cls, lo, tracer.mark()))
            wl.collect(rounds, cls, tag, result)
        rounds += 1
    wall = time.perf_counter() - t_begin
    probed += [probe() for _ in probe_at]

    problems = [] if errors else wl.check()
    counts = wl.pass_counts
    lines = [f"{name} seed {seed}: {rounds} round(s), {attempted} operations in {wall:.2f} s, "
             f"{failed} failed"]
    lines += [f"  operation failed: {e.strip().splitlines()[-1]}" for e in errors]
    lines += [f"  check failed: {p}" for p in problems]
    if not errors:
        lines.append(f"  pass_s at per-op min {pass_time(plain, counts):.4f}, "
                     f"at per-op median {pass_time(plain, counts, 50):.4f}, "
                     f"at per-op p90 {pass_time(plain, counts, 90):.4f} "
                     f"({sum(len(v) for v in plain.values())} untraced ops, {len(counts)} classes)")
        lines += ["  " + s for s in wl.report()]

    metrics = {}
    if not errors and not trace:
        metrics["pass_s"] = {"value": pass_time(plain, counts), "unit": "s"}
    elif not errors:
        metrics = layer_metrics(wl, tracer, setup_end, spans, plain, traced, counts)
        tracer.write(run_dir / "spans.npz")
    result = {"correct": not errors and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    times = {"pass_counts": {str(c): n for c, n in counts.items()},
             "untraced": {str(c): v for c, v in plain.items()},
             "traced": {str(c): v for c, v in traced.items()}}
    (run_dir / "op_seconds.json").write_text(json.dumps(times) + "\n")
    return result, lines, run_dir, probed


def layer_metrics(wl, tracer, setup_end, spans, plain, traced, counts) -> dict:
    self_s = tracer.self_seconds()
    per_op = defaultdict(lambda: defaultdict(list))  # metric -> class -> values
    for cls, lo, hi in spans:
        for key, v in tracer.summarize(lo, hi, self_s).items():
            per_op[key][cls].append(v)
    pp = {key: per_pass(vals, counts) for key, vals in per_op.items()}
    extra = wl.pass_figures()
    setup = tracer.summarize(0, setup_end, self_s)
    # every pass repeats the same inputs, so the keys seen over all traced
    # operations are the distinct keys of one pass
    ranges = [(lo, hi) for _, lo, hi in spans]
    values = {
        "params.thresholds.repeat_ratio": _ratio(pp["params.thresholds.calls"],
                                                 tracer.distinct("params.thresholds", ranges)),
        "fvm.cell_averages.repeat_ratio": _ratio(pp["fvm.cell_averages.calls"],
                                                 tracer.distinct("fvm.cell_averages", ranges)),
        "numerics.newton_solve.per_state": _ratio(pp["numerics.newton_solve.calls"],
                                                  extra.get("interior_states", 0)),
        "functionals.evaluate.per_state": _ratio(pp["functionals.evaluate.calls"],
                                                 extra.get("curve_states", 0)),
        "fvm.step.self_us_per_call": _ratio(1e3 * pp["fvm.step.self_ms"], pp["fvm.step.calls"]),
        "cli.bytes_written": extra.get("bytes_written", 0.0),
        "setup.profiles.steady_residual_fields.calls":
            setup["profiles.steady_residual_fields.calls"],
        "setup.profiles.steady_residual_fields.self_ms":
            setup["profiles.steady_residual_fields.self_ms"],
        "trace.overhead_pct": 100.0 * (pass_time(traced, counts) / pass_time(plain, counts) - 1.0),
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        out[metric] = {"value": values[metric] if metric in values else pp[metric], "unit": unit}
    return out


def end_to_end(result: dict, setup_s: float | None) -> dict:
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return result

