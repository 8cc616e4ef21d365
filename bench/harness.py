"""Drives one workload: set-up, timed rounds, checks, metrics.

Set-up runs `setups` times (once when tracing) and `setup_s` is the median.
The timed loop then runs whole rounds until `seconds` have passed, at least
one. Time figures are medians over rounds (or over set-ups, for the training
that score-at-scale does in set-up).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

import trace
import workloads as wl

# BENCHMARK.json names, in order
END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("stage2_s", "s"),
    ("train_samples_per_s", "1/s"),
)


def unit_of(name):
    units = dict(END_TO_END)
    if name in units:
        return units[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "data.store_bytes_written":
        return "B"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def make_workload(pkg, probe, name, scale, seed):
    if name == "paper-cell":
        return wl.PaperCell(pkg, probe, scale, seed)
    if name == "baselines-cell":
        return wl.BaselinesCell(pkg, probe, scale, seed)
    return wl.ScoreAtScale(pkg, probe, scale, seed)


def run(pkg, workload, seed, seconds, traced, root, scale=wl.FULL, tamper=None,
        log=sys.stderr):
    """One benchmark run; returns the result object."""
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    wl.reset(work)
    patches = trace.Patches()
    tracer = trace.Tracer(pkg) if traced else None
    probe = trace.Probe(pkg)
    try:
        if tracer is not None:
            tracer.install(patches)
        probe.install(patches)
        w = make_workload(pkg, probe, workload, scale, seed)
        setup_dir = os.path.join(work, "setup")
        setup_times = []
        for _ in range(1 if traced else w.setups):
            wl.reset(setup_dir)
            t0 = time.perf_counter()
            w.setup(setup_dir)
            setup_times.append(time.perf_counter() - t0)

        rounds, ops = [], []
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start < seconds:
            round_dir = os.path.join(work, "round")
            wl.reset(round_dir)
            if isinstance(w, wl.ScoreAtScale):
                secs, round_ops, timings = w.round(setup_dir, round_dir, tamper)
            else:
                secs, round_ops, timings = w.round(round_dir, tamper)
            rounds.append((secs, timings))
            ops += round_ops
            for op in round_ops:
                if not op.ok:
                    bad = [k for k, v in op.checks.items() if not v]
                    print(f"FAILED {workload} round {len(rounds)} op {op.name}: "
                          f"{bad} {op.error or ''}", file=log)
    finally:
        patches.undo()
        shutil.rmtree(work, ignore_errors=True)

    # failed: the program raised or exited non-zero, or a check on its output
    # was false; correct: no operation returned output that a check refused
    failed = sum(not op.ok for op in ops)
    correct = all(all(op.checks.values()) for op in ops)
    result = {"correct": correct, "attempted": len(ops), "failed": failed}
    run_s = _median([s for s, _ in rounds])
    if traced:
        metrics = tracer.layer_metrics()
        by_method = [t.get("stage2_by_method", {}) for _, t in rounds]
        metrics["stage2_standard_s"] = _median([m.get("standard", 0.0) for m in by_method])
        metrics["stage2_feature_split_s"] = _median(
            [m.get("ours_feature_split", 0.0) for m in by_method])
        metrics["stage2_cam_s"] = _median([m.get("ours_cam", 0.0) for m in by_method])
        metrics["stage2_baselines_s"] = _median(
            [sum(m.get(b, 0.0) for b in wl.BASELINES) for m in by_method])
        metrics["trace.run_s"] = run_s
        spans_dir = os.path.join(root, ".bench_work", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.save(os.path.join(spans_dir, f"{workload}-seed{seed}.npz"))
    else:
        metrics = {"setup_s": _median(setup_times), "run_s": run_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics.update(_training_metrics(w, rounds))
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return result


def _training_metrics(w, rounds):
    # score-at-scale trains in set-up; a cell trains in its timed round
    train = w.setup_timings if isinstance(w, wl.ScoreAtScale) else [t for _, t in rounds if t]
    return {
        "stage2_s": _median([t["stage2_s"] for t in train]),
        "train_samples_per_s": _rate(train, "train_samples", "train_seconds"),
    }


def _rate(timings, work_key, time_key):
    secs = sum(t[time_key] for t in timings)
    return sum(t[work_key] for t in timings) / secs if secs else 0.0


def dumps(result) -> str:
    return json.dumps(result, separators=(",", ":"))
