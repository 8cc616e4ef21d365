"""Run the benchmark in two checkouts, seed by seed, and print the paired table.

Usage:
    python3 tools/bench_pairs.py --base ../parent --change . \
        --workload paper-cell --seeds 501-510

For each seed it runs `bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, with T the `run_seconds` of the change's
BENCHMARK.json, alternating which side runs first (the
base on pairs 1, 3, 5, ..., the change on the others), so drift on the box falls on
both sides alike. It then prints a header with `--seeds` as given and, per
end-to-end metric of the change's BENCHMARK.json: the median of each side, the
relative move of the medians, each side's quartiles, and on how many pairs the
change was better. Then come
the attempted and failed operation counts of each side, summed over its
runs, and last, per metric, whether the change meets the claim rule: it wins
at least nine tenths of the pairs (ties count for neither side) and its median
beats the base's by more than the base's quartile spread (Q3 - Q1). After
those, per metric, comes its no-regression verdict against the metric's
`bound` in BENCHMARK.json: `worse` when the change's median is worse than the
base's by more than the bound (relative to the base's median), else
`unresolved` when the base's quartile spread, relative to its median, is
wider than the bound and not every change run beats every base run, else
`ok`. A run that exits non-zero stops the tool with its error output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    """'501-510' or '1,4,9' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(checkout, workload, seed, seconds):
    """The result object that one `bench/run.py` run prints last."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                 f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(v):
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def table(metrics, base, change):
    """The paired-run report as lines of text."""
    lines = [f"{'metric':<20} {'base':>12} {'change':>12} {'move':>8} {'base Q1':>12} "
             f"{'base Q3':>12} {'change Q1':>12} {'change Q3':>12} {'change wins':>12}"]
    claims, bounds = [], []
    for m in metrics:
        a = [r["metrics"][m["name"]]["value"] for r in base]
        b = [r["metrics"][m["name"]]["value"] for r in change]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        c1, _, c3 = statistics.quantiles(b, n=4, method="inclusive")
        mid_a, mid_b = statistics.median(a), statistics.median(b)
        move = (mid_b - mid_a) / mid_a if mid_a else float("nan")
        lines.append(f"{m['name']:<20} {fmt(mid_a):>12} {fmt(mid_b):>12} {move:>+8.1%} "
                     f"{fmt(q1):>12} {fmt(q3):>12} {fmt(c1):>12} {fmt(c3):>12} "
                     f"{f'{wins}/{len(a)}':>12}")
        need, gap = -(-9 * len(a) // 10), sign * (mid_b - mid_a)
        verdict = "met" if wins >= need and gap > q3 - q1 else "not met"
        claims.append(f"claim {m['name']}: {verdict} (wins {wins}/{len(a)}, need {need}; "
                      f"median gain {fmt(gap)} vs base quartile spread {fmt(q3 - q1)})")
        spread = (q3 - q1) / abs(mid_a) if mid_a else float("nan")
        beats_all = min(b) > max(a) if sign > 0 else max(b) < min(a)
        if -sign * move > m["bound"]:
            verdict = "worse"
        elif not spread <= m["bound"] and not beats_all:  # a NaN spread is unresolved too
            verdict = "unresolved"
        else:
            verdict = "ok"
        bounds.append(f"bound {m['name']}: {verdict} (median move {move:+.1%}, base quartile "
                      f"spread {spread:.1%} of its median, bound {m['bound']:.0%})")
    for side, runs in (("base", base), ("change", change)):
        lines.append(f"{side}: attempted {sum(r['attempted'] for r in runs)}, "
                     f"failed {sum(r['failed'] for r in runs)}, "
                     f"correct {sum(bool(r['correct']) for r in runs)}/{len(runs)} runs")
    return lines + claims + bounds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--change", required=True, type=Path, help="checkout with the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="'501-510' or '1,4,9'")
    args = p.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        p.error(f"--seeds {args.seeds!r} is not '501-510' or '1,4,9'")
    if len(seeds) < 2:
        p.error("quartiles need at least two seeds")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    base, change = [], []
    for i, seed in enumerate(seeds):
        sides = [(args.base, base), (args.change, change)]
        for checkout, out in sides if i % 2 == 0 else sides[::-1]:
            out.append(run_once(checkout, args.workload, seed, seconds))
        print(f"pair {i + 1}/{len(seeds)} (seed {seed}) done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {len(seeds)} pairs, seeds {args.seeds}, "
          f"--seconds {seconds:g}, base first on pairs 1, 3, 5, ...")
    print("\n".join(table(metrics, base, change)))


if __name__ == "__main__":
    main()
