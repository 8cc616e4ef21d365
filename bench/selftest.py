"""Self-test of the benchmark, in seconds: python3 bench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, with no failed
   operation, and prints exactly the metric names BENCHMARK.json lists.
2. Corrupted outputs are reported as failed operations: a perturbed
   report.json value, a truncated store, a perturbed audit score, an edited
   comparison.csv, and a perturbed in-memory report and non-finite weights
   in the two cells.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero and prints no result.

Exit code 0 when every case passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import run

pkg = run.import_package()

import harness  # noqa: E402  (needs the package on sys.path first)
import workloads as wl  # noqa: E402

ROOT = run.ROOT
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
QUIET = open(os.devnull, "w")


def tiny(workload, traced=False, tamper=None):
    with contextlib.redirect_stdout(QUIET):  # the CLI's "wrote ..." lines
        return harness.run(pkg, workload, 0, 0.0, traced, ROOT, scale=wl.TINY,
                           tamper=tamper, log=QUIET)


def verdict(results, name, ok, detail=""):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def edit_json(path, fn):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def score_tamper(when, action):
    def tamper(name, work):
        if name == when:
            action(work)
    return tamper


def bump_report(work):
    edit_json(os.path.join(work, "eval", "report.json"),
              lambda d: d.update(map_exclusive=d["map_exclusive"] + 1e-4))


def truncate_store(work):
    path = os.path.join(work, "test", "test.store")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 4)


def bump_audit(work):
    edit_json(os.path.join(work, "audit", "audit.json"),
              lambda d: d["pairs"][0].update(score=d["pairs"][0]["score"] * 1.001))


def edit_csv(work):
    path = os.path.join(work, "report", "comparison.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[3] = f"{float(cells[3]) - 0.001:.6f}"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def bump_cell_report(cell):
    cell.reports["standard"].map_exclusive += 1e-4


def nan_weights(cell):
    cell.artifacts["negative_penalty"].params.head[0, 0] = float("nan")


def main() -> int:
    results = []
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for traced, names in ((False, e2e), (True, per_layer)):
            r = tiny(workload, traced)
            got = set(r["metrics"])
            verdict(results, f"{workload} trace={int(traced)} runs clean",
                    r["correct"] and r["failed"] == 0 and r["attempted"] > 0
                    and got == names,
                    f"attempted {r['attempted']}, failed {r['failed']}, "
                    f"missing {sorted(names - got)}, extra {sorted(got - names)}")
            if not traced:
                zero = sorted(k for k, v in r["metrics"].items() if not v["value"] > 0)
                verdict(results, f"{workload} end-to-end metrics all > 0", not zero, str(zero))

    corruptions = [
        ("score-at-scale", "perturbed report.json value", score_tamper("eval", bump_report)),
        ("score-at-scale", "truncated test store", score_tamper("gen", truncate_store)),
        ("score-at-scale", "perturbed audit score", score_tamper("audit", bump_audit)),
        ("score-at-scale", "edited comparison.csv", score_tamper("report", edit_csv)),
        ("paper-cell", "perturbed in-memory report", bump_cell_report),
        ("baselines-cell", "non-finite weights", nan_weights),
    ]
    for workload, what, tamper in corruptions:
        r = tiny(workload, tamper=tamper)
        verdict(results, f"{workload}: {what} counted as failed",
                not r["correct"] and r["failed"] > 0,
                f"attempted {r['attempted']}, failed {r['failed']}")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    verdict(results, "without the program: non-zero exit, no result",
            proc.returncode != 0 and '"correct"' not in proc.stdout,
            f"exit {proc.returncode}, stderr {proc.stderr.strip()[:120]!r}")

    print(f"{sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
