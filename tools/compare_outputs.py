"""Byte-identity check of two checkouts: run the `debias` CLI pipeline and a
benchmark-cell grid in each and compare every output file.

Usage: python3 tools/compare_outputs.py --base ../parent --change . [--set k=v ...]

On the fraction-0.05 benchmark configs of seed 0 it runs `debias gen`, then
`train` (planted pairs pinned) and `eval` for cam, feature-split, standard and
split, one unpinned standard `train` (stage 1 selects its pairs) and its
`eval`, one `report`, a one-cell `sweep` and an `audit` of the standard
checkpoint's test-set scores (54 files). Then it trains the `GRID` cells with
`cli.run_benchmark_cell` and writes one `digests/` file per run (33 files):
fraction, seed, method and the SHA-256s of the trained mixer, head, loss curve
and stage-2 step log, and of the report. Each step runs in a subprocess with
one BLAS thread, the checkout's `src/` on PYTHONPATH and the same relative
paths on both sides; a failing step stops the tool (exit 2). `--set` overrides
reach every `train`, the sweep and the grid. It prints each file that differs
or is on one side only, then a count, and exits 1 if any differs, else 0.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("cam", "feature-split", "standard", "split")
PAIRS = "0:1,2:3"  # data.BENCH_PAIRS, one pair per biased category as split needs

CONFIGS = """
from debias import cli, data
gen_train, gen_test = data.benchmark_configs(0.05, 1000, 2000, 3000)
data.dump_json(gen_train.to_dict(), "gen_train.json")
data.dump_json(gen_test.to_dict(), "gen_test.json")
data.dump_json(cli.benchmark_recipe().to_dict(), "train.json")
"""

GRID = [  # (fraction, seeds, methods) of the benchmark cells whose training is digested
    (0.05, [0, 1, 2, 3, 4], ["standard", "ours_feature_split", "ours_cam"]),
    (0.25, [0, 1, 2], ["standard", "remove_cooccur_labels", "remove_cooccur_images",
                       "weighted_loss", "negative_penalty", "split_biased"]),
]

# argv: GRID as JSON, then KEY=VALUE overrides parsed as `--set` parses them. It calls only
# names the benchmark pins (run_benchmark_cell, TrainArtifacts, EvalReport), so any parent runs it
DIGESTS = """
import hashlib, json, os, sys, tempfile
import numpy as np
from debias import cli
overrides = {}
for key, raw in (kv.split("=", 1) for kv in sys.argv[2:]):
    try:
        overrides[key] = json.loads(raw)
    except ValueError:
        overrides[key] = raw
os.mkdir("digests")
for fraction, seeds, methods in json.loads(sys.argv[1]):
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:
            cell = cli.run_benchmark_cell(fraction, seed, methods, work, overrides)
        for method in methods:
            arts = cell.artifacts[method]
            stage2 = [e for e in arts.step_log if e.get("stage") == 2]
            training = hashlib.sha256(
                arts.params.mixer.tobytes() + arts.params.head.tobytes()
                + np.asarray(arts.loss_curve, dtype=np.float64).tobytes()
                + json.dumps(stage2, sort_keys=True).encode())
            report = json.dumps(cell.reports[method].to_dict(), sort_keys=True).encode()
            with open(f"digests/{fraction:g}_s{seed}_{method}.txt", "w") as fh:
                fh.write(f"{fraction:g} {seed} {method} {training.hexdigest()} "
                         f"{hashlib.sha256(report).hexdigest()}\\n")
"""

PREDS = """
import numpy as np
from debias import data, model
params, _ = model.load_checkpoint("train/standard/checkpoint.json")
pooled = data.load_pooled(data.load_manifest("data/test/test.manifest.json"))
np.savetxt("preds.csv", model.predict(params, pooled), fmt="%.17g", delimiter=",")
"""


def run_pipeline(checkout, out, sets):
    """Write every pipeline output of `checkout` under `out`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(checkout).resolve() / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    overrides = [arg for kv in sets for arg in ("--set", kv)]
    steps = [
        ["-c", CONFIGS],
        ["-m", "debias.cli", "gen", "--config", "gen_train.json", "--out", "data/train"],
        ["-m", "debias.cli", "gen", "--config", "gen_test.json", "--out", "data/test",
         "--split", "test"],
    ]
    for m in METHODS:
        steps.append(["-m", "debias.cli", "train", "--config", "train.json", "--data",
                      "data/train", "--method", m, "--pairs", PAIRS, "--out", f"train/{m}",
                      *overrides])
        steps.append(["-m", "debias.cli", "eval", "--checkpoint", f"train/{m}", "--data",
                      "data/test", "--out", f"eval/{m}"])
    # unpinned: stage 1 selects the pairs, and eval reads them from the checkpoint
    steps.append(["-m", "debias.cli", "train", "--config", "train.json", "--data", "data/train",
                  "--method", "standard", "--out", "train/standard-selected", *overrides])
    steps.append(["-m", "debias.cli", "eval", "--checkpoint", "train/standard-selected",
                  "--data", "data/test", "--out", "eval/standard-selected"])
    steps.append(["-m", "debias.cli", "report", "--inputs", *(f"eval/{m}" for m in METHODS),
                  "--out", "report"])
    steps.append(["-m", "debias.cli", "sweep", "--fractions", "0.05", "--seeds", "0",
                  "--methods", "cam,standard", "--out", "sweep", *overrides])
    steps.append(["-c", PREDS])
    steps.append(["-m", "debias.cli", "audit", "--labels", "data/test", "--preds", "preds.csv",
                  "--out", "audit"])
    steps.append(["-c", DIGESTS, json.dumps(GRID), *sets])
    for argv in steps:
        proc = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: {checkout}: {' '.join(argv[:5])} ... exited {proc.returncode}\n"
                  f"{proc.stderr.strip()}", file=sys.stderr)
            raise SystemExit(2)


def files_under(root):
    return {str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file()}


def compare(base_out, change_out) -> int:
    """Print one line per differing file and a count; 1 if any differ, else 0."""
    base, change = files_under(base_out), files_under(change_out)
    lines = [f"only in base: {f}" for f in sorted(base - change)]
    lines += [f"only in change: {f}" for f in sorted(change - base)]
    lines += [
        f"differs: {f}" for f in sorted(base & change)
        if not filecmp.cmp(Path(base_out) / f, Path(change_out) / f, shallow=False)
    ]
    for line in lines:
        print(line)
    print(f"{len(base | change)} files, {len(lines)} differ")
    return 1 if lines else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--change", required=True, type=Path, help="checkout with the change")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a train config field in both checkouts")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work) / "base", Path(work) / "change"]
        for checkout, out in zip((args.base, args.change), outs):
            out.mkdir()
            run_pipeline(checkout, out, args.set)
        return compare(*outs)


if __name__ == "__main__":
    sys.exit(main())
