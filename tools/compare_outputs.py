"""Run the `debias` CLI pipeline in two checkouts and compare every output file.

Usage:
    python3 tools/compare_outputs.py --base ../parent --change . \
        [--set stage1_epochs=2 --set stage2_epochs=2]

In each checkout it writes the fraction-0.05 benchmark configs of seed 0
(`data.benchmark_configs` and `cli.benchmark_recipe`), runs `debias gen` for
the train and the test set, `debias train` with the planted pairs pinned for
cam, feature-split, standard and split, `debias eval` of each checkpoint on
the test set and one `debias report` over the four evaluations (35 files),
then `debias sweep` on one cell (fraction 0.05, seed 0, cam and standard):
its `trend.csv` and `provenance.json`, the cell's two datasets, and each
run's `report.json` and `provenance.json` (10 files, 45 in all). Every
command runs in a subprocess with one BLAS thread, the checkout's `src/` on
PYTHONPATH, no DEBIAS_SEED and the same relative paths on both sides, so the
provenance records match. `--set` overrides pass through to each `debias
train` and to the sweep. It prints one line per file that differs or exists
on one side only, then a count, and exits 1 if any file differs, 0 if none
does. A command that fails stops the tool with its error output (exit 2).
"""

import argparse
import filecmp
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


def run_pipeline(checkout, out, sets):
    """Write every pipeline output of `checkout` under `out`."""
    env = {k: v for k, v in os.environ.items() if k != "DEBIAS_SEED"}
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
    steps.append(["-m", "debias.cli", "report", "--inputs", *(f"eval/{m}" for m in METHODS),
                  "--out", "report"])
    steps.append(["-m", "debias.cli", "sweep", "--fractions", "0.05", "--seeds", "0",
                  "--methods", "cam,standard", "--out", "sweep", *overrides])
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
