"""Paired A/B timing of two checkouts' training stages, in one process.

Usage: OPENBLAS_NUM_THREADS=1 python3 tools/ab_stage.py --base ../parent --change . \
           --method cam [--rounds 30] [--fraction 0.05] [--seed 0] [--set KEY=VALUE ...]

It imports each checkout's `src/debias` under its own module name, and the
base a second time as a third arm, `again`, whose ratio to the base is the
A/A figure: all arms share one heap and one cache, so that is the noise any
A/B ratio here carries. Each arm writes the benchmark-cell training set of
`--fraction` and `--seed` into its own temporary directory. A round runs, in
every arm, `train.train_stage1` with the planted pairs pinned and then
`train.train_stage2` for `--method` on `cli.benchmark_recipe` (with the
`--set` overrides, parsed by each arm's `cli.parse_overrides`), timing each stage with `time.process_time`. The arms run
base, change, again on even rounds and in the reverse order on odd ones. It
prints whether the first round's trained weights of the change and of the
second base copy are byte-identical to the base's, or else the largest
difference. Then, per stage, the median and quartiles of the per-round ratio
change/base and on how many rounds the change was faster, beside the same
figures for again/base. Last comes one verdict per stage: a claim needs the
change faster (or slower) on at least nine tenths of the rounds and a median
ratio outside the A/A quartiles; anything else is "no claim".
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

STAGES = ("stage1", "stage2")


def load_package(checkout, name):
    """The debias package under `checkout`/src, imported as module `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]
    pkg_dir = Path(checkout).resolve() / "src" / "debias"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "data", "train"):  # the package imports its own modules relatively
        importlib.import_module(f"{name}.{sub}")
    return pkg


class Arm:
    """One imported package with its own copy of the training set."""

    def __init__(self, name, checkout, work, args):
        self.pkg = load_package(checkout, f"ab_{name}")
        cli, data = self.pkg.cli, self.pkg.data
        overrides = cli.parse_overrides(args.set)
        gen_train, _ = data.benchmark_configs(
            args.fraction, 1000 + args.seed, 2000 + args.seed, 3000 + args.seed)
        self.manifest = data.generate_dataset(gen_train, Path(work) / name, "train")
        self.stage1_cfg = cli.benchmark_recipe(seed=args.seed, **overrides)
        self.stage2_cfg = cli.benchmark_recipe(method=args.method, seed=args.seed, **overrides)

    def run(self):
        """(stage-1 seconds, stage-2 seconds, trained params) of one round."""
        train = self.pkg.train
        t0 = time.process_time()
        arts = train.train_stage1(self.manifest, self.stage1_cfg, self.pkg.cli.PLANTED_PAIRS)
        t1 = time.process_time()
        params = train.train_stage2(arts, self.manifest, self.stage2_cfg).params
        return t1 - t0, time.process_time() - t1, params


def weights_line(name, base, other):
    """Whether `other`'s mixer and head are byte-identical to `base`'s, else how far apart."""
    pairs = ((base.mixer, other.mixer), (base.head, other.head))
    if any(a.shape != b.shape for a, b in pairs):
        return f"weights {name}: shapes differ"
    if all(a.tobytes() == b.tobytes() for a, b in pairs):
        return f"weights {name}: byte-identical"
    diff = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    return f"weights {name}: differ, largest difference {diff:.3g}"


def describe(ratios):
    """'median r (Q1 q1, Q3 q3), faster on k/n' of per-round time ratios."""
    q1, mid, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    faster = sum(r < 1 for r in ratios)
    return f"median {mid:.4f} (Q1 {q1:.4f}, Q3 {q3:.4f}), faster on {faster}/{len(ratios)}"


def verdict(ab, aa):
    """The claim the per-round ratios `ab` support against the A/A ratios `aa`."""
    q1, _, q3 = statistics.quantiles(aa, n=4, method="inclusive")
    mid, need = statistics.median(ab), -(-9 * len(ab) // 10)
    faster, slower = sum(r < 1 for r in ab), sum(r > 1 for r in ab)
    if faster >= need and mid < q1:
        return f"change faster (faster on {faster}/{len(ab)}, median {mid:.4f} < A/A Q1 {q1:.4f})"
    if slower >= need and mid > q3:
        return f"change slower (slower on {slower}/{len(ab)}, median {mid:.4f} > A/A Q3 {q3:.4f})"
    return (f"no claim (faster on {faster}/{len(ab)}, slower on {slower}, need {need}; "
            f"median {mid:.4f}, A/A quartiles {q1:.4f}-{q3:.4f})")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--change", required=True, type=Path, help="checkout with the change")
    p.add_argument("--method", required=True, help="stage-2 method, e.g. cam or standard")
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a benchmark recipe field in every arm")
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("quartiles need at least two rounds")
    times = {name: {s: [] for s in STAGES} for name in ("base", "change", "again")}
    with tempfile.TemporaryDirectory() as work:
        arms = {name: Arm(name, checkout, work, args) for name, checkout in (
            ("base", args.base), ("change", args.change), ("again", args.base))}
        first = {}
        for r in range(args.rounds):
            for name in list(arms) if r % 2 == 0 else list(arms)[::-1]:
                t1, t2, params = arms[name].run()
                times[name]["stage1"].append(t1)
                times[name]["stage2"].append(t2)
                first.setdefault(name, params)
    print(f"{args.method}: {args.rounds} rounds, fraction {args.fraction:g}, seed {args.seed}, "
          f"process time, base-change-again on even rounds and reversed on odd ones")
    print(weights_line("change", first["base"], first["change"]))
    print(weights_line("again", first["base"], first["again"]))
    verdicts = []
    for stage in STAGES:
        base = times["base"][stage]
        ab = [c / b for c, b in zip(times["change"][stage], base)]
        aa = [a / b for a, b in zip(times["again"][stage], base)]
        print(f"{stage}: base median {statistics.median(base):.4f} s; change/base {describe(ab)}; "
              f"A/A again/base {describe(aa)}")
        verdicts.append(f"claim {stage}: {verdict(ab, aa)}")
    print("\n".join(verdicts))


if __name__ == "__main__":
    main()
