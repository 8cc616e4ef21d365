"""Benchmark of the debias package: one workload per run, one JSON result line.

    python3 bench/run.py --workload paper-cell --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it records spans over the package's public functions and
prints the per-layer metrics instead, and writes the spans to
`.bench_work/spans/<workload>-seed<seed>.npz`. The last line of standard
output is the result object: correct, attempted, failed and metrics.

Exit codes: 0 with a result; 2 when the package cannot be imported or the
arguments are bad; 3 when the run itself breaks.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One process, one closed-loop client, one BLAS thread (nproc is 2 on the
# reference box). With two BLAS threads the same training steps ran up to
# 3-4x slower whenever another process kept the second CPU busy, which made
# run-to-run spread far wider than any useful bound. Must be set before numpy
# is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("paper-cell", "baselines-cell", "score-at-scale")


def import_package():
    """The debias package of this checkout's src/, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "debias", "__init__.py")):
        raise ImportError(f"no debias package under {src}")
    sys.path.insert(0, src)
    import debias
    from debias import bias, cli, data, diffcore, eval, losses, model, train  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(debias.__file__))) != src:
        raise ImportError(f"debias imported from {debias.__file__}, not {src}")
    return debias


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        pkg = import_package()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import harness

    try:
        result = harness.run(pkg, args.workload, args.seed, args.seconds,
                             bool(args.trace), ROOT)
    except Exception as e:  # report, print no result
        import traceback

        traceback.print_exc()
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    print(harness.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
