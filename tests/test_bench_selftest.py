"""The benchmark's self-test, run as part of the suite.

The benchmark reaches into the package: it counts optimizer steps through the
`diffcore.sgd_step` attribute and wraps the package's public functions by
name. This runs `bench/selftest.py` as its own process so a change in the
package that breaks that coupling fails here, not only when the benchmark
next runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = lines[-1].split()
    assert len(last) == 2 and last[1] == "passed", lines[-1]
    done, total = last[0].split("/")
    assert done == total and int(total) > 0, lines[-1]
