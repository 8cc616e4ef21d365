"""Print two SHA-256 digests per benchmark-cell training run of this checkout.

Usage: python3 tools/weights_digest.py > digests.txt

Runs `cli.run_benchmark_cell` on a fixed grid: fraction 0.05 with seeds 0-4
(standard, feature split, CAM) and fraction 0.25 with seeds 0-2 (standard and
the five baselines), 33 runs in all. Each line reads
`fraction seed method training report`. The training digest covers the
trained mixer and head, the loss curve and the stage-2 step log; the report
digest covers the evaluation report.
Two checkouts that train byte-identical weights print identical training
columns, so `diff` of the two outputs is the check. A change that only moves
the report's `config_hash` (a renamed or removed config field) shows in the
report column alone.

BLAS is pinned to one thread before numpy loads, because a threaded BLAS may
split a product differently from run to run and so change its rounding. The
`debias` package is imported from this checkout's `src/`, whatever is
installed.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

from debias import cli  # noqa: E402

GRID = [
    (0.05, range(5), ("standard", "ours_feature_split", "ours_cam")),
    (
        0.25,
        range(3),
        (
            "standard",
            "remove_cooccur_labels",
            "remove_cooccur_images",
            "weighted_loss",
            "negative_penalty",
            "split_biased",
        ),
    ),
]


def training_digest(arts) -> str:
    """SHA-256 over what one method's training produced."""
    h = hashlib.sha256()
    h.update(arts.params.mixer.tobytes())
    h.update(arts.params.head.tobytes())
    h.update(np.asarray(arts.loss_curve, dtype=np.float64).tobytes())
    stage2 = [e for e in arts.step_log if e.get("stage") == 2]
    h.update(json.dumps(stage2, sort_keys=True).encode())
    return h.hexdigest()


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def main():
    for fraction, seeds, methods in GRID:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work:
                cell = cli.run_benchmark_cell(fraction, seed, methods, work)
            for method in methods:
                print(
                    f"{fraction:g} {seed} {method} {training_digest(cell.artifacts[method])} "
                    f"{report_digest(cell.reports[method])}",
                    flush=True,
                )


if __name__ == "__main__":
    main()
