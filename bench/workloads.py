"""The three benchmark workloads: set-up, one timed round, and its checks.

A round is a fixed list of operations; each operation is one unit of the
program's work plus the checks on its output, and it fails when the work
raises, exits non-zero or any check is false. Checks run outside the timed
part of the round.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracle

PAPER_FRACTION = 0.05
PAPER_METHODS = ("standard", "ours_feature_split", "ours_cam")
BASELINES_FRACTION = 0.25
BASELINES = ("weighted_loss", "negative_penalty", "remove_cooccur_labels",
             "remove_cooccur_images", "split_biased")
SCORE_FRACTION = 0.05


@dataclass(frozen=True)
class Scale:
    """How big the inputs are; the benchmark runs FULL, the self-test TINY."""

    overrides: dict  # TrainConfig fields over cli.benchmark_recipe
    score_per_pair: int  # score-at-scale test set: co-occurring and exclusive samples per pair, each
    score_filler: int  # score-at-scale test set: samples without any biased category


# 8,000 test samples: a round takes about 1.5 s, so a 10 s run gets five or
# six rounds to take medians over; at 20,000 it got two or three and the
# eval rate spread 15% from run to run.
FULL = Scale(overrides={}, score_per_pair=1000, score_filler=4000)
TINY = Scale(overrides={"stage1_epochs": 3, "stage2_epochs": 3},
             score_per_pair=60, score_filler=120)


@dataclass
class Op:
    name: str
    checks: dict = field(default_factory=dict)  # check name -> bool
    error: str | None = None

    @property
    def ok(self):
        return self.error is None and all(self.checks.values())


def _check(op: Op, name: str, fn):
    """Record fn() as a check; an exception inside a check is a failed check."""
    try:
        op.checks[name] = bool(fn())
    except Exception:  # the check itself met malformed output
        op.checks[name] = False
        op.error = op.error or traceback.format_exc(limit=3)


def _manifest_path(directory):
    found = sorted(glob.glob(os.path.join(directory, "*.manifest.json")))
    if len(found) != 1:
        raise ValueError(f"{directory}: expected one manifest, found {len(found)}")
    return found[0]


def _finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays)


def _plan_counts_ok(man, labels):
    """Per planted pair, the co-occurring and exclusive label counts equal the plan."""
    cfg = man["generator_config"]
    for p in cfg["planted_pairs"]:
        b, c = p["biased"], p["context"]
        co = int(((labels[:, b] == 1) & (labels[:, c] == 1)).sum())
        ex = int(((labels[:, b] == 1) & (labels[:, c] == 0)).sum())
        if (co, ex) != (p["cooccur_count"], p["exclusive_count"]):
            return False
    planned = sum(p["cooccur_count"] + p["exclusive_count"] for p in cfg["planted_pairs"])
    return len(labels) == planned + cfg["n_filler"]


# ---------------------------------------------------------------------------
# the two benchmark cells


class CellWorkload:
    """One cli.run_benchmark_cell at a fixed exclusive fraction and method list."""

    setups = 3  # set-up repetitions whose median is setup_s

    def __init__(self, pkg, probe, scale: Scale, seed: int, fraction, methods):
        self.pkg, self.probe, self.scale, self.seed = pkg, probe, scale, seed
        self.fraction, self.methods = fraction, tuple(methods)
        self.pairs = [tuple(p) for p in pkg.cli.PLANTED_PAIRS]

    def setup(self, work):
        """Generate the cell's train and test sets once, as the cell itself
        will: the same configs, so allocator and page cache are warm."""
        data = self.pkg.data
        gen_train, gen_test = data.benchmark_configs(
            self.fraction, 1000 + self.seed, 2000 + self.seed, 3000 + self.seed)
        data.generate_dataset(gen_train, os.path.join(work, "train"), "train")
        data.generate_dataset(gen_test, os.path.join(work, "test"), "test")

    def round(self, work, tamper=None):
        """Run the cell once; returns (seconds, ops, timings)."""
        self.probe.events.clear()
        t0 = time.perf_counter()
        cell, error = None, None
        try:
            cell = self.pkg.cli.run_benchmark_cell(
                self.fraction, self.seed, list(self.methods), work,
                dict(self.scale.overrides))
        except Exception:  # the operation failed; every op of the round counts it
            error = traceback.format_exc(limit=5)
        seconds = time.perf_counter() - t0
        names = ["stage1"] + list(self.methods) + self.extra_ops()
        if cell is None:
            return seconds, [Op(n, error=error) for n in names], {}
        events = list(self.probe.events)
        train_labels = oracle.read_manifest(_manifest_path(cell.train_manifest.root))[1]
        for e in events:
            if e["kind"] == "stage2":
                e["rows"] = oracle.stage2_rows(train_labels, e["cfg"].method, self.pairs)
        if tamper is not None:
            tamper(cell)
        try:
            ops = self.check(cell, events)
        except Exception:  # output too broken to check; every op counts it
            error = traceback.format_exc(limit=3)
            ops = [Op(n, checks={"output readable": False}, error=error) for n in names]
        return seconds, ops, self.timings(events)

    def extra_ops(self):
        return []

    def timings(self, events):
        s1 = [e for e in events if e["kind"] == "stage1"]
        s2 = [e for e in events if e["kind"] == "stage2"]
        train_samples = sum(
            e["cfg"].stage1_epochs * int(0.8 * len(e["manifest"].samples)) for e in s1
        ) + sum(e["cfg"].stage2_epochs * e["rows"] for e in s2)
        return {
            "stage2_s": sum(e["seconds"] for e in s2),
            "stage2_by_method": {e["cfg"].method: e["seconds"] for e in s2},
            "train_samples": train_samples,
            "train_seconds": sum(e["seconds"] for e in s1 + s2),
        }

    def check(self, cell, events):
        train_path = _manifest_path(cell.train_manifest.root)
        test_path = _manifest_path(cell.test_manifest.root)
        train_man, train_labels, train_store = oracle.read_manifest(train_path)
        test_man, test_labels, test_store = oracle.read_manifest(test_path)
        m = len(test_man["categories"])
        pooled = oracle.pooled_store(test_man, test_store)

        s1 = [e for e in events if e["kind"] == "stage1"]
        s2 = {e["cfg"].method: e for e in events if e["kind"] == "stage2"}

        op = Op("stage1")
        _check(op, "one stage-1 call", lambda: len(s1) == 1)
        _check(op, "stores hold exactly N*P*D_in float32", lambda: (
            oracle.store_layout_ok(train_man, train_store)
            and oracle.store_layout_ok(test_man, test_store)))
        _check(op, "label counts match the generator plan", lambda: (
            _plan_counts_ok(train_man, train_labels)
            and _plan_counts_ok(test_man, test_labels)))
        e1 = s1[0] if s1 else None
        _check(op, "stage-1 loss finite and falling", lambda: (
            _finite(e1["arts"].loss_curve)
            and len(e1["arts"].loss_curve) == e1["cfg"].stage1_epochs
            and e1["arts"].loss_curve[-1] < e1["arts"].loss_curve[0]))
        _check(op, "stage-1 steps = sum over epochs of ceil(n/batch)", lambda: (
            e1["steps"] == oracle.steps(e1["cfg"].stage1_epochs,
                                        int(0.8 * len(train_labels)),
                                        e1["cfg"].batch_size)))
        ops = [op]

        for method in self.methods:
            op = Op(method)
            e = s2.get(method)
            arts = cell.artifacts.get(method)
            rep = cell.reports.get(method)
            _check(op, "one stage-2 call", lambda: e is not None and arts is not None)
            _check(op, "losses and parameters finite", lambda: _finite(
                arts.loss_curve, arts.params.mixer, arts.params.head))
            _check(op, "stage-2 steps = sum over epochs of ceil(n/batch)", lambda: (
                e["steps"] == oracle.steps(e["cfg"].stage2_epochs, e["rows"],
                                           e["cfg"].batch_size)
                and sum(1 for s in arts.step_log if s.get("stage") == 2) == e["steps"]))
            solo = ({b: m + j for j, (b, _) in enumerate(self.pairs)}
                    if method == "split_biased" else {})
            _check(op, "report mAPs equal the independent recomputation", lambda: (
                oracle.report_matches(rep.to_dict(), oracle.pair_metrics(
                    oracle.adapted(oracle.predictions(
                        pooled, arts.params.mixer, arts.params.head), m, solo),
                    test_labels, self.pairs))))
            self.method_checks(op, method, cell, arts, train_labels)
            ops.append(op)
        return ops + self.direction_checks(cell, test_man, test_store, test_labels)

    def method_checks(self, op, method, cell, arts, train_labels):
        pass

    def direction_checks(self, cell, test_man, test_store, test_labels):
        return []


class PaperCell(CellWorkload):
    """Fraction 0.05 with standard, feature-split and CAM training."""

    def __init__(self, pkg, probe, scale, seed):
        super().__init__(pkg, probe, scale, seed, PAPER_FRACTION, PAPER_METHODS)

    def extra_ops(self):
        return ["feature_split_exclusive", "cam_overlap"]

    def direction_checks(self, cell, test_man, test_store, test_labels):
        reps, arts = cell.reports, cell.artifacts
        fs = Op("feature_split_exclusive")
        _check(fs, "feature-split exclusive mAP >= standard", lambda: (
            reps["ours_feature_split"].map_exclusive >= reps["standard"].map_exclusive))
        cam = Op("cam_overlap")

        def overlap_lower():
            co = np.zeros(len(test_labels), dtype=bool)
            for b, c in self.pairs:
                co |= (test_labels[:, b] == 1) & (test_labels[:, c] == 1)
            rows = np.flatnonzero(co)
            feats = oracle.read_store_rows(test_man, test_store, rows)
            sub = test_labels[rows]
            lo = {k: oracle.cooccur_overlap(feats, sub, arts[k].params.mixer,
                                            arts[k].params.head, self.pairs)
                  for k in ("standard", "ours_cam")}
            return lo["ours_cam"] < lo["standard"]

        _check(cam, "CAM co-occur overlap < standard", overlap_lower)
        return [fs, cam]


class BaselinesCell(CellWorkload):
    """Fraction 0.25 with standard and the five designed baselines."""

    def __init__(self, pkg, probe, scale, seed):
        super().__init__(pkg, probe, scale, seed, BASELINES_FRACTION,
                         ("standard",) + BASELINES)

    def method_checks(self, op, method, cell, arts, train_labels):
        m = train_labels.shape[1]
        if method == "remove_cooccur_images":
            def kept_rows():
                out = self.pkg.train.transform_dataset(
                    cell.train_manifest, method, self.pairs)
                keep = np.ones(len(train_labels), dtype=bool)
                for b, c in self.pairs:
                    keep &= ~((train_labels[:, b] == 1) & (train_labels[:, c] == 1))
                want = [s.id for s, k in zip(cell.train_manifest.samples, keep) if k]
                return [s.id for s in out.samples] == want
            _check(op, "drops exactly the co-occurring rows", kept_rows)
        elif method == "split_biased":
            _check(op, "head has m + pairs columns", lambda: (
                arts.params.head.shape[1] == m + len(self.pairs)
                and [tuple(x) for x in arts.category_map]
                == [(b, m + j) for j, (b, _) in enumerate(self.pairs)]))
        elif method == "weighted_loss":
            _check(op, "stage 2 logs a weight of 10", lambda: any(
                s.get("max_weight") == 10.0 for s in arts.step_log if s.get("stage") == 2))


# ---------------------------------------------------------------------------
# scoring at scale through the CLI


class ScoreAtScale:
    """gen, eval, audit and report through cli.main on a large balanced test set."""

    pairs_arg = "0:1,2:3"
    setups = 2  # each set-up is a full training run of about 9 s

    def __init__(self, pkg, probe, scale: Scale, seed: int):
        self.pkg, self.probe, self.scale, self.seed = pkg, probe, scale, seed
        self.pairs = [tuple(p) for p in pkg.cli.PLANTED_PAIRS]
        self.n = 2 * len(self.pairs) * scale.score_per_pair + scale.score_filler
        self.setup_timings = []

    def _main(self, argv):
        rc = self.pkg.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"debias {argv[0]} exited {rc}")

    def setup(self, work):
        """Train a checkpoint with `debias train` on the benchmark recipe and
        write the GenConfig of the large test set."""
        data, cli = self.pkg.data, self.pkg.cli
        gen_train, gen_test = data.benchmark_configs(
            SCORE_FRACTION, 1000 + self.seed, 2000 + self.seed, 3000 + self.seed)
        test = gen_test.to_dict()
        for p in test["planted_pairs"]:
            p["cooccur_count"] = p["exclusive_count"] = self.scale.score_per_pair
        test["n_filler"] = self.scale.score_filler
        os.makedirs(work, exist_ok=True)
        for name, doc in (("gen_train.json", gen_train.to_dict()), ("gen_test.json", test),
                          ("recipe.json", cli.benchmark_recipe(
                              seed=self.seed, **self.scale.overrides).to_dict())):
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.probe.events.clear()
        self._main(["gen", "--config", os.path.join(work, "gen_train.json"),
                    "--out", os.path.join(work, "train")])
        self._main(["train", "--data", os.path.join(work, "train"),
                    "--config", os.path.join(work, "recipe.json"),
                    "--pairs", self.pairs_arg, "--out", os.path.join(work, "ckpt")])
        events = list(self.probe.events)
        labels = oracle.read_manifest(
            _manifest_path(os.path.join(work, "train")))[1]
        s1 = [e for e in events if e["kind"] == "stage1"]
        s2 = [e for e in events if e["kind"] == "stage2"]
        samples = sum(e["cfg"].stage1_epochs * int(0.8 * len(labels)) for e in s1) + sum(
            e["cfg"].stage2_epochs * oracle.stage2_rows(labels, e["cfg"].method, self.pairs)
            for e in s2)
        self.setup_timings.append({
            "stage2_s": sum(e["seconds"] for e in s2),
            "train_samples": samples,
            "train_seconds": sum(e["seconds"] for e in s1 + s2),
        })

    def round(self, setup_dir, work, tamper=None):
        """gen, eval, audit, report once; returns (seconds, ops, timings)."""
        names = ("gen", "eval", "audit", "report")
        ops = {n: Op(n) for n in names}
        times = {}
        test_dir, eval_dir = os.path.join(work, "test"), os.path.join(work, "eval")
        audit_dir, report_dir = os.path.join(work, "audit"), os.path.join(work, "report")
        ckpt = os.path.join(setup_dir, "ckpt")
        argv = {
            "gen": ["gen", "--config", os.path.join(setup_dir, "gen_test.json"),
                    "--out", test_dir, "--split", "test"],
            "eval": ["eval", "--checkpoint", ckpt, "--data", test_dir, "--out", eval_dir],
            "audit": ["audit", "--labels", test_dir, "--preds",
                      os.path.join(work, "preds.csv"), "--out", audit_dir],
            "report": ["report", "--inputs", eval_dir, "--out", report_dir],
        }
        state = {}
        for name in names:
            op = ops[name]
            if name == "audit" and "preds" in state:
                np.savetxt(argv["audit"][4], state["preds"], delimiter=",", fmt="%.17g")
            t0 = time.perf_counter()
            try:
                self._main(argv[name])
            except Exception:
                op.error = traceback.format_exc(limit=5)
            times[name] = time.perf_counter() - t0
            if op.error is None:
                if tamper is not None:
                    tamper(name, work)
                _check(op, "output readable",
                       lambda: getattr(self, f"_check_{name}")(op, state, work, ckpt) is None)
            if not op.ok:
                # later subcommands read this one's output; count them failed too
                for later in names[names.index(name) + 1:]:
                    ops[later].error = f"skipped: {name} failed"
                break
        return sum(times.values()), [ops[n] for n in names], {}

    def _check_gen(self, op, state, work, ckpt):
        path = _manifest_path(os.path.join(work, "test"))
        man, labels, store = oracle.read_manifest(path)
        _check(op, "N samples as planned", lambda: len(labels) == self.n)
        _check(op, "store is exactly 4 + N*P*D_in*4 bytes", lambda: (
            oracle.store_layout_ok(man, store)))
        _check(op, "label counts per planted pair match the plan", lambda: (
            _plan_counts_ok(man, labels)))
        mixer, head = oracle.read_checkpoint(os.path.join(ckpt, "checkpoint.json"))
        state["labels"] = labels
        state["preds"] = oracle.predictions(oracle.pooled_store(man, store), mixer, head)

    def _check_eval(self, op, state, work, ckpt):
        report = oracle.load_json(os.path.join(work, "eval", "report.json"))
        state["report"] = report
        rows = oracle.pair_metrics(state["preds"], state["labels"], self.pairs)
        _check(op, "report mAPs equal the independent recomputation",
               lambda: oracle.report_matches(report, rows))

    def _check_audit(self, op, state, work, ckpt):
        doc = oracle.load_json(os.path.join(work, "audit", "audit.json"))
        want = oracle.select_pairs(state["preds"], state["labels"], doc["k"],
                                   doc["freq_threshold"])

        def rows_match():
            got = doc["pairs"]
            keys = ("b", "c", "cooccur_count", "exclusive_count")
            return len(got) == len(want) and all(
                all(g[k] == w[k] for k in keys)
                and abs(g["score"] - w["score"]) <= 1e-12 * abs(w["score"])
                for g, w in zip(got, want))
        _check(op, "pairs, counts and scores equal the recomputed ratios", rows_match)
        _check(op, "shortfall flag", lambda: doc["shortfall"] == (len(want) < doc["k"]))

    def _check_report(self, op, state, work, ckpt):
        report = state["report"]
        with open(os.path.join(work, "report", "comparison.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        name = report["method"]
        header = f"biased,cooccur,bias,{name}_exclusive,{name}_cooccur"

        def cells_match():
            want = [header] + [
                f"{r['b']},{r['c']},{r['bias']:.6f},{r['ap_exclusive']:.6f},"
                f"{r['ap_cooccur']:.6f}" for r in report["pairs"]]
            return lines == want
        _check(op, "comparison.csv equals the report values", cells_match)


def reset(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
