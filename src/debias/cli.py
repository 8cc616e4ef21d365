"""Command-line front end: gen, audit, train, eval, sweep, report.

Every run writes a provenance.json (resolved config + seed) next to its
outputs; `report` refuses inputs that lack one. Identical resolved config
and seed give byte-identical artifacts, so nothing here records clocks,
hostnames, or paths inside the output files.

Exit codes: 0 ok, 1 usage, 2 validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import bias as bias_mod
from . import data
from . import eval as ev
from . import model as mdl
from . import train

# CLI spellings for the training methods; canonical names pass through.
METHOD_ALIASES = {
    "cam": "ours_cam",
    "feature-split": "ours_feature_split",
    "weighted": "weighted_loss",
    "negative-penalty": "negative_penalty",
    "remove-labels": "remove_cooccur_labels",
    "remove-images": "remove_cooccur_images",
    "split": "split_biased",
}


def canon_method(name: str) -> str:
    return METHOD_ALIASES.get(name, name)


def parse_overrides(items) -> dict:
    """key=value pairs; values parse as JSON and fall back to plain strings."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def parse_list(text, flag, parse, form):
    """The comma list given to `flag`, each item through `parse`; an item that
    `parse` refuses is a ValueError naming the flag, the item and its `form`."""
    def one(item):
        try:
            return parse(item)
        except ValueError:
            raise ValueError(f"{flag}: {item!r} is not {form}") from None
    return [one(item) for item in text.split(",")]


def parse_pairs(text):
    """\"0:1,2:3\" -> [(0, 1), (2, 3)]; bias.check_pairs checks the values."""
    def pair(item):
        b, c = item.split(":")  # any other number of parts is a ValueError too
        return int(b), int(c)
    return parse_list(text, "--pairs", pair, "B:C")


def config_hash(cfg_dict: dict) -> str:
    blob = json.dumps(cfg_dict, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_provenance(out_dir, command, config, seed, inputs=None):
    doc = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs or {},
        "config_hash": config_hash(config) if config else None,
    }
    data.dump_json(doc, os.path.join(out_dir, "provenance.json"))


def _load_object(path, what) -> dict:
    doc = data.load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def _load_manifest(path) -> data.DatasetManifest:
    """The manifest at `path`, a file or a directory holding exactly one; it must hold samples."""
    if os.path.isdir(path):
        found = sorted(
            n for n in os.listdir(path) if n.endswith("manifest.json")
        )
        if len(found) != 1:
            raise ValueError(
                f"{path} holds {len(found)} manifests; pass the file itself"
            )
        path = os.path.join(path, found[0])
    manifest = data.load_manifest(path)
    if not manifest.samples:
        raise ValueError(f"{path}: empty dataset")
    return manifest


# ---------------------------------------------------------------------------
# benchmark protocol shared by `sweep` and the acceptance suite

PLANTED_PAIRS = [tuple(p) for p in data.BENCH_PAIRS]


def benchmark_recipe(method="standard", seed=0, **overrides) -> train.TrainConfig:
    """Training configuration for the synthetic benchmark runs.

    The defaults on TrainConfig are the general-purpose ones; the benchmark
    needs a hotter schedule to converge in few epochs, a stiffer overlap
    penalty, and a looser alpha floor so the weight tracks the actual
    co-occur/exclusive ratio across the sweep fractions. Calibrated once on
    the pilot seeds and fixed.
    """
    cfg = dict(
        method=canon_method(method),
        stage1_epochs=30,
        stage2_epochs=60,
        batch_size=64,
        sgd_stage1={"initial_lr": 20.0, "decay_factor": 0.1, "decay_every": 15},
        sgd_stage2={"initial_lr": 5.0, "decay_factor": 0.1, "decay_every": 30},
        lambda1=5.0,
        lambda2=0.01,
        alpha_min=1.5,
        k=2,
        freq_threshold=0.2,
        seed=seed,
        mixer_width=64,
    )
    cfg.update(overrides)
    return train.TrainConfig.from_dict(cfg)


@dataclass
class BenchmarkCell:
    """One (fraction, seed) grid point: shared data, per-method results."""

    train_manifest: data.DatasetManifest
    test_manifest: data.DatasetManifest
    reports: dict  # method -> EvalReport
    artifacts: dict  # method -> TrainArtifacts


def run_benchmark_cell(fraction, seed, methods, work_dir, overrides=None) -> BenchmarkCell:
    """Generate one benchmark dataset and train + evaluate each method on it.

    Stage 1 is method-independent, so it runs once per cell; every method
    continues from the same weights with the planted pairs pinned. Dataset
    seeds are offset per role so the layout, train draw, and test draw never
    share a stream.
    """
    gen_train, gen_test = data.benchmark_configs(
        fraction, 1000 + seed, 2000 + seed, 3000 + seed
    )
    train_man = data.generate_dataset(gen_train, os.path.join(work_dir, "train"), "train")
    test_man = data.generate_dataset(gen_test, os.path.join(work_dir, "test"), "test")

    base_cfg = benchmark_recipe(seed=seed, **(overrides or {}))
    arts1 = train.train_stage1(train_man, base_cfg, PLANTED_PAIRS)

    reports, artifacts = {}, {}
    test_pooled = data.load_pooled(test_man)
    for name in methods:
        method = canon_method(name)
        cfg = benchmark_recipe(method=method, seed=seed, **(overrides or {}))
        arts = train.train_stage2(arts1, train_man, cfg)
        reports[method] = ev.evaluate(
            arts.params,
            test_man,
            test_pooled,
            PLANTED_PAIRS,
            method=method,
            seed=seed,
            config_hash=config_hash(cfg.to_dict()),
            category_map=arts.category_map,
        )
        artifacts[method] = arts
    return BenchmarkCell(train_man, test_man, reports, artifacts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    cfg_dict = _load_object(args.config, "gen config")
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = data.GenConfig.from_dict(cfg_dict)
    data.generate_dataset(cfg, args.out, args.split)
    write_provenance(args.out, "gen", cfg.to_dict(), cfg.seed, {"config": args.config})
    print(f"wrote {args.out}/{args.split}.manifest.json")
    return 0


def cmd_audit(args):
    labels = _load_manifest(args.labels).labels
    with data._open_input(args.preds) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # refused below
        try:
            preds = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:  # ragged rows or a non-number
            raise ValueError(f"{args.preds}: {e}") from None
    if preds.size == 0:
        raise ValueError(f"{args.preds}: no predictions")
    pair_set = bias_mod.select_biased_pairs(
        preds, labels, k=args.k, freq_threshold=args.freq_threshold
    )
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "k": args.k,
        "freq_threshold": args.freq_threshold,
        "shortfall": pair_set.shortfall,
        "pairs": bias_mod.audit_report(pair_set, labels),
    }
    data.dump_json(doc, os.path.join(args.out, "audit.json"))
    write_provenance(
        args.out,
        "audit",
        {"k": args.k, "freq_threshold": args.freq_threshold},
        None,
        {"labels": args.labels, "preds": args.preds},
    )
    print(f"wrote {args.out}/audit.json ({len(doc['pairs'])} pairs)")
    return 0


def _resolved_train_config(args):
    cfg_dict = _load_object(args.config, "train config") if args.config else {}
    cfg_dict.update(parse_overrides(args.set))
    if args.method:
        cfg_dict["method"] = canon_method(args.method)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    return train.TrainConfig.from_dict(cfg_dict)


def cmd_train(args):
    cfg = _resolved_train_config(args)
    manifest = _load_manifest(args.data)
    pinned = parse_pairs(args.pairs) if args.pairs else None
    arts = train.run_training(manifest, cfg, pinned)

    os.makedirs(args.out, exist_ok=True)
    pair_rows = (
        [[p.biased, p.context, p.score] for p in arts.pairs.pairs] if arts.pairs else []
    )
    run = mdl.RunRecord(method=cfg.method, seed=cfg.seed, config_hash=config_hash(cfg.to_dict()),
                        pairs=pair_rows, category_map=arts.category_map)
    mdl.save_checkpoint(os.path.join(args.out, "checkpoint.json"), arts.params, run)
    data.dump_json(
        {
            "loss_curve": arts.loss_curve,
            "pairs": pair_rows,
            "category_map": arts.category_map,
            "seeds": arts.seeds,
            "n_steps": len(arts.step_log),
        },
        os.path.join(args.out, "artifacts.json"),
    )
    write_provenance(
        args.out, "train", cfg.to_dict(), cfg.seed,
        {"data": args.data, "pinned_pairs": pinned},
    )
    final = arts.loss_curve[-1] if arts.loss_curve else float("nan")
    print(f"wrote {args.out}/checkpoint.json (final loss {final:.4f})")
    return 0


def cmd_eval(args):
    ckpt_path = args.checkpoint
    if os.path.isdir(ckpt_path):
        ckpt_path = os.path.join(ckpt_path, "checkpoint.json")
    params, run = mdl.load_checkpoint(ckpt_path)
    manifest = _load_manifest(args.data)
    if args.pairs:
        pairs = parse_pairs(args.pairs)
    else:
        pairs = [(b, c) for b, c, _ in run.pairs]
        if not pairs:
            raise ValueError("checkpoint records no pairs; pass --pairs")
    bias_mod.check_pairs(pairs, len(manifest.categories))

    report = ev.evaluate(
        params, manifest, data.load_pooled(manifest), pairs, method=run.method, seed=run.seed,
        config_hash=run.config_hash, k=args.k, category_map=run.category_map,
    )
    os.makedirs(args.out, exist_ok=True)
    ev.save_report(report, os.path.join(args.out, "report.json"))
    write_provenance(
        args.out,
        "eval",
        {"pairs": [list(p) for p in pairs], "k": args.k},
        run.seed,
        {"checkpoint": args.checkpoint, "data": args.data},
    )
    ex = "none" if report.map_exclusive is None else f"{report.map_exclusive:.4f}"
    co = "none" if report.map_cooccur is None else f"{report.map_cooccur:.4f}"
    print(f"wrote {args.out}/report.json (exclusive {ex}, co-occur {co})")
    return 0


def cmd_sweep(args):
    fractions = parse_list(args.fractions, "--fractions", float, "a number")
    methods = [canon_method(x) for x in args.methods.split(",")]
    seeds = parse_list(args.seeds, "--seeds", int, "an integer") if args.seeds else [0, 1, 2, 3, 4]
    # a repeat would train one cell directory twice and write its rows twice
    for flag, values in (("fraction", [f"{f:g}" for f in fractions]),
                         ("method", methods), ("seed", seeds)):
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate {flag} in --{flag}s")
    # a bad fraction, method, seed or recipe stops the sweep before its first cell
    for fraction in fractions:
        data.benchmark_configs(fraction, 1000, 2000, 3000)
    overrides = _load_object(args.config, "train config") if args.config else {}
    overrides.update(parse_overrides(args.set))
    overrides.pop("method", None)
    overrides.pop("seed", None)
    for method in methods:
        for seed in seeds:
            benchmark_recipe(method=method, seed=seed, **overrides)

    os.makedirs(args.out, exist_ok=True)
    lines = ["fraction,method,seed,map_exclusive,map_cooccur,mean_cosine"]
    for fraction in fractions:
        for seed in seeds:
            tag = f"f{fraction:g}_s{seed}"
            cell_dir = os.path.join(args.out, "runs", tag)
            cell = run_benchmark_cell(
                fraction, seed, methods, os.path.join(cell_dir, "data"), overrides
            )
            for method in methods:
                rep = cell.reports[method]
                run_dir = os.path.join(cell_dir, method)
                os.makedirs(run_dir, exist_ok=True)
                ev.save_report(rep, os.path.join(run_dir, "report.json"))
                cfg = benchmark_recipe(method=method, seed=seed, **overrides)
                write_provenance(
                    run_dir, "sweep", cfg.to_dict(), seed,
                    {"fraction": fraction, "pairs": [list(p) for p in PLANTED_PAIRS]},
                )
                lines.append(
                    f"{fraction:g},{method},{seed},{rep.map_exclusive:.6f},"
                    f"{rep.map_cooccur:.6f},{rep.mean_cosine:.6f}"
                )
            print(f"cell {tag} done", flush=True)
    with open(os.path.join(args.out, "trend.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    write_provenance(
        args.out,
        "sweep",
        {"fractions": fractions, "methods": methods, "seeds": seeds,
         "overrides": overrides},
        None,
    )
    print(f"wrote {args.out}/trend.csv ({len(lines) - 1} runs)")
    return 0


def cmd_report(args):
    reports = {}
    for in_dir in args.inputs:
        prov_path = os.path.join(in_dir, "provenance.json")
        if not os.path.exists(prov_path):
            raise ValueError(f"{in_dir} has no provenance.json; refusing it")
        rep = ev.EvalReport.from_dict(data.load_json(os.path.join(in_dir, "report.json")))
        if rep.method in reports:
            raise ValueError(f"two inputs report method {rep.method!r}")
        reports[rep.method] = rep
    pair_lists = {n: [(row["b"], row["c"]) for row in reports[n].pairs] for n in sorted(reports)}
    if len(set(map(tuple, pair_lists.values()))) > 1:
        listed = "; ".join(f"{name} {pairs}" for name, pairs in pair_lists.items())
        raise ValueError(f"reports list different pairs: {listed}")
    os.makedirs(args.out, exist_ok=True)
    ev.write_comparison_csv(reports, os.path.join(args.out, "comparison.csv"))
    write_provenance(
        args.out, "report", {"methods": sorted(reports)}, None,
        {"inputs": list(args.inputs)},
    )
    print(f"wrote {args.out}/comparison.csv ({len(reports)} methods)")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="debias",
        description="Synthetic multi-label bias benchmark: data, training, evaluation.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="generate a dataset from a GenConfig JSON")
    g.add_argument("--config", required=True, help="GenConfig as JSON")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--split", default="train", help="split tag for sample ids")
    g.add_argument("--seed", type=int, default=None, help="override the config seed")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("audit", help="rank biased pairs from labels and predictions")
    a.add_argument("--labels", required=True, help="dataset manifest (or its directory)")
    a.add_argument("--preds", required=True, help="CSV of per-sample category scores")
    a.add_argument("--out", required=True)
    a.add_argument("--k", type=int, default=20)
    a.add_argument("--freq-threshold", type=float, default=0.2)
    a.set_defaults(func=cmd_audit)

    t = sub.add_parser("train", help="two-stage training on a generated dataset")
    t.add_argument("--data", required=True, help="dataset manifest (or its directory)")
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="TrainConfig as JSON")
    t.add_argument("--method", default=None, help="override the config method")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (value parsed as JSON)")
    t.add_argument("--seed", type=int, default=None,
                   help="override the config seed (default 0)")
    t.add_argument("--pairs", default=None, metavar="B:C,B:C",
                   help="pin the stage-2 pair set instead of selecting")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on the exclusive/co-occur protocol")
    e.add_argument("--checkpoint", required=True, help="train output directory")
    e.add_argument("--data", required=True, help="test manifest (or its directory)")
    e.add_argument("--out", required=True)
    e.add_argument("--pairs", default=None, metavar="B:C,B:C",
                   help="pairs to evaluate (default: the ones recorded at training)")
    e.add_argument("--k", type=int, default=3, help="k for top-k recall")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="benchmark grid over exclusive fractions and methods")
    s.add_argument("--fractions", required=True, help="comma list, e.g. 0.05,0.1,0.25")
    s.add_argument("--methods", required=True,
                   help="comma list, e.g. standard,cam,feature-split")
    s.add_argument("--seeds", default=None, help="comma list (default 0,1,2,3,4)")
    s.add_argument("--out", required=True)
    s.add_argument("--config", default=None, help="base TrainConfig overrides as JSON")
    s.add_argument("--set", action="append", metavar="KEY=VALUE")
    s.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="merge eval outputs into one comparison CSV")
    r.add_argument("--inputs", nargs="+", required=True,
                   help="eval output directories (each needs provenance.json)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors; remap
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
