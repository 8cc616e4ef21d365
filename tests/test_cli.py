import filecmp
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import debias
from debias import cli, data, train
from debias import diffcore as dc
from debias import model as mdl


def small_gen_dict(seed=5):
    regions, sigs = data.build_layout(4, 4, 4, 8, seed=7)
    cfg = data.GenConfig(
        m=4, h=4, w=4, d_in=8,
        regions=regions, signatures=sigs,
        planted_pairs=[data.PlantedPair(0, 1, 0.2, 40, 10)],
        n_filler=30, noise_std=0.25, seed=seed,
    )
    return cfg.to_dict()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Tiny end-to-end workspace: gen + train configs and both datasets."""
    root = tmp_path_factory.mktemp("cli")
    gen = root / "gen.json"
    gen.write_text(json.dumps(small_gen_dict()))
    gen_test = root / "gen_test.json"
    gen_test.write_text(json.dumps(small_gen_dict(seed=6)))
    tcfg = root / "train.json"
    tcfg.write_text(json.dumps({
        "stage1_epochs": 3, "stage2_epochs": 3, "k": 1,
        "sgd_stage1": {"initial_lr": 5.0, "decay_factor": 0.1, "decay_every": 3},
        "sgd_stage2": {"initial_lr": 1.0, "decay_factor": 0.1, "decay_every": 3},
    }))
    assert cli.main(["gen", "--config", str(gen), "--out", str(root / "dtrain")]) == 0
    assert cli.main([
        "gen", "--config", str(gen_test), "--out", str(root / "dtest"),
        "--split", "test",
    ]) == 0
    return root


def test_gen_outputs(ws):
    assert (ws / "dtrain" / "train.manifest.json").exists()
    assert (ws / "dtrain" / "train.store").exists()
    prov = json.loads((ws / "dtrain" / "provenance.json").read_text())
    assert prov["command"] == "gen"
    assert prov["seed"] == 5
    assert prov["config"]["planted_pairs"]


def test_gen_seed_flag_overrides_config(ws, tmp_path):
    out = tmp_path / "d"
    assert cli.main([
        "gen", "--config", str(ws / "gen.json"), "--out", str(out), "--seed", "11",
    ]) == 0
    assert json.loads((out / "provenance.json").read_text())["seed"] == 11


def _rename_pair_key(d):
    pair = d["planted_pairs"][0]
    pair["cooccur"] = pair.pop("cooccur_count")


@pytest.mark.parametrize("edit, named", [
    # a misspelled optional key must not fall back to the default silently
    (lambda d: d.update(n_filer=d.pop("n_filler")), "n_filer"),
    (lambda d: d.pop("noise_std"), "noise_std"),
    (_rename_pair_key, "cooccur"),
    (lambda d: d.update(m="4"), "m must be int"),
    (lambda d: d.pop("seed"), "missing keys ['seed']"),  # and no --seed
], ids=["unknown", "missing", "pair_unknown", "mistyped", "no_seed"])
def test_gen_rejects_bad_config_keys(tmp_path, capsys, edit, named):
    doc = small_gen_dict()
    edit(doc)
    _assert_gen_rejects(tmp_path, capsys, doc, named)


def _with_first(key, value):
    def make(d):
        d[key][0] = value
        return d
    return make


@pytest.mark.parametrize("make, named", [
    (_with_first("regions", "abcd"), "region 0 must be a list of 4 integers"),
    (_with_first("regions", 3), "region 0 must be a list of 4 integers"),
    (_with_first("signatures", 1.0), "signature 0 must be a list of numbers"),
    (lambda d: {**d, "filler_pool": ["a"]}, "filler_pool must list integers"),
    (lambda d: [d], "gen config must be a JSON object"),
], ids=["region_str", "region_int", "signature_float", "filler_pool_str", "list_document"])
def test_gen_rejects_malformed_nested_config(tmp_path, capsys, make, named):
    _assert_gen_rejects(tmp_path, capsys, make(small_gen_dict()), named)


def test_gen_refuses_a_config_that_makes_no_samples(tmp_path, capsys):
    # it used to write an empty store and manifest, which eval and audit then refused
    doc = small_gen_dict()
    doc.update(planted_pairs=[], n_filler=0)
    _assert_gen_rejects(tmp_path, capsys, doc, "config makes no samples")


def _assert_gen_rejects(tmp_path, capsys, doc, named):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not (tmp_path / "d").exists()


def test_train_eval_report_pipeline(ws, tmp_path):
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    assert (run / "checkpoint.json").exists()
    assert (run / "checkpoint.json.store").exists()
    assert (run / "provenance.json").exists()
    arts = json.loads((run / "artifacts.json").read_text())
    assert len(arts["loss_curve"]) == 6  # both stages
    assert arts["pairs"][0][:2] == [0, 1]

    ev_dir = tmp_path / "ev"
    assert cli.main([
        "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"),
        "--out", str(ev_dir),
    ]) == 0
    rep = json.loads((ev_dir / "report.json").read_text())
    assert rep["method"] == "standard"
    assert rep["seed"] == 3
    assert 0.0 <= rep["map_exclusive"] <= 1.0
    assert rep["pairs"][0]["b"] == 0 and rep["pairs"][0]["c"] == 1

    rpt = tmp_path / "rpt"
    assert cli.main(["report", "--inputs", str(ev_dir), "--out", str(rpt)]) == 0
    header = (rpt / "comparison.csv").read_text().splitlines()[0]
    assert header.startswith("biased,cooccur,bias,standard_exclusive")


def test_method_alias_and_buffer_checkpoint(ws, tmp_path):
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--method", "feature-split", "--set", "alpha_min=1.5",
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    prov = json.loads((run / "provenance.json").read_text())
    assert prov["config"]["method"] == "ours_feature_split"
    assert prov["config"]["alpha_min"] == 1.5
    params, record = mdl.load_checkpoint(str(run / "checkpoint.json"))
    assert record.method == "ours_feature_split"
    # nothing reads the running-mean window back, so the checkpoint holds the
    # mixer and the head only
    header = json.loads((run / "checkpoint.json").read_text())
    assert "buffer_len" not in header and len(header["offsets"]) == 2


def test_eval_rejects_out_of_range_pairs(ws, tmp_path):
    run = tmp_path / "run"
    cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ])
    code = cli.main([
        "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"),
        "--pairs", "0:9", "--out", str(tmp_path / "ev"),
    ])
    assert code == 2


def test_non_binary_label_exits_2(ws, tmp_path, capsys):
    # a context label of 2 on a co-occurring test sample used to move that
    # sample into the exclusive split of eval and the exclusive count of audit
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    shutil.copytree(ws / "dtest", tmp_path / "d")
    path = tmp_path / "d" / "test.manifest.json"
    doc = json.loads(path.read_text())
    both = next(s for s in doc["samples"] if s["labels"][0] == s["labels"][1] == 1)
    both["labels"][1] = 2
    path.write_text(json.dumps(doc))
    csv = tmp_path / "preds.csv"
    np.savetxt(csv, np.full((len(doc["samples"]), 4), 0.5), delimiter=",")
    capsys.readouterr()
    for argv in (
        ["eval", "--checkpoint", str(run), "--data", str(tmp_path / "d")],
        ["audit", "--labels", str(tmp_path / "d"), "--preds", str(csv)],
        ["train", "--data", str(tmp_path / "d"), "--config", str(ws / "train.json"),
         "--seed", "3"],
    ):
        out = tmp_path / f"out_{argv[0]}"
        assert cli.main(argv + ["--out", str(out)]) == 2, argv[0]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "labels must be the integers 0 or 1" in err[0], err
        assert not out.exists()


def test_train_rejects_out_of_range_pairs(ws, tmp_path, capsys, monkeypatch):
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    code = cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:9", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert steps == []  # rejected before the first stage-1 step
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: pair (0, 9) outside 4 categories"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc, sets, named", [
    ([{"k": 1}], [], "train config must be a JSON object"),
    ({}, ["sgd_stage1=5"], "sgd_stage1 must be dc.SgdConfig, not int"),
    ({}, ['batch_size="a"'], "batch_size must be int, not str"),
    ({"sgd_stage2": {"initial_lr": 1.0, "decay_factor": 0.1}}, [],
     "sgd_stage2: missing keys ['decay_every']"),
    ({"normalize_maps": True}, [], "unknown keys ['normalize_maps']"),
], ids=["list_document", "sgd_int", "batch_size_str", "sgd_missing", "normalize_maps"])
def test_train_rejects_bad_config(ws, tmp_path, capsys, doc, sets, named):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(doc))
    argv = ["train", "--data", str(ws / "dtrain"), "--config", str(cfg),
            "--out", str(tmp_path / "run")]
    code = cli.main(argv + [a for s in sets for a in ("--set", s)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting, named", [
    ("k=0", "k must be at least 1"),
    ("freq_threshold=1.0", "freq_threshold must be in (0, 1)"),
    ("lambda2=-0.5", "lambda1 and lambda2 must be nonnegative"),
    ("alpha_min=1.0", "alpha_min must exceed 1"),
    ("weighted_factor=-5", "weighted_factor and negative_penalty_weight must be positive"),
    ("weighted_factor=NaN", "weighted_factor must be finite, got nan"),
    ("negative_penalty_weight=0", "weighted_factor and negative_penalty_weight must be positive"),
    ("mixer_width=0", "mixer_width must be even and at least 2"),
    ("lambda1=NaN", "lambda1 must be finite, got nan"),
    ("alpha_min=NaN", "alpha_min must be finite, got nan"),
    ('sgd_stage2={"initial_lr": Infinity, "decay_factor": 0.1, "decay_every": 5}',
     "initial_lr must be positive and finite"),
], ids=["k", "freq_threshold", "lambda", "alpha_min", "weighted_factor", "weighted_factor_nan",
        "negative_penalty_weight", "mixer_width", "lambda1_nan", "alpha_min_nan", "initial_lr_inf"])
def test_train_checks_config_ranges_before_training(
    ws, tmp_path, capsys, monkeypatch, setting, named
):
    # values only pair selection or stage 2 reads still stop the run before
    # the first stage-1 step
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    method = {"lambda2=-0.5": "cam", "alpha_min=1.0": "feature-split"}.get(setting, "standard")
    code = cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--method", method, "--set", setting, "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert steps == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not (tmp_path / "run").exists()


def test_train_diverging_run_exits_3(ws, tmp_path, capsys):
    # a learning rate of 1e300 makes the second stage-2 step's loss NaN
    out = tmp_path / "run"
    code = cli.main([
        "train", "--data", str(ws / "dtrain"), "--pairs", "0:1",
        "--set", "stage1_epochs=3", "--set", "stage2_epochs=2",
        "--set", 'sgd_stage2={"initial_lr": 1e300, "decay_factor": 0.5, "decay_every": 5}',
        "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: FloatingPointError: stage 2 diverged: loss nan")
    assert not (out / "checkpoint.json").exists()


def test_sweep_rejects_list_config(tmp_path, capsys):
    cfg = tmp_path / "base.json"
    cfg.write_text(json.dumps([{"stage1_epochs": 1}]))
    code = cli.main([
        "sweep", "--fractions", "0.05", "--methods", "standard", "--seeds", "0",
        "--config", str(cfg), "--out", str(tmp_path / "sw"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "train config must be a JSON object" in err[0]
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("flag, values", [
    ("methods", "standard,cam,standard"),
    ("fractions", "0.05,0.050"),
    ("seeds", "1,1"),
])
def test_sweep_rejects_a_repeated_value(tmp_path, capsys, monkeypatch, flag, values):
    # a repeat would train one cell twice into the same directory
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    argv = ["sweep", "--fractions", "0.05", "--methods", "standard", "--seeds", "1",
            "--out", str(tmp_path / "sw")]
    argv[argv.index(f"--{flag}") + 1] = values
    assert cli.main(argv) == 2
    assert steps == []
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: duplicate {flag[:-1]} in --{flag}"]
    assert not (tmp_path / "sw").exists()


def test_sweep_checks_every_fraction_before_the_first_cell(tmp_path, capsys, monkeypatch):
    # a bad fraction after a good one used to stop the sweep after the good
    # cell had trained, with no trend.csv written; inf used to exit 3 with an
    # OverflowError and nan to exit 2 on an integer conversion. A bad method
    # or recipe override used to stop it only after the first cell's datasets
    # were written, and a bad second method after stage 1 and the first method
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    for bad, named in (
        (["--fractions", "0.05,0.9999"], "exclusive_fraction leaves an empty split"),
        (["--fractions", "0.05,inf"], "exclusive_fraction must be in (0, 1), got inf"),
        (["--fractions", "0.05,nan"], "exclusive_fraction must be in (0, 1), got nan"),
        (["--methods", "standard,bogus"], "unknown method 'bogus'"),
        (["--set", "lambda1=-1"], "loss weights lambda1 and lambda2 must be nonnegative"),
        # a negative seed used to write both datasets of cell f0.05_s-5 first
        (["--seeds", "-5"], "seed must be nonnegative, got -5"),
    ):
        assert cli.main([  # a later --fractions or --methods replaces the first
            "sweep", "--fractions", "0.05", "--methods", "standard", "--seeds", "0",
            "--set", "stage1_epochs=1", "--set", "stage2_epochs=1", *bad,
            "--out", str(tmp_path / "sw"),
        ]) == 2, bad
        assert steps == []
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {named}"]
        assert not (tmp_path / "sw").exists()


def _poison_sample_11(src, dst):
    """A copy of the dataset at `src` whose sample s000011 holds one NaN."""
    shutil.copytree(src, dst)
    manifest = data.load_manifest(next(dst.glob("*.manifest.json")))
    slot = manifest.h * manifest.w * manifest.d_in * 4
    with open(manifest.store_path(), "r+b") as fh:
        fh.seek(len(data.STORE_MAGIC) + manifest.samples[11].row * slot)
        fh.write(np.float32("nan").tobytes())


@pytest.mark.parametrize("command", ["train", "eval"])
def test_nonfinite_sample_exits_2_naming_it(ws, tmp_path, capsys, monkeypatch, command):
    # train used to diverge in stage 2 (exit 3) and eval to fail on its
    # scores, neither naming the sample
    run = tmp_path / "run"
    if command == "eval":
        assert cli.main([
            "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
            "--pairs", "0:1", "--out", str(run),
        ]) == 0
        _poison_sample_11(ws / "dtest", tmp_path / "d")
        argv = ["eval", "--checkpoint", str(run), "--data", str(tmp_path / "d"),
                "--out", str(tmp_path / "ev")]
    else:
        _poison_sample_11(ws / "dtrain", tmp_path / "d")
        argv = ["train", "--data", str(tmp_path / "d"), "--config", str(ws / "train.json"),
                "--pairs", "0:1", "--out", str(run)]
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert steps == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sample s000011 has non-finite values" in err[0], err
    assert not os.path.exists(argv[-1])


def test_n_steps_counts_every_sgd_step(ws, tmp_path, monkeypatch):
    # one entry per step of both stages, so n_steps is the number of updates
    steps, runs = [], []
    sgd_step, run_training = dc.sgd_step, train.run_training
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    monkeypatch.setattr(
        train, "run_training", lambda *a: runs.append(run_training(*a)) or runs[-1]
    )
    out = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--method", "feature-split", "--set", "batch_size=16", "--out", str(out),
    ]) == 0
    n_steps = json.loads((out / "artifacts.json").read_text())["n_steps"]
    assert n_steps == len(runs[0].step_log) == len(steps)
    # several batches per epoch, so an entry per epoch would not pass
    assert len(steps) > 2 * 3


@pytest.mark.parametrize("edit", ["short", "long"])
def test_train_rejects_store_of_wrong_length(ws, tmp_path, capsys, monkeypatch, edit):
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    shutil.copytree(ws / "dtrain", tmp_path / "d")
    store = tmp_path / "d" / "train.store"
    raw = store.read_bytes()
    size = len(raw)
    store.write_bytes(raw[:-4] if edit == "short" else raw + raw[-4:])
    code = cli.main([
        "train", "--data", str(tmp_path / "d"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert steps == []  # rejected before the first stage-1 step
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"expected {size}" in err[0]


def _repeat_offset(doc):
    doc["samples"][1]["offset"] = doc["samples"][0]["offset"]


def _shift_offset(doc):
    doc["samples"][1]["offset"] += 2


def _drop_h(doc):
    del doc["h"]


def _float_d_in(doc):
    doc["d_in"] = float(doc["d_in"])


@pytest.mark.parametrize("edit, named", [
    (_repeat_offset, "sample s000001: offset 4, expected 516 (slot 1)"),
    (_shift_offset, "sample s000001: offset 518, expected 516 (slot 1)"),
    (_drop_h, "manifest: missing keys ['h']"),
    (_float_d_in, "manifest: d_in must be int, not float"),
], ids=["repeated_offset", "shifted_offset", "missing_h", "float_d_in"])
def test_train_rejects_malformed_manifest(ws, tmp_path, capsys, monkeypatch, edit, named):
    # a repeated offset used to train on duplicated maps, a shifted one on
    # misaligned floats; both exited 0
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    shutil.copytree(ws / "dtrain", tmp_path / "d")
    path = tmp_path / "d" / "train.manifest.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    code = cli.main([
        "train", "--data", str(tmp_path / "d"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert steps == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "run").exists()


def test_split_biased_rejects_pinned_pairs_sharing_a_biased_category(
    ws, tmp_path, capsys, monkeypatch
):
    # both pairs used to get a column named cat0_solo, and the first one,
    # which category_map assigns to pair (0, 1), never got a positive label
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    code = cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--method", "split", "--pairs", "0:1,0:2", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert steps == []
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        "error: split_biased needs one pinned pair per biased category, got [(0, 1), (0, 2)]"
    ]
    assert not (tmp_path / "run").exists()


def _flip_store_byte(run):
    store = run / "checkpoint.json.store"
    raw = bytearray(store.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    store.write_bytes(bytes(raw))


def _bump_format(run):
    ckpt = run / "checkpoint.json"
    header = json.loads(ckpt.read_text())
    header["format"] += 1
    ckpt.write_text(json.dumps(header))


def _edit_header(edit):
    def corrupt(run):
        ckpt = run / "checkpoint.json"
        header = json.loads(ckpt.read_text())
        edit(header)
        ckpt.write_text(json.dumps(header))
    return corrupt


def _format_1(header):
    # the layout before the running-mean window was dropped
    header.update(format=1, buffer_len=0)


def _cut_store(run):
    store = run / "checkpoint.json.store"
    store.write_bytes(store.read_bytes()[:-4])


def _bad_magic(run):
    # a store whose header matches it in length and hash, but not a DBL1 store
    store, ckpt = run / "checkpoint.json.store", run / "checkpoint.json"
    raw = b"XXXX" + store.read_bytes()[4:]
    store.write_bytes(raw)
    header = json.loads(ckpt.read_text())
    header["store_sha256"] = hashlib.sha256(raw).hexdigest()
    ckpt.write_text(json.dumps(header))


def _edit_meta(edit):
    return _edit_header(lambda h: edit(h["meta"]))


@pytest.mark.parametrize("method, corrupt, named", [
    ("standard", _flip_store_byte, "sha256 does not match"),
    ("standard", _bump_format, "checkpoint format 3, expected 2"),
    ("standard", _cut_store, "header says"),
    ("standard", _bad_magic, "bad store magic b'XXXX'"),
    ("standard", _edit_header(_format_1), "checkpoint format 1, expected 2"),
    ("standard", _edit_header(lambda h: h["offsets"].__setitem__(1, 4.5)),
     "offsets must be a list of integers"),
    ("standard", _edit_header(lambda h: h.pop("own_rows")), "missing keys ['own_rows']"),
    ("standard", _edit_header(lambda h: h.update(d_in=str(h["d_in"]))),
     "d_in must be int, not str"),
    ("standard", _edit_header(lambda h: h.update(meta=[])), "meta must be dict, not list"),
    # the store hash does not cover the offsets: a head read from byte 8
    # used to evaluate with exit 0
    ("standard", _edit_header(lambda h: h["offsets"].__setitem__(1, 8)),
     "offsets [4, 8] and store_bytes"),
    # meta used to be read by hand: the first two exited 3 with a TypeError,
    # and a string seed evaluated with exit 0
    ("standard", _edit_meta(lambda m: m.update(category_map=5)),
     "checkpoint meta: category_map must be list | None, not int"),
    ("standard", _edit_meta(lambda m: m.update(pairs=3)),
     "checkpoint meta: pairs must be list, not int"),
    ("standard", _edit_meta(lambda m: m.update(pairs=[["a", "b", 1]])),
     "meta pairs row ['a', 'b', 1] is not 3 entries led by 2 ints"),
    ("standard", _edit_meta(lambda m: m.update(seed="x")),
     "checkpoint meta: seed must be int, not str"),
    ("standard", _edit_meta(lambda m: m.update(method=5)),
     "checkpoint meta: method must be str, not int"),
    ("standard", _edit_meta(lambda m: m.pop("category_map")),
     "checkpoint meta: missing keys ['category_map']"),
    # a split head without its map used to evaluate with exit 0, ignoring the
    # solo column, and a solo column past the head to exit 3 with IndexError
    ("split", _edit_meta(lambda m: m.update(category_map=None)),
     "head has 5 columns, but 4 categories and category map [] need 4"),
    ("split", _edit_meta(lambda m: m.update(category_map=[[0, 9]])),
     "category map [[0, 9]] need 5, with every solo column in [4, 5)"),
], ids=["flipped_byte", "wrong_version", "short_store", "bad_magic", "format_1",
        "float_offset", "missing_own_rows", "str_d_in", "list_meta", "head_offset_8",
        "int_category_map", "int_pairs", "str_pair_row", "str_seed", "int_method",
        "missing_category_map", "split_null_category_map", "split_solo_past_head"])
def test_eval_rejects_corrupt_checkpoint(ws, tmp_path, capsys, method, corrupt, named):
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--method", method, "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    corrupt(run)
    capsys.readouterr()
    code = cli.main([
        "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"),
        "--out", str(tmp_path / "ev"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "ev").exists()


def test_report_refuses_missing_provenance(ws, tmp_path):
    run = tmp_path / "run"
    cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ])
    ev_dir = tmp_path / "ev"
    cli.main([
        "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"),
        "--out", str(ev_dir),
    ])
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "report.json").write_text((ev_dir / "report.json").read_text())
    assert cli.main(["report", "--inputs", str(bare), "--out", str(tmp_path / "r")]) == 2


def _two_pairs(report):
    return dict(report, pairs=report["pairs"] + [dict(report["pairs"][0], b=2, c=3)])


def _cam_report_on_two_pairs(report):
    return dict(_two_pairs(report), method="ours_cam")


def _standard_report_on_two_pairs(report):
    other = dict(report, method="ours_cam", pairs=list(report["pairs"]))
    report.update(_two_pairs(report))
    return other


@pytest.mark.parametrize("edit, named", [
    (lambda r: r["pairs"][0].pop("b"), "report pair 0: missing keys ['b']"),
    (lambda r: r["pairs"][0].update(c=1.0), "report pair 0: c must be int, not float"),
    (lambda r: r["pairs"][0].update(ap_exclusive="x"),
     "report pair 0: ap_exclusive must be float | None, not str"),
    (lambda r: r["pairs"][0].update(bias=True), "report pair 0: bias must be float | None"),
    (lambda r: r.update(map_exclusive="x"), "report: map_exclusive must be float | None, not str"),
    (lambda r: r.update(topk_recall=[]), "report: topk_recall must be dict, not list"),
    # a shorter standard report used to drop pair (2, 3) with exit 0, and a
    # shorter other report to exit 3 with IndexError
    (_cam_report_on_two_pairs,
     "reports list different pairs: ours_cam [(0, 1), (2, 3)]; standard [(0, 1)]"),
    (_standard_report_on_two_pairs,
     "reports list different pairs: ours_cam [(0, 1)]; standard [(0, 1), (2, 3)]"),
], ids=["row_without_b", "float_c", "str_ap_exclusive", "bool_bias", "str_map_exclusive",
        "list_topk", "short_standard_pairs", "short_other_pairs"])
def test_report_rejects_malformed_report(ws, tmp_path, capsys, edit, named):
    # a row without b used to exit 3 with a KeyError, a string AP to exit 2
    # on a format code, and a string mAP to pass. An edit that returns a
    # report adds it as a second input.
    run, ev_dir = tmp_path / "run", tmp_path / "ev"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    assert cli.main([
        "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"), "--out", str(ev_dir),
    ]) == 0
    path = ev_dir / "report.json"
    doc = json.loads(path.read_text())
    other = edit(doc)
    path.write_text(json.dumps(doc))
    inputs = [str(ev_dir)]
    if isinstance(other, dict):
        shutil.copytree(ev_dir, tmp_path / "ev2")
        (tmp_path / "ev2" / "report.json").write_text(json.dumps(other))
        inputs.append(str(tmp_path / "ev2"))
    capsys.readouterr()
    assert cli.main(["report", "--inputs", *inputs, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "r").exists()


def _train_standard(ws, tmp_path):
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--seed", "3", "--pairs", "0:1", "--out", str(run),
    ]) == 0
    return run


@pytest.mark.parametrize("command", ["train", "eval"])
def test_repeated_pair_exits_2_naming_it(ws, tmp_path, capsys, monkeypatch, command):
    # a pair listed twice used to train and evaluate with exit 0, and eval
    # counted it twice in both mAPs; (1, 0) is another pair, since the bias
    # score is directional
    argv = ["train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json")]
    if command == "eval":
        argv = ["eval", "--checkpoint", str(_train_standard(ws, tmp_path)),
                "--data", str(ws / "dtest")]
    steps = []
    sgd_step = dc.sgd_step
    monkeypatch.setattr(dc, "sgd_step", lambda *a: steps.append(1) or sgd_step(*a))
    capsys.readouterr()
    assert cli.main([*argv, "--pairs", "0:1,1:0,0:1", "--out", str(tmp_path / "out")]) == 2
    assert steps == []
    assert capsys.readouterr().err.strip().splitlines() == ["error: pair (0, 1) listed twice"]
    assert not (tmp_path / "out").exists()


def _train_argv(*flags):
    return lambda ws, tmp_path: [
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"), *flags]


def _gen_argv(edit, *flags):
    def make(ws, tmp_path):
        doc = small_gen_dict()
        edit(doc)
        (tmp_path / "gen.json").write_text(json.dumps(doc))
        return ["gen", "--config", str(tmp_path / "gen.json"), *flags]
    return make


def _audit_argv(*flags, edit=lambda doc: None):
    def make(ws, tmp_path):
        shutil.copytree(ws / "dtrain", tmp_path / "d")
        path = tmp_path / "d" / "train.manifest.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        np.savetxt(tmp_path / "preds.csv", np.full((len(doc["samples"]), 4), 0.5), delimiter=",")
        return ["audit", "--labels", str(tmp_path / "d"), "--preds", str(tmp_path / "preds.csv"),
                *flags]
    return make


def _empty_dataset(tmp_path):
    """A test set with no samples: a store that holds only its magic, and a manifest
    that lists no sample (gen refuses a config that makes none)."""
    out = tmp_path / "empty"
    out.mkdir()
    data.write_store(out / "test.store", [])
    manifest = data.DatasetManifest(
        [f"cat{k}" for k in range(4)], 4, 4, 8, samples=[], labels=np.zeros((0, 4), dtype=int),
        split_tag="test", store="test.store")
    data.dump_json(manifest.to_dict(), out / "test.manifest.json")
    return str(out)


def _eval_empty(ws, tmp_path):
    return ["eval", "--checkpoint", str(_train_standard(ws, tmp_path)),
            "--data", _empty_dataset(tmp_path)]


def _audit_empty(ws, tmp_path):
    (tmp_path / "preds.csv").write_text("")
    return ["audit", "--labels", _empty_dataset(tmp_path), "--preds", str(tmp_path / "preds.csv")]


def _audit_empty_preds(ws, tmp_path):
    argv = _audit_argv()(ws, tmp_path)
    (tmp_path / "preds.csv").write_text("")
    return argv


def _report_twice(ws, tmp_path):
    ev_dir = tmp_path / "ev"
    assert cli.main(["eval", "--checkpoint", str(_train_standard(ws, tmp_path)),
                     "--data", str(ws / "dtest"), "--out", str(ev_dir)]) == 0
    shutil.copytree(ev_dir, tmp_path / "ev2")
    return ["report", "--inputs", str(ev_dir), str(tmp_path / "ev2")]


def _eval_with_meta_pairs(pairs):
    def make(ws, tmp_path):
        run = _train_standard(ws, tmp_path)
        _edit_meta(lambda m: m.update(pairs=pairs))(run)
        return ["eval", "--checkpoint", str(run), "--data", str(ws / "dtest")]
    return make


def _repeat_first_id(doc):
    doc["samples"][1]["id"] = doc["samples"][0]["id"]


@pytest.mark.parametrize("make_argv, named", [
    (_train_argv("--set", "foo"), "override 'foo' is not key=value"),
    (_train_argv("--pairs", "0-1"), "--pairs: '0-1' is not B:C"),
    (_train_argv("--pairs", "1:1"), "pair (1, 1) repeats a category"),
    (_train_argv("--set", "batch_size=0"), "batch_size must be positive"),
    (_train_argv("--set", "stage1_epochs=-1"), "epoch counts must be nonnegative"),
    (_gen_argv(lambda d: d.update(noise_std=-1.0)), "noise_std must be nonnegative"),
    (_gen_argv(lambda d: d["planted_pairs"][0].update(context=9)),
     "planted pair category out of range"),
    (_gen_argv(lambda d: d.update(filler_pool=[])),
     "filler samples need at least one non-biased category"),
    (_gen_argv(lambda d: d["signatures"][2].pop()), "signature length must equal d_in"),
    (_report_twice, "two inputs report method 'standard'"),
    (_audit_argv("--k", "0"), "k must be at least 1"),
    (_audit_argv("--freq-threshold", "1.5"), "freq_threshold must be in (0, 1)"),
    (_audit_argv(edit=_repeat_first_id), "duplicate sample ids in manifest"),
    (_eval_with_meta_pairs([]), "checkpoint records no pairs; pass --pairs"),
    # pairs read from a checkpoint used to skip the --pairs checks: a pair
    # listed twice counted twice in both mAPs, and (0, 0) gave null mAPs
    (_eval_with_meta_pairs([[0, 1, 1.5], [0, 1, 1.5]]), "pair (0, 1) listed twice"),
    (_eval_with_meta_pairs([[0, 0, 1.5]]), "pair (0, 0) repeats a category"),
    (_eval_with_meta_pairs([[0, 9, 1.5]]), "pair (0, 9) outside 4 categories"),
    # an empty test set used to exit 3 on an IndexError of its (0,) label matrix
    (_eval_empty, "{tmp}/empty/test.manifest.json: empty dataset"),
    (_audit_empty, "{tmp}/empty/test.manifest.json: empty dataset"),
    # negative seeds used to reach numpy's unnamed "expected non-negative integer"
    (_train_argv("--seed", "-1"), "seed must be nonnegative, got -1"),
    (_gen_argv(lambda d: None, "--seed", "-1"), "seed must be nonnegative, got -1"),
    # an empty predictions file used to warn on stderr, then fail on its (0, 1) shape
    (_audit_empty_preds, "{tmp}/preds.csv: no predictions"),
], ids=["train_set_without_value", "train_pair_without_colon", "train_pair_one_category",
        "train_batch_size_0", "train_negative_epochs", "gen_negative_noise",
        "gen_pair_category_9", "gen_empty_filler_pool", "gen_short_signature",
        "report_one_method_twice", "audit_k_0", "audit_freq_threshold_1.5",
        "audit_repeated_sample_id", "eval_checkpoint_without_pairs", "eval_meta_pair_twice",
        "eval_meta_pair_one_category", "eval_meta_pair_category_9", "eval_empty_dataset",
        "audit_empty_dataset", "train_negative_seed", "gen_negative_seed", "audit_empty_preds"])
@pytest.mark.filterwarnings("error")  # a warning is a second line on stderr outside capsys
def test_refusal_exits_2_with_one_line(ws, tmp_path, capsys, make_argv, named):
    # refusals no other test reaches, each one line
    argv = make_argv(ws, tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {named.format(tmp=tmp_path)}"]
    assert not out.exists()


def _audit_preds(text):
    def make(ws, tmp_path):
        (tmp_path / "preds.csv").write_text(text)
        return ["audit", "--labels", str(ws / "dtrain"), "--preds", str(tmp_path / "preds.csv")]
    return make


def _sweep_argv(*flags):
    return lambda ws, tmp_path: [
        "sweep", "--fractions", "0.05", "--methods", "standard", "--seeds", "0", *flags]


@pytest.mark.parametrize("make_argv, named", [
    (_audit_preds("0.1,0.2,0.3,0.4\n0.5,0.6\n"),
     "{tmp}/preds.csv: the number of columns changed from 4 to 2 at row 2"),
    (_audit_preds("0.1,0.2,abc,0.4\n"), "{tmp}/preds.csv: could not convert string 'abc'"),
    (_train_argv("--pairs", "a:1"), "--pairs: 'a:1' is not B:C"),
    (lambda ws, tmp_path: ["eval", "--checkpoint", str(_train_standard(ws, tmp_path)),
                           "--data", str(ws / "dtest"), "--pairs", "0:1,2:x"],
     "--pairs: '2:x' is not B:C"),
    (_sweep_argv("--fractions", "0.05,abc"), "--fractions: 'abc' is not a number"),
    (_sweep_argv("--seeds", "1,x"), "--seeds: 'x' is not an integer"),
], ids=["audit_ragged_preds", "audit_text_pred", "train_pair_letter", "eval_pair_letter",
        "sweep_fraction_letters", "sweep_seed_letter"])
def test_parse_error_exits_2_naming_its_source(ws, tmp_path, capsys, make_argv, named):
    # these used to print numpy's or int()'s message alone, such as
    # "invalid literal for int() with base 10: 'a'", naming neither flag nor file
    argv = make_argv(ws, tmp_path)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {named.format(tmp=tmp_path)}"), err
    assert not (tmp_path / "out").exists()


def test_exit_codes(ws, tmp_path, capsys):
    assert cli.main(["--bogus"]) == 1
    assert cli.main(["train", "--data", str(ws / "dtrain")]) == 1  # --out missing
    code = cli.main([
        "train", "--data", str(ws / "dtrain"), "--set", "method=\"nope\"",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    code = cli.main([
        "eval", "--checkpoint", str(tmp_path / "missing"),
        "--data", str(ws / "dtest"), "--out", str(tmp_path / "y"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error:")


@pytest.mark.parametrize("case", [
    "gen-config", "train-config", "sweep-config", "audit-preds", "eval-manifest-store",
    "eval-checkpoint-store",
])
def test_missing_input_file_exits_2_naming_it(ws, tmp_path, capsys, case):
    # every input file is opened through data._open_input, so a missing
    # config, predictions file, manifest store or checkpoint store is one
    # line naming it
    out = str(tmp_path / "out")
    missing = tmp_path / "missing.json"
    argv = {
        "gen-config": ["gen", "--config", str(missing), "--out", out],
        "train-config": ["train", "--config", str(missing), "--data", str(ws / "dtrain"),
                         "--out", out],
        "sweep-config": ["sweep", "--config", str(missing), "--fractions", "0.05",
                         "--methods", "standard", "--out", out],
        "audit-preds": ["audit", "--labels", str(ws / "dtest"), "--preds", str(missing),
                        "--out", out],
    }.get(case)
    if argv is None:
        run, test_dir = tmp_path / "run", tmp_path / "dtest"
        assert cli.main([
            "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
            "--pairs", "0:1", "--out", str(run),
        ]) == 0
        shutil.copytree(ws / "dtest", test_dir)
        missing = {"eval-manifest-store": test_dir / "test.store",
                   "eval-checkpoint-store": run / "checkpoint.json.store"}[case]
        missing.unlink()
        argv = ["eval", "--checkpoint", str(run), "--data", str(test_dir), "--out", out]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(missing) in err[0], err


@pytest.mark.parametrize("flags, seed", [
    ([], 0),  # the config sets no seed
    (["--set", "seed=9"], 9),
    (["--set", "seed=9", "--seed", "4"], 4),
], ids=["default", "config", "flag"])
def test_train_seed_flag_over_config(ws, tmp_path, flags, seed):
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
        "--pairs", "0:1", "--out", str(run), *flags,
    ]) == 0
    assert json.loads((run / "provenance.json").read_text())["seed"] == seed


def test_rerun_byte_identical(ws, tmp_path):
    outs = []
    for name in ("a", "b"):
        run = tmp_path / name
        cli.main([
            "train", "--data", str(ws / "dtrain"), "--config", str(ws / "train.json"),
            "--seed", "3", "--pairs", "0:1", "--out", str(run),
        ])
        ev_dir = tmp_path / f"ev_{name}"
        cli.main([
            "eval", "--checkpoint", str(run), "--data", str(ws / "dtest"),
            "--out", str(ev_dir),
        ])
        outs.append((run, ev_dir))
    (run_a, ev_a), (run_b, ev_b) = outs
    for fname in ("checkpoint.json", "checkpoint.json.store", "artifacts.json",
                  "provenance.json"):
        assert filecmp.cmp(run_a / fname, run_b / fname, shallow=False), fname
    assert filecmp.cmp(ev_a / "report.json", ev_b / "report.json", shallow=False)


def test_audit_roundtrip(ws, tmp_path):
    man = data.load_manifest(str(ws / "dtrain" / "train.manifest.json"))
    labels = man.labels
    rng = np.random.default_rng(0)
    # synthetic preds leaning on category 1 to predict 0: audit should rank (0, 1)
    preds = rng.uniform(0.05, 0.15, size=labels.shape)
    has_0 = labels[:, 0] == 1
    preds[has_0, 0] = 0.3
    preds[has_0 & (labels[:, 1] == 1), 0] = 0.9
    csv = tmp_path / "preds.csv"
    np.savetxt(csv, preds, delimiter=",")
    out = tmp_path / "aud"
    assert cli.main([
        "audit", "--labels", str(ws / "dtrain"), "--preds", str(csv),
        "--out", str(out), "--k", "2",
    ]) == 0
    doc = json.loads((out / "audit.json").read_text())
    assert doc["pairs"][0]["b"] == 0 and doc["pairs"][0]["c"] == 1
    assert doc["pairs"][0]["score"] > 1.5
    assert (out / "provenance.json").exists()

    bad = tmp_path / "bad.csv"
    np.savetxt(bad, preds[:, :2], delimiter=",")
    assert cli.main([
        "audit", "--labels", str(ws / "dtrain"), "--preds", str(bad),
        "--out", str(tmp_path / "aud2"),
    ]) == 2

    assert cli.main([
        "audit", "--labels", str(ws / "dtrain"), "--preds", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "aud3"),
    ]) == 2  # missing file is a validation error, not a crash


def test_audit_rejects_out_of_range_prediction(ws, tmp_path, capsys):
    labels = data.load_manifest(str(ws / "dtrain" / "train.manifest.json")).labels
    for bad in (1.25, -0.5):
        preds = np.full(labels.shape, 0.5)
        preds[3, 1] = bad
        csv = tmp_path / "preds.csv"
        np.savetxt(csv, preds, delimiter=",")
        out = tmp_path / "aud"
        assert cli.main([
            "audit", "--labels", str(ws / "dtrain"), "--preds", str(csv), "--out", str(out),
        ]) == 2, bad
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: preds must lie in [0, 1]")
        assert not out.exists()


def test_audit_rejects_zero_exclusive_mean(ws, tmp_path, capsys):
    # a zero mean prediction without the context has no finite bias score
    labels = data.load_manifest(str(ws / "dtrain" / "train.manifest.json")).labels
    preds = np.full(labels.shape, 0.5)
    preds[(labels[:, 0] == 1) & (labels[:, 1] == 0), 0] = 0.0
    csv = tmp_path / "preds.csv"
    np.savetxt(csv, preds, delimiter=",")
    out = tmp_path / "aud"
    assert cli.main([
        "audit", "--labels", str(ws / "dtrain"), "--preds", str(csv), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: bias(0,1) undefined: mean prediction of 0 without 1 is 0"]
    assert not out.exists()


def test_sweep_trend_and_run_provenance(tmp_path):
    out = tmp_path / "sw"
    code = cli.main([
        "sweep", "--fractions", "0.05", "--methods", "standard,feature-split",
        "--seeds", "0", "--set", "stage1_epochs=1", "--set", "stage2_epochs=1",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "trend.csv").read_text().strip().splitlines()
    assert lines[0] == "fraction,method,seed,map_exclusive,map_cooccur,mean_cosine"
    assert len(lines) == 3
    methods = {ln.split(",")[1] for ln in lines[1:]}
    assert methods == {"standard", "ours_feature_split"}
    run = out / "runs" / "f0.05_s0" / "ours_feature_split"
    assert (run / "report.json").exists()
    prov = json.loads((run / "provenance.json").read_text())
    assert prov["config"]["method"] == "ours_feature_split"
    assert prov["inputs"]["pairs"] == [[0, 1], [2, 3]]
    # total sample count is fraction-independent by construction
    man = data.load_manifest(str(out / "runs" / "f0.05_s0" / "data" / "train"
                                 / "train.manifest.json"))
    assert len(man.samples) == 2 * data.BENCH_PER_PAIR + data.BENCH_FILLER


def test_benchmark_cell_pools_each_store_once(tmp_path, monkeypatch):
    # stage 2 trains on the rows stage 1 pooled and every evaluation scores
    # the rows the cell read once: one pooled read per store, whatever the methods
    reads = []
    real = data.load_pooled
    monkeypatch.setattr(data, "load_pooled", lambda man: reads.append(man.split_tag) or real(man))
    methods = ["standard", "weighted_loss", "negative_penalty", "remove_cooccur_labels",
               "remove_cooccur_images", "split_biased"]
    cell = cli.run_benchmark_cell(0.25, 0, methods, str(tmp_path),
                                  {"stage1_epochs": 1, "stage2_epochs": 1})
    assert sorted(cell.reports) == sorted(methods)
    assert sorted(reads) == ["test", "train"]


def test_console_script_help():
    """The `debias` console script resolves to cli.entry, and --help exits 0.

    Checks the wiring without an install: the [project.scripts] target is read
    from pyproject.toml and resolved, then the same module is run through
    `python -m debias.cli` against the source tree the test imported.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["debias"] == "debias.cli:entry"

    mod_name, _, attr = scripts["debias"].partition(":")
    target = getattr(importlib.import_module(mod_name), attr)
    assert target is cli.entry
    assert callable(target)

    env = dict(os.environ)
    src = str(Path(debias.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", mod_name, "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    for sub in ("gen", "audit", "train", "eval", "sweep", "report"):
        assert sub in res.stdout, sub
