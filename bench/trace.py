"""Span tracing of the debias package, installed from outside it.

`Tracer.install` replaces the public functions of each module with wrappers
that record a span (name, start, end, parent) per call, wraps the `vjp`
callback of every node a wrapped diffcore op returns, and wraps
`losses.CamSnapshot.rows`. Spans are kept in flat in-memory arrays and
written to one `.npz` file when the run ends. `layer_metrics` turns them
into the per-layer figures; a span's self time is its duration minus the
durations of its direct children.

`Probe` is the light instrumentation the untraced end-to-end mode also uses:
it times the calls into the two training stages and
counts optimizer steps, so stage times come from the calls the program
itself makes.
"""

from __future__ import annotations

import functools
import os
import time
import types
from array import array

import numpy as np

MODULES = ("diffcore", "data", "bias", "model", "losses", "train", "eval", "cli")

# The diffcore ops whose forward and VJP times are reported one by one.
DIFF_OPS = (
    "matmul", "take", "gap_rows", "max_rows", "repeat_rows", "mul", "div", "add",
    "scale", "relu", "sigmoid", "log", "absval", "mean_all", "concat",
    "stop_gradient",
)

# as_f64 is the dtype coercion every DiffNode constructor calls; a span per
# node would double the span count and measure nothing but the wrapper.
UNTRACED = {("diffcore", "as_f64")}

CLI_SUBCOMMANDS = ("gen", "eval", "audit", "report")


def _public_functions(mod):
    for name, obj in sorted(vars(mod).items()):
        if (
            not name.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == mod.__name__
        ):
            yield name, obj


class Patches:
    """Module attributes replaced for one run, restored by `undo`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Probe:
    """Times the training-stage calls; counts SGD steps."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.events = []  # dicts: kind, seconds, and per-kind fields
        self.sgd_calls = 0

    def install(self, patches: Patches):
        train, dc = self.pkg.train, self.pkg.diffcore
        probe = self
        stage1, stage2 = train.train_stage1, train.train_stage2
        sgd = dc.sgd_step

        def timed(kind, fn, fields):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                steps0 = probe.sgd_calls
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                seconds = time.perf_counter() - t0
                probe.events.append(
                    dict(kind=kind, seconds=seconds, steps=probe.sgd_calls - steps0,
                         **fields(args, kwargs, out))
                )
                return out
            return wrapper

        def count_sgd(*args, **kwargs):
            probe.sgd_calls += 1
            return sgd(*args, **kwargs)

        patches.set(dc, "sgd_step", count_sgd)
        patches.set(train, "train_stage1", timed(
            "stage1", stage1,
            lambda a, k, out: dict(manifest=a[0], cfg=a[1], arts=out)))
        patches.set(train, "train_stage2", timed(
            "stage2", stage2,
            lambda a, k, out: dict(manifest=a[1], cfg=a[2], arts=out)))


class Tracer:
    """In-memory spans over the debias package's public functions."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.store_bytes = 0
        self.snapshot_calls = 0
        self.snapshot_hits = 0

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _call(self, name_id, fn, args, kwargs):
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def _wrap(self, name, fn):
        name_id = self._id(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_id, fn, args, kwargs)
        return wrapper

    def _wrap_op(self, name, fn):
        """A diffcore op: its span, plus a span around the returned node's VJP."""
        name_id = self._id(f"diffcore.{name}")
        vjp_id = self._id(f"diffcore.{name}.vjp")
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = call(name_id, fn, args, kwargs)
            vjp = node.vjp
            if vjp is not None:
                node.vjp = lambda g: call(vjp_id, vjp, (g,), {})
            return node
        return wrapper

    def install(self, patches: Patches):
        pkg = self.pkg
        for mod_name in MODULES:
            mod = getattr(pkg, mod_name)
            for name, fn in _public_functions(mod):
                if (mod_name, name) in UNTRACED:
                    continue
                if mod_name == "diffcore" and name in DIFF_OPS:
                    wrapped = self._wrap_op(name, fn)
                elif mod_name == "cli" and name == "main":
                    wrapped = self._wrap_cli_main(fn)
                else:
                    wrapped = self._wrap(f"{mod_name}.{name}", fn)
                patches.set(mod, name, wrapped)
        self._count_store_writes(patches)
        self._wrap_snapshot_rows(patches)

    def _wrap_cli_main(self, fn):
        ids = {sub: self._id(f"cli.main.{sub}") for sub in CLI_SUBCOMMANDS}
        other = self._id("cli.main")
        call = self._call

        @functools.wraps(fn)
        def wrapper(argv=None):
            sub = argv[0] if argv else None
            return call(ids.get(sub, other), fn, (argv,), {})
        return wrapper

    def _count_store_writes(self, patches: Patches):
        # every store file is written through generate_dataset or write_store
        data = self.pkg.data
        tracer = self
        gen, write = data.generate_dataset, data.write_store

        def gen_counted(*args, **kwargs):
            man = gen(*args, **kwargs)
            tracer.store_bytes += os.path.getsize(man.store_path())
            return man

        def write_counted(path, arrays):
            out = write(path, arrays)
            tracer.store_bytes += os.path.getsize(path)
            return out

        patches.set(data, "generate_dataset", functools.wraps(gen)(gen_counted))
        patches.set(data, "write_store", functools.wraps(write)(write_counted))

    def _wrap_snapshot_rows(self, patches: Patches):
        cls = self.pkg.losses.CamSnapshot
        rows = cls.rows
        name_id = self._id("losses.snapshot_rows")
        tracer = self

        @functools.wraps(rows)
        def traced_rows(snap, *args, **kwargs):
            cache = getattr(snap, "_cache", None)
            before = len(cache) if cache is not None else None
            out = tracer._call(name_id, rows, (snap,) + args, kwargs)
            tracer.snapshot_calls += 1
            if cache is not None and len(cache) == before:
                tracer.snapshot_hits += 1
            return out

        patches.set(cls, "rows", traced_rows)

    # -- results -----------------------------------------------------------

    def arrays(self):
        names = np.array(self.names)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return names, name_of, parent, start, end

    def save(self, path):
        names, name_of, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=names, name=name_of, parent=parent, start=start, end=end
        )

    def layer_metrics(self) -> dict:
        """Per-layer figures named as in BENCHMARK.json `per_layer`."""
        names, name_of, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        k = len(names)
        calls = np.bincount(name_of, minlength=k)
        total = np.bincount(name_of, weights=dur, minlength=k)
        own = np.bincount(name_of, weights=self_t, minlength=k)
        by_name = {n: (int(calls[i]), float(total[i]), float(own[i]))
                   for i, n in enumerate(names)}

        def calls_of(n):
            return by_name.get(n, (0, 0.0, 0.0))[0]

        def secs(n):
            return by_name.get(n, (0, 0.0, 0.0))[1]

        def self_of(n):
            return by_name.get(n, (0, 0.0, 0.0))[2]

        layer_self = {m: 0.0 for m in MODULES}
        for n, (_, _, s) in by_name.items():
            layer_self[n.split(".", 1)[0]] += s

        out = {}
        for op in DIFF_OPS:
            out[f"diffcore.{op}.calls"] = calls_of(f"diffcore.{op}")
            out[f"diffcore.{op}.fwd_s"] = secs(f"diffcore.{op}")
            out[f"diffcore.{op}.vjp_s"] = secs(f"diffcore.{op}.vjp")
        out["diffcore.eval_backward.calls"] = calls_of("diffcore.eval_backward")
        out["diffcore.eval_backward.self_s"] = self_of("diffcore.eval_backward")
        out["diffcore.sgd_step.s"] = secs("diffcore.sgd_step")
        out["diffcore.self_s"] = layer_self["diffcore"]

        out["losses.self_s"] = layer_self["losses"]
        for fn in ("bce", "weighted_bce_batch", "elementwise_weighted_bce",
                   "suppressed_logits"):
            out[f"losses.{fn}.s"] = secs(f"losses.{fn}")
        for fn in ("cam_overlap_terms", "cam_ground_terms"):
            out[f"losses.{fn}.calls"] = calls_of(f"losses.{fn}")
            out[f"losses.{fn}.s"] = secs(f"losses.{fn}")
        out["losses.snapshot_rows.calls"] = self.snapshot_calls
        out["losses.snapshot_rows.hit_ratio"] = (
            self.snapshot_hits / self.snapshot_calls if self.snapshot_calls else 0.0
        )

        out["model.self_s"] = layer_self["model"]
        for fn in ("forward_batch", "predict"):
            out[f"model.{fn}.calls"] = calls_of(f"model.{fn}")
            out[f"model.{fn}.s"] = secs(f"model.{fn}")
        out["model.save_checkpoint.s"] = secs("model.save_checkpoint")
        out["model.load_checkpoint.s"] = secs("model.load_checkpoint")

        out["data.self_s"] = layer_self["data"]
        out["data.generate_dataset.s"] = secs("data.generate_dataset")
        out["data.store_bytes_written"] = self.store_bytes
        out["data.load_arrays.calls"] = calls_of("data.load_arrays")
        out["data.load_arrays.s"] = secs("data.load_arrays")
        out["data.read_tensor.calls"] = calls_of("data.read_tensor")
        out["data.load_manifest.s"] = secs("data.load_manifest")

        out["train.self_s"] = layer_self["train"]
        out["train.steps"] = calls_of("diffcore.sgd_step")
        out["train.train_stage1.s"] = secs("train.train_stage1")
        out["train.train_stage2.s"] = secs("train.train_stage2")
        out["train.transform_dataset.s"] = secs("train.transform_dataset")

        out["eval.self_s"] = layer_self["eval"]
        out["eval.evaluate.calls"] = calls_of("eval.evaluate")
        out["eval.evaluate.s"] = secs("eval.evaluate")
        out["eval.average_precision.calls"] = calls_of("eval.average_precision")
        out["eval.topk_recall.s"] = secs("eval.topk_recall")

        out["bias.self_s"] = layer_self["bias"]
        out["bias.bias_score.calls"] = calls_of("bias.bias_score")
        out["bias.select_biased_pairs.s"] = secs("bias.select_biased_pairs")

        out["cli.self_s"] = layer_self["cli"]
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.main.{sub}.s"] = secs(f"cli.main.{sub}")
        out["cli.write_provenance.calls"] = calls_of("cli.write_provenance")
        out["trace.spans"] = len(dur)
        return out
