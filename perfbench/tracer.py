"""Tracing geometer from outside, by wrapping its public functions.

Each wrapper records a span (name, start, end, parent) around one call into a
layer.  Functions are wrapped where their callers look them up: ``runner``
and ``cli`` import most layer functions by name, so those are patched on the
importing module; functions called through their own module (``gat_layer``,
``refine_prototype``, ``value_and_grad``, ``Adam.step``) are patched there.
Spans stay in memory and are written once, when the run ends.

``EpisodeClock`` is the only hook of an untraced run: one timestamp per
``runner.episode_rng`` call, from which episode times are derived.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter, defaultdict

MIB = float(1 << 20)

# (per-layer metric, unit, end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("graph_store.load_s", "s", "setup_s, pretrain_s, stream_s: all workloads"),
    ("graph_store.load_calls", "count", "setup_s, pretrain_s, stream_s: all workloads"),
    ("graph_store.stream_build_s", "s", "setup_s, peak_rss_mb: all, most manyclass_stream"),
    ("graph_store.stream_build_calls", "count", "pretrain_s, stream_s: all workloads"),
    ("graph_store.snapshot_feature_mb", "MiB", "peak_rss_mb, setup_s: most manyclass_stream"),
    ("episodes.sample_s", "s", "finetune_episode_ms: manyclass_stream"),
    ("episodes.sample_calls", "count", "finetune_episode_ms: manyclass_stream"),
    ("backbone.encode_train_s", "s", "*_episode_ms: coraml_stream"),
    ("backbone.encode_infer_s", "s", "pretrain_s, stream_s: coraml_stream"),
    ("backbone.encode_calls", "count", "*_episode_ms: coraml_stream"),
    ("backbone.layer0_s", "s", "*_episode_ms: coraml_stream"),
    ("backbone.layer1_s", "s", "*_episode_ms: coraml_stream"),
    ("backbone.rows_encoded", "count", "*_episode_ms: coraml_stream"),
    ("backbone.useful_row_frac", "ratio", "*_episode_ms: coraml_stream"),
    ("diffmath.backward_s", "s", "*_episode_ms: coraml_stream, manyclass_stream, demo_stream"),
    ("diffmath.backward_calls", "count", "*_episode_ms: all workloads"),
    ("diffmath.tape_nodes", "count", "*_episode_ms: manyclass_stream, demo_stream"),
    ("prototypes.compute_s", "s", "finetune_episode_ms.p90, stream_s: manyclass_stream"),
    ("prototypes.compute_calls", "count", "finetune_episode_ms.p90, stream_s: manyclass_stream"),
    ("prototypes.refine_calls", "count", "finetune_episode_ms.p90, stream_s: manyclass_stream"),
    ("losses.proximity_s", "s", "*_episode_ms: manyclass_stream"),
    ("losses.uniformity_s", "s", "finetune_episode_ms: manyclass_stream"),
    ("losses.separability_s", "s", "finetune_episode_ms: manyclass_stream"),
    ("losses.distillation_s", "s", "finetune_episode_ms: manyclass_stream"),
    ("losses.softened_logits_s", "s", "finetune_episode_ms: manyclass_stream"),
    ("optim.step_s", "s", "pretrain_episode_ms: coraml_stream"),
    ("optim.step_calls", "count", "pretrain_episode_ms: coraml_stream"),
    ("optim.param_mb", "MiB", "pretrain_episode_ms: coraml_stream"),
    ("runner.evaluate_s", "s", "pretrain_s, stream_s: demo_stream"),
    ("runner.evaluate_calls", "count", "pretrain_s, stream_s: demo_stream"),
    ("runner.episode_self_s", "s", "*_episode_ms: demo_stream"),
    ("checkpoint.save_s", "s", "pretrain_s, stream_s: demo_stream"),
    ("checkpoint.load_s", "s", "stream_s: demo_stream"),
    ("checkpoint.mb_written", "MiB", "pretrain_s, stream_s: demo_stream"),
    ("cli.self_s", "s", "setup_s, pretrain_s, stream_s: demo_stream"),
]

# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("graph_store.snapshot_feature_mb", "graph_store.load_calls",
                "backbone.useful_row_frac", "prototypes.refine_calls",
                "diffmath.tape_nodes")

EPISODE = "runner.episode"
ROOTS = ("cli.prepare", "cli.pretrain", "cli.stream")


class EpisodeClock:
    """Timestamps each ``runner.episode_rng(seed, stage, i)`` call."""

    def __init__(self, runner_module, on_start=None):
        self.stamps = defaultdict(list)     # stage -> perf_counter values
        orig = runner_module.episode_rng

        def episode_rng(seed, stage, index):
            self.stamps[int(stage)].append(time.perf_counter())
            if on_start is not None:
                on_start()
            return orig(seed, stage, index)

        runner_module.episode_rng = episode_rng

    def intervals_ms(self):
        """(pretrain, finetune) gaps between consecutive episode starts per stage,
        in ms; the last episode of each stage has no successor and is dropped."""
        pre, fine = [], []
        for stage, ts in self.stamps.items():
            gaps = [1000.0 * (b - a) for a, b in zip(ts, ts[1:])]
            (pre if stage == 0 else fine).extend(gaps)
        return pre, fine


def _tape_size(root) -> int:
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    """In-memory span recorder plus the counts that spans alone do not give."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)
        self.tape_nodes = []
        self.snapshot_bytes = 0
        self.param_bytes = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def span(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = self.span(label, orig, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def _close_episode(self):
        if self._stack and self.spans[self._stack[-1]][0] == EPISODE:
            self.close(self._stack[-1])

    def start_episode(self):
        """Called at each episode start; the span ends with the optimizer step."""
        self._close_episode()
        self.open(EPISODE)

    # -- wrapping --------------------------------------------------------------

    def install(self, geometer):
        """Wrap the layer functions of an imported ``geometer`` package."""
        cli, runner = geometer.cli, geometer.runner
        count = self.counts

        def built(args, kwargs, stream):
            self.snapshot_bytes = sum(s.features.nbytes for s in stream.snapshots)

        def saved(args, kwargs, result):
            count["bytes_written"] += os.path.getsize(args[0])

        self._wrap(cli, "load_graph", "graph_store.load")
        self._wrap(cli, "build_session_stream", "graph_store.stream_build", built)
        self._wrap(cli, "load_session_stream", "graph_store.stream_build", built)
        self._wrap(cli, "save_tensors", "checkpoint.save", saved)
        self._wrap(cli, "load_tensors", "checkpoint.load")
        self._wrap(cli, "evaluate_session", "runner.evaluate")
        self._wrap(cli, "pretrain", "runner.stage")
        self._wrap(cli, "run_stream_session", "runner.stage")

        def sampled(args, kwargs, episode):
            useful = episode.support_nodes() | {int(v) for v in episode.query_nodes()}
            count["useful_rows"] += len(useful)

        for fn in ("sample_pretrain_episode", "sample_finetune_episode"):
            self._wrap(runner, fn, "episodes.sample", sampled)

        def encode_kind(args, kwargs):
            rng = kwargs.get("rng", args[3] if len(args) > 3 else None)
            return "backbone.encode_train" if rng is not None else "backbone.encode_infer"

        def encoded(args, kwargs, result):
            rows = args[1].node_count
            count["rows_encoded"] += rows
            if encode_kind(args, kwargs) == "backbone.encode_train":
                count["train_rows_encoded"] += rows

        self._wrap(runner, "encode", encode_kind, encoded)
        self._wrap(geometer.backbone, "gat_layer",
                   lambda a, k: f"backbone.layer{k.get('layer', a[3] if len(a) > 3 else 0)}")

        self._wrap(runner, "compute_prototypes", "prototypes.compute")
        self._wrap(geometer.prototypes, "refine_prototype", "prototypes.refine")
        for fn, label in (("proximity_loss", "proximity"), ("uniformity_loss", "uniformity"),
                          ("separability_loss", "separability"),
                          ("distillation_loss", "distillation"),
                          ("softened_logits", "softened_logits")):
            self._wrap(runner, fn, f"losses.{label}")

        dm = geometer.diffmath
        value_and_grad = dm.value_and_grad

        def traced_value_and_grad(output, wrt):
            # counted in a span of its own so it stays out of the episode's self time
            index = self.open("trace.tape")
            self.tape_nodes.append(_tape_size(output))
            self.close(index)
            return self.span("diffmath.backward", value_and_grad, output, wrt)

        dm.value_and_grad = traced_value_and_grad

        adam_step = geometer.optim.Adam.step

        def traced_step(opt, grads):
            self.param_bytes = max(self.param_bytes, sum(p.data.nbytes for p in opt.params))
            try:
                return self.span("optim.step", adam_step, opt, grads)
            finally:
                self._close_episode()

        geometer.optim.Adam.step = traced_step

    # -- results -------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def metrics(self) -> dict:
        total = defaultdict(float)
        for name, start, end, _ in self.spans:
            total[name] += end - start
        calls = Counter(name for name, _, _, _ in self.spans)
        selfs = self.self_times()
        episode_self = sum(s for sp, s in zip(self.spans, selfs) if sp[0] == EPISODE)
        cli_self = sum(s for sp, s in zip(self.spans, selfs) if sp[0] in ROOTS)
        c = self.counts
        return {
            "graph_store.load_s": total["graph_store.load"],
            "graph_store.load_calls": calls["graph_store.load"],
            "graph_store.stream_build_s": total["graph_store.stream_build"],
            "graph_store.stream_build_calls": calls["graph_store.stream_build"],
            "graph_store.snapshot_feature_mb": self.snapshot_bytes / MIB,
            "episodes.sample_s": total["episodes.sample"],
            "episodes.sample_calls": calls["episodes.sample"],
            "backbone.encode_train_s": total["backbone.encode_train"],
            "backbone.encode_infer_s": total["backbone.encode_infer"],
            "backbone.encode_calls": (calls["backbone.encode_train"]
                                      + calls["backbone.encode_infer"]),
            "backbone.layer0_s": total["backbone.layer0"],
            "backbone.layer1_s": total["backbone.layer1"],
            "backbone.rows_encoded": c["rows_encoded"],
            "backbone.useful_row_frac": c["useful_rows"] / max(1.0, c["train_rows_encoded"]),
            "diffmath.backward_s": total["diffmath.backward"],
            "diffmath.backward_calls": calls["diffmath.backward"],
            "diffmath.tape_nodes": float(statistics.median(self.tape_nodes or [0])),
            "prototypes.compute_s": total["prototypes.compute"],
            "prototypes.compute_calls": calls["prototypes.compute"],
            "prototypes.refine_calls": calls["prototypes.refine"],
            "losses.proximity_s": total["losses.proximity"],
            "losses.uniformity_s": total["losses.uniformity"],
            "losses.separability_s": total["losses.separability"],
            "losses.distillation_s": total["losses.distillation"],
            "losses.softened_logits_s": total["losses.softened_logits"],
            "optim.step_s": total["optim.step"],
            "optim.step_calls": calls["optim.step"],
            "optim.param_mb": self.param_bytes / MIB,
            "runner.evaluate_s": total["runner.evaluate"],
            "runner.evaluate_calls": calls["runner.evaluate"],
            "runner.episode_self_s": episode_self,
            "checkpoint.save_s": total["checkpoint.save"],
            "checkpoint.load_s": total["checkpoint.load"],
            "checkpoint.mb_written": c["bytes_written"] / MIB,
            "cli.self_s": cli_self,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
