"""Spans recorded from outside the program, around calls into each layer.

`Patches.install()` replaces each traced function with a wrapper at the
place where the program looks the name up: a class attribute for methods,
and the global of the calling module for functions imported by name
(``evaluation`` does ``from .linalg import cosine_similarity``, so both
``linalg`` and ``evaluation`` are patched).  `Patches.uninstall()` puts the
originals back, so untraced passes run the program exactly as shipped.

Every wrapped call records one span: (id, parent id, CLI call id, name,
start, end).  A span's self time is its duration minus the time covered by
its child spans, so the self times of a pass add up to the time spent in
`cli.main`.
"""

import os
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span store with per-name self time and counters."""

    def __init__(self):
        self.spans = []
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, time covered by children]
        self.call_id = 0

    def reset(self):
        self.spans.clear()
        self.self_time.clear()
        self.counts.clear()
        self.call_id = 0

    def wrap(self, name, fn, count=None):
        """`fn` wrapped in a span called `name`; `count(args, kwargs, result)`
        may add counters after the call."""

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)  # reserve the id in call order
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                duration = end - start
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[span_id] = (span_id, parent, self.call_id, name, start, end)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key, fn):
        """`fn` wrapped to count its calls under `key`, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _count_bytes(key):
    """Adds the size of the file the call wrote or read; the count runs only
    after the call returned, so the file exists."""
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0] if args else kwargs["path"])
    return count


def _count_calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_layer(flops_per_row_weight):
    """Counts a layer call; for linear layers also its floating-point work,
    computed from the input rows and the weight shape."""

    def count(counts, args, kwargs, result):
        counts["layers.calls"] += 1
        if flops_per_row_weight:
            # forward(self, x) and backward(self, cache, dout): x is the cache.
            layer, rows = args[0], args[1].shape[0]
            counts["layers.linear_flop"] += (
                flops_per_row_weight * rows * layer.weight.shape[0] * layer.weight.shape[1]
            )
    return count


def _count_clip(counts, args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    if result[1] > max_norm:
        counts["training.clip_fired"] += 1


def _targets(modules):
    """(owner, attribute, span name or None, count) for every traced name.

    A span name of None means the call is counted but gets no span: cosine
    similarity runs once per trial and per angle, and a span around each call
    would cost more than the call.
    """
    cli, data, evaluation, heads, layers, linalg, persistence, svgplot, training = (
        modules[m] for m in (
            "cli", "data", "evaluation", "heads", "layers", "linalg", "persistence",
            "svgplot", "training",
        )
    )
    layer_count = _count_layer(0)
    targets = [
        (cli, "train_run", "training.loop", None),
        (training.AdamW, "step", "training.optimizer",
         _count_calls("training.optimizer_steps")),
        (training, "clip_global_norm", "training.clip", _count_clip),
        (training, "validate_accuracy", "training.validate", None),
        (training, "arc_margin_loss_grad_batch", "arcmargin.loss_grad",
         _count_calls("arcmargin.calls")),
        (layers.LinearLayer, "forward", "layers.linear_forward", _count_layer(2)),
        (layers.LinearLayer, "backward", "layers.linear_backward", _count_layer(4)),
        (layers.BatchNormLayer, "forward", "layers.batchnorm", layer_count),
        (layers.BatchNormLayer, "backward", "layers.batchnorm", layer_count),
        (heads, "leaky_relu", "layers.activation", layer_count),
        (heads, "leaky_relu_backward", "layers.activation", layer_count),
        (layers.DropoutSpec, "apply", "layers.dropout", layer_count),
        (evaluation, "run_full_evaluation", "evaluation.loop", None),
        (evaluation, "build_trials", "evaluation.build_trials", None),
        (evaluation, "score_trials", "evaluation.score_trials", None),
        (evaluation, "compute_eer", "evaluation.compute_eer", None),
        (evaluation, "embed_samples", "evaluation.embed",
         _count_calls("evaluation.embed_calls")),
        (evaluation, "audio_video_angles", "evaluation.angle_families", None),
        (evaluation, "within_identity_angles", "evaluation.angle_families", None),
        (evaluation, "centroid_angle_matrix", "evaluation.angle_families", None),
        (evaluation, "silhouette_score", "evaluation.silhouette", None),
        (evaluation, "boxplot_stats", "evaluation.boxplot", None),
        (persistence, "boxplot_stats", "evaluation.boxplot", None),
        (evaluation, "cosine_similarity", None, "linalg.cosine_calls"),
        (linalg, "cosine_similarity", None, "linalg.cosine_calls"),
        (persistence, "write_embeddings", "persistence.write",
         _count_bytes("persistence.bytes_written")),
        (persistence, "save_checkpoint", "persistence.write",
         _count_bytes("persistence.bytes_written")),
        (persistence, "write_epoch_log", "persistence.write",
         _count_bytes("persistence.bytes_written")),
        (persistence, "read_embeddings", "persistence.read",
         _count_bytes("persistence.bytes_read")),
        (persistence, "load_checkpoint", "persistence.read",
         _count_bytes("persistence.bytes_read")),
        (persistence, "write_report", "persistence.report", None),
        (svgplot, "render_boxplot_svg", "svgplot.render", None),
        (data, "generate_identities", "data.generate", None),
        (data, "sample_dataset", "data.generate", None),
        (data, "split_dataset", "data.generate", None),
    ]
    for cls in (heads.MeanFusionHead, heads.MlpFusionHead):
        targets.append((cls, "forward", "heads.forward", None))
        targets.append((cls, "backward", "heads.backward", None))
    for attr in ("forward_modality", "forward_joint"):
        targets.append((heads.MultiViewHead, attr, "heads.forward", None))
    for attr in ("backward_modality", "backward_joint"):
        targets.append((heads.MultiViewHead, attr, "heads.backward", None))
    return targets


# Span names whose self time is reported, and the counters; every one is
# reported on every workload, as 0 when the workload never calls it.
SPAN_NAMES = (
    "cli.self", "data.generate", "training.loop", "training.optimizer",
    "training.clip", "training.validate", "heads.forward", "heads.backward",
    "arcmargin.loss_grad", "layers.linear_forward", "layers.linear_backward",
    "layers.batchnorm", "layers.activation", "layers.dropout",
    "evaluation.loop", "evaluation.build_trials", "evaluation.score_trials",
    "evaluation.compute_eer", "evaluation.embed", "evaluation.angle_families",
    "evaluation.silhouette", "evaluation.boxplot", "persistence.write",
    "persistence.read", "persistence.report", "svgplot.render",
)
COUNTER_NAMES = (
    "training.optimizer_steps", "training.clip_fired", "arcmargin.calls",
    "layers.calls", "evaluation.embed_calls", "linalg.cosine_calls",
    "persistence.bytes_written", "persistence.bytes_read",
)


class Patches:
    """Installs and removes the wrappers of one tracer."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self._saved = []

    def install(self):
        for owner, attr, span, count in _targets(self.modules):
            original = owner.__dict__[attr]
            if span is None:
                wrapper = self.tracer.counter(count, original)
            else:
                wrapper = self.tracer.wrap(span, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Unit of every per-layer metric: each span's self time, then the counters.
LAYER_UNITS = dict(
    {f"{name}_s": "s" for name in SPAN_NAMES},
    **{name: "bytes" if name.startswith("persistence.bytes") else "count"
       for name in COUNTER_NAMES},
    **{"layers.linear_gflop": "GFLOP", "trace.pipeline_s": "s", "trace.overhead_s": "s"},
)


def layer_metrics(tracer):
    """Per-layer figures of one traced pass, by metric name."""
    metrics = {f"{name}_s": tracer.self_time.get(name, 0.0) for name in SPAN_NAMES}
    for name in COUNTER_NAMES:
        metrics[name] = tracer.counts.get(name, 0)
    metrics["layers.linear_gflop"] = tracer.counts.get("layers.linear_flop", 0) / 1e9
    return metrics

