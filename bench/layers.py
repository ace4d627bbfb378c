"""Per-layer metrics of a traced run, aggregated from the spans of whole
pipeline calls.

Times are milliseconds per operation (an optimizer step, or an evaluation
request on ``ensemble-eval``) and include child spans, except the
``<layer>.self_ms`` metrics, which subtract them.  Counts are per operation
as well and repeat exactly from run to run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracer as tr

# inclusive time per operation, summed over the listed span names
TIMES = {
    "autodiff.backward_ms": ("autodiff.Tensor.backward",),
    "autodiff.matmul_fwd_ms": ("autodiff.matmul",),
    "autodiff.layer_norm_fwd_ms": ("autodiff.layer_norm",),
    "autodiff.softmax_fwd_ms": ("autodiff.softmax",),
    "autodiff.dropout_fwd_ms": ("autodiff.dropout",),
    "encoder.encode_train_ms": ("encoder.Encoder.encode[train]",),
    "encoder.encode_eval_ms": ("encoder.Encoder.encode[eval]",),
    "losses.total_loss_ms": ("losses.total_loss",),
    "losses.info_nce_ms": ("losses.info_nce",),
    "losses.ictn_ms": ("losses.ictn",),
    "training.adam_step_ms": ("training.Adam.step",),
    "ensemble.teacher_embed_ms": ("ensemble.ensemble_embed",),
    "evaluation.sts_eval_ms": ("evaluation.sts_eval",),
    "evaluation.spearman_ms": ("evaluation.spearman",),
    "evaluation.uniformity_ms": ("evaluation.uniformity",),
    "evaluation.norm_probe_ms": ("evaluation.norm_probe",),
    "data.make_batch_ms": ("data.make_batch",),
    "data.augment_ms": ("data.synonym_substitute",),
    "checkpoint.save_ms": ("checkpoint.save_encoder", "checkpoint.save_ensemble_manifest"),
}
# the spans whose sts_eval calls are in-loop validation
TRAINING_LOOPS = frozenset({"training.pretrain_single", "training.train_tncse",
                            "training.train_single_tn", "ensemble.distill"})
# the spans that make one evaluation request, outermost first
REQUESTS = ("pipeline.run_eval", "evaluation.sts_eval")
SETUP = {"checkpoint.load_ms": ("checkpoint.load_encoder",),
         "pipeline.load_workspace_ms": ("pipeline.load_workspace",)}

UNITS = {**{name: "ms" for name in (*TIMES, *SETUP)},
         **{f"{layer}.self_ms": "ms" for layer in tr.LAYERS},
         "autodiff.primitive_calls_per_step": "count",
         "encoder.calls_per_step": "count",
         "evaluation.sentences_embedded": "count",
         "evaluation.distinct_share": "count/count",
         "training.eval_ms": "ms",
         "training.eval_share": "share",
         "training.step_ms_p95": "ms",
         "losses.final_loss": "loss",
         "trace.overhead_ms": "ms",
         "trace.overhead_share": "share"}


class LayerStats:
    """Accumulates the spans of whole traced calls."""

    def __init__(self):
        self.ops = 0
        self.call_seconds = 0.0
        self.total = defaultdict(float)      # span name -> seconds
        self.count = defaultdict(int)        # span name -> calls
        self.self_s = defaultdict(float)     # layer -> seconds
        self.in_loop_eval_s = 0.0
        self.embedded = 0
        self.distinct = 0

    def add(self, spans, ops, call_seconds):
        self.ops += ops
        self.call_seconds += call_seconds
        requests = defaultdict(list)
        for i, (rec, self_s) in enumerate(zip(spans, tr.self_times(spans))):
            name, dur = rec[tr.NAME], rec[tr.END] - rec[tr.START]
            self.total[name] += dur
            self.count[name] += 1
            self.self_s[name.split(".", 1)[0]] += self_s
            parent = rec[tr.PARENT]
            if (name == "evaluation.sts_eval" and parent >= 0
                    and spans[parent][tr.NAME] in TRAINING_LOOPS):
                self.in_loop_eval_s += dur
            if name == tr.EMBED:
                requests[_request_of(spans, i)].extend(rec[tr.ATTR])
        for sentences in requests.values():
            self.embedded += len(sentences)
            self.distinct += len(set(sentences))

    def metrics(self):
        ops = self.ops
        out = {m: 1e3 * sum(self.total[n] for n in names) / ops
               for m, names in TIMES.items()}
        out.update({f"{layer}.self_ms": 1e3 * self.self_s[layer] / ops
                    for layer in tr.LAYERS})
        primitives = sum(c for n, c in self.count.items()
                         if n.startswith("autodiff.") and n != "autodiff.Tensor.backward")
        encodes = sum(c for n, c in self.count.items() if n.startswith("encoder.Encoder.encode"))
        out["autodiff.primitive_calls_per_step"] = primitives / ops
        out["encoder.calls_per_step"] = encodes / ops
        out["evaluation.sentences_embedded"] = self.embedded / ops
        out["evaluation.distinct_share"] = (self.distinct / self.embedded
                                            if self.embedded else 0.0)
        out["training.eval_ms"] = 1e3 * self.in_loop_eval_s / ops
        out["training.eval_share"] = self.in_loop_eval_s / self.call_seconds
        return out


def _request_of(spans, i):
    """Index of the outermost evaluation request enclosing span ``i``, or
    ``i`` itself outside any request."""
    found, p = i, spans[i][tr.PARENT]
    while p >= 0:
        if spans[p][tr.NAME] in REQUESTS:
            found = p
        p = spans[p][tr.PARENT]
    return found


def setup_metrics(setup_spans):
    """Median over traced set-ups of the time each set-up layer took."""
    return {m: 1e3 * statistics.median(
                sum(r[tr.END] - r[tr.START] for r in spans if r[tr.NAME] in names)
                for spans in setup_spans)
            for m, names in SETUP.items()}
