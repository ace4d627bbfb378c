"""The four benchmark workloads: seeded inputs, set-up, one timed call, and
the checks on its outputs.

Every workload is a closed loop with one caller: the next pipeline call
starts when the previous one has returned.  Each call goes through the same
``tncse.pipeline`` entry points the CLI uses, on files written beforehand by
``write_inputs``.  Calls of one run start from the same inputs and seeds, so
their outputs must agree bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from tncse import checkpoint, pipeline
from tncse.data import make_batch, save_corpus, save_sts_tsv, synth_corpus
from tncse.ensemble import EnsembleModel, ensemble_embed
from tncse.training import ensemble_embed_fn

import tracer as tr

CORPUS_SENTENCES = 2048   # a whole number of batches, so every step sees B sentences
PROBE_SENTENCES = 64      # one ensemble_embed_fn batch


@dataclass(frozen=True)
class Spec:
    name: str
    section: str          # config section of the pipeline call: "train",
                          # "pretrain", "eval" or "distill"
    pairs: int            # pairs in each STS set
    config: dict          # overrides of the pipeline defaults

    @property
    def trains(self):
        return self.section != "eval"

    def planned_ops(self, cfg):
        """Optimizer steps, or requests, in one call."""
        if not self.trains:
            return 1
        return cfg[f"{self.section}.steps"] * (2 if self.section == "pretrain" else 1)


# Why each workload exists is recorded in BENCHMARK.json; in short:
SPECS = {s.name: s for s in (
    # the paper's method at default shapes, where Python graph overhead and
    # matmul backward dominate the 4-pass dual step
    Spec("dual-train", "train", 128,
         {"train.steps": 100, "train.eval_interval": 50}),
    # 2 passes, InfoNCE only, augmentation and saves at L=32 d=128, where
    # BLAS GEMM time and the BLAS thread count dominate
    Spec("pretrain-wide", "pretrain", 128,
         {"encoder.max_seq_len": 32, "encoder.hidden_dim": 128,
          "encoder.ffn_dim": 512, "pretrain.steps": 20,
          "pretrain.eval_interval": 10}),
    # inference only; about 39% of the sentences it embeds are repeats
    Spec("ensemble-eval", "eval", 1024, {}),
    # the only workload that runs tncse.ensemble: a teacher sum-ensemble
    # forward every step plus a single-pass student
    Spec("distill", "distill", 128,
         {"distill.steps": 100, "distill.eval_interval": 50}),
)}


# -- inputs ----------------------------------------------------------------

def write_inputs(spec, seed, root):
    """Write the corpus, STS sets, initial checkpoints and the 2-member
    ensemble manifest for ``seed`` under ``root``; return the resolved config
    the pipelines receive."""
    os.makedirs(root, exist_ok=True)
    corpus, dev, test = synth_corpus(seed, n_sentences=CORPUS_SENTENCES,
                                     n_pairs=spec.pairs)
    paths = {"data.corpus": os.path.join(root, "corpus.txt"),
             "data.sts_dev": os.path.join(root, "sts_dev.tsv")}
    save_corpus(corpus, paths["data.corpus"])
    save_sts_tsv(dev, paths["data.sts_dev"])
    if spec.section == "eval":
        paths["data.sts_test"] = os.path.join(root, "sts_test.tsv")
        save_sts_tsv(test, paths["data.sts_test"])
    overrides = {**{k: str(v) for k, v in spec.config.items()}, **paths}
    cfg = pipeline.resolve_config(overrides=overrides, seed=seed)
    if spec.section == "pretrain":
        return cfg
    ws = pipeline.load_workspace(cfg)
    init = os.path.join(root, "init")
    for which, name in ((1, "I"), (2, "II")):
        enc = pipeline.new_encoder(cfg, ws, seed, which, name)
        checkpoint.save_encoder(enc, os.path.join(init, f"encoder_{name}"))
    manifest = os.path.join(init, "ensemble.manifest")
    checkpoint.save_ensemble_manifest(["encoder_I", "encoder_II"], manifest)
    extra = {"train": {"train.encoder_i": os.path.join(init, "encoder_I"),
                       "train.encoder_ii": os.path.join(init, "encoder_II")},
             "eval": {"eval.checkpoint": manifest,
                      "probe.checkpoint": os.path.join(init, "encoder_I")},
             "distill": {"distill.teacher": manifest}}[spec.section]
    return pipeline.resolve_config(overrides={**overrides, **extra}, seed=seed)


# -- set-up ----------------------------------------------------------------

@dataclass
class State:
    ws: object
    model: EnsembleModel | None = None


def set_up(spec, cfg):
    """What a fresh process pays before its first step or request: the
    workspace, plus the checkpoints the first call needs."""
    ws = pipeline.load_workspace(cfg)
    if spec.section == "train":
        pipeline.load_encoder_checked(cfg["train.encoder_i"], ws)
        pipeline.load_encoder_checked(cfg["train.encoder_ii"], ws)
    if spec.section == "eval":
        return State(ws, pipeline.load_model(cfg["eval.checkpoint"], ws))
    if spec.section == "distill":
        return State(ws, pipeline.load_model(cfg["distill.teacher"], ws))
    return State(ws)


# -- one call --------------------------------------------------------------

@dataclass
class Call:
    ops: int                       # optimizer steps, or requests
    seconds: float                 # wall time of the pipeline call(s)
    sentences: int                 # through the optimizer, or scored
    op_ms: list = field(default_factory=list)
    val_spearman: float = float("nan")
    final_loss: float = float("nan")
    fingerprint: tuple = ()
    errors: list = field(default_factory=list)
    members: list = field(default_factory=list)   # encoders or their prefixes
    outputs: list = field(default_factory=list)   # checkpoint prefixes written


def run_call(spec, cfg, state, out_dir, tracer):
    """One pipeline call; its spans are drained from ``tracer``."""
    run = {"train": _dual, "pretrain": _pretrain, "eval": _eval,
           "distill": _distill}[spec.section]
    t0 = perf_counter()
    call = run(cfg, state, out_dir)
    call.seconds = perf_counter() - t0
    spans = tracer.drain()
    if spec.trains:
        call.op_ms = step_latencies_ms(spans)
        if len(call.op_ms) != call.ops:
            call.errors.append(f"timed {len(call.op_ms)} of {call.ops} steps")
    else:
        call.op_ms = [call.seconds * 1e3]
    tracer.paused = True
    try:
        call.fingerprint += tuple(checkpoint.checkpoint_hash(p) for p in call.outputs)
        members = [pipeline.load_encoder_checked(m, state.ws) if isinstance(m, str)
                   else m for m in call.members]
        call.errors += _check_ensemble_sum(state.ws, members)
    finally:
        tracer.paused = False
    return call, spans


def _dual(cfg, state, out_dir):
    encs, log = pipeline.run_tncse(cfg, state.ws, cfg["train.encoder_i"],
                                   cfg["train.encoder_ii"], out_dir)
    call = _from_logs(cfg, "train", [(log.step_records, log.evals)])
    call.fingerprint += (log.best_step,)
    call.members = list(encs)
    call.outputs = [os.path.join(out_dir, "encoder_I"), os.path.join(out_dir, "encoder_II")]
    return call


def _pretrain(cfg, state, out_dir):
    prefixes = pipeline.run_pretrain_pair(cfg, state.ws, out_dir)
    logs = [_read_trainlog(p + ".trainlog.csv") for p in prefixes]
    call = _from_logs(cfg, "pretrain", logs)
    call.ops *= len(prefixes)
    call.sentences *= len(prefixes)
    call.members = call.outputs = list(prefixes)
    return call


def _distill(cfg, state, out_dir):
    _, log = pipeline.run_distill(cfg, state.ws, out_dir)
    tl = log.train_log
    call = _from_logs(cfg, "distill", [(tl.step_records, tl.evals)])
    call.fingerprint += (log.probe_loss_step0, log.probe_loss_best)
    call.members = state.model.encoders
    call.outputs = [os.path.join(out_dir, "student")]
    return call


def _eval(cfg, state, out_dir):
    report = pipeline.run_eval(cfg, state.ws, state.model)
    rows = pipeline.run_norm_probe(cfg, state.ws, out_dir)
    ws = state.ws
    call = Call(ops=1, seconds=0.0,
                sentences=2 * (len(ws.sts_dev) + len(ws.sts_test)),
                val_spearman=report.per_dataset["dev"])
    values = [*report.per_dataset.values(), report.alignment, report.uniformity]
    values += [getattr(r, k) for r in rows
               for k in ("mean_hl", "cv_hl", "mean_hp", "cv_hp")]
    call.fingerprint = tuple(values)
    call.errors = _check_spearman(report.per_dataset.values())
    if not all(v is not None and math.isfinite(v) for v in values):
        call.errors.append("non-finite evaluation output")
    call.members = state.model.encoders
    return call


def _read_trainlog(path):
    records, evals = [], []
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            step = int(row["step"])
            if row["total"]:
                records.append({"step": step, "total": float(row["total"])})
            if row["val_spearman"]:
                evals.append((step, float(row["val_spearman"])))
    return records, evals


def _from_logs(cfg, section, logs):
    """Checks and values shared by the training workloads; ``logs`` holds
    one (step records, evals) pair per trained encoder or encoder pair."""
    steps, eval_interval = cfg[f"{section}.steps"], cfg[f"{section}.eval_interval"]
    errors, finals, last_rhos, fingerprint = [], [], [], ()
    for records, evals in logs:
        totals = [r["total"] for r in records]
        if len(totals) != steps:
            errors.append(f"{len(totals)} step records for {steps} steps")
        bad = [r["step"] for r in records if not math.isfinite(r["total"])]
        if bad:
            errors.append(f"non-finite loss at steps {bad[:5]}")
        errors += _check_spearman(rho for _, rho in evals)
        finals.append(float(np.mean(totals[-eval_interval:])))
        last_rhos.append(evals[-1][1])
        fingerprint += (tuple(totals), tuple(evals))
    return Call(ops=steps, seconds=0.0, sentences=steps * cfg[f"{section}.batch_size"],
                val_spearman=float(np.mean(last_rhos)),
                final_loss=float(np.mean(finals)), fingerprint=fingerprint,
                errors=errors)


def _check_spearman(rhos):
    return [f"Spearman {rho!r} is not finite in [-1, 1]" for rho in rhos
            if not (math.isfinite(rho) and -1.0 <= rho <= 1.0)]


def _check_ensemble_sum(ws, members):
    """On a probe batch, the sum-ensemble embedding must equal the sum of the
    member ``encode`` outputs bit for bit, through both ensemble entry
    points."""
    sentences = [p.sentence_a for p in ws.sts_dev[:PROBE_SENTENCES]]
    batch = make_batch(ws.vocab, sentences, members[0].config.max_seq_len)
    expected = None
    for enc in members:
        h = enc.encode(batch, train_mode=False).last_hidden.data
        expected = h.copy() if expected is None else expected + h
    errors = []
    via_fn = ensemble_embed_fn(members, ws.vocab)(sentences)
    if not np.array_equal(via_fn, expected):
        errors.append("ensemble_embed_fn differs from the sum of member encodes")
    via_model = ensemble_embed(EnsembleModel(members), batch)
    if not np.array_equal(via_model, expected):
        errors.append("ensemble_embed differs from the sum of member encodes")
    return errors


def step_latencies_ms(spans):
    """Optimizer-step latencies: from the hand-over of a step's batch to the
    end of its Adam update.  Evaluation between steps is not counted."""
    out, handed = [], None
    for rec in spans:
        if rec[tr.NAME] == "data.batch_iter":
            handed = rec[tr.END]
        elif rec[tr.NAME] == "training.Adam.step" and handed is not None:
            out.append((rec[tr.END] - handed) * 1e3)
            handed = None
    return out
