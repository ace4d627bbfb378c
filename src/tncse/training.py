"""Training loops: single-encoder contrastive pretraining, joint
dual-encoder training on the combined objective, the single-encoder
norm-constraint variant, and the seeds-1-to-5 significance harness.

All of them, and distillation, run one step loop under one TrainConfig.
Checkpoint selection follows validation Spearman; during dual training the
validation embedding is the member sum, matching the inference rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses as L
from .data import batch_iter, make_batch, synonym_substitute
from .encoder import Encoder, dual_view
from .errors import ConfigError, NumericError, TncseError
from .evaluation import sts_eval


class Adam:
    """Adaptive-moment optimizer; zeroes gradients after each step."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            mhat = self._m[i] / b1t
            vhat = self._v[i] / b2t
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 1
    batch_size: int = 32
    steps: int = 300
    learning_rate: float = 1e-3
    eval_interval: int = 50
    loss: L.LossConfig = field(default_factory=L.LossConfig)
    augment_p: float = 0.5
    # weight of the norm-constraint term in the single-encoder variant;
    # full weight destabilizes a from-scratch tiny model
    single_tn_weight: float = 0.3
    restore_best: bool = True

    def __post_init__(self):
        if not self.steps >= self.eval_interval >= 1:
            raise ConfigError(f"need steps >= eval_interval >= 1, got "
                              f"{self.steps} / {self.eval_interval}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainLog:
    step_records: list = field(default_factory=list)   # dicts of term scalars
    evals: list = field(default_factory=list)          # (step, val_spearman)
    best_step: int = 0
    best_spearman: float = float("-inf")

    def to_csv(self):
        lines = ["step,nce_i,nce_ii,icnce,ictn,total,val_spearman"]
        evals = dict(self.evals)
        for rec in self.step_records:
            step = rec["step"]
            def cell(k):
                v = rec.get(k)
                return "" if v is None else f"{v:.6f}"
            val = f"{evals[step]:.6f}" if step in evals else ""
            lines.append(f"{step},{cell('nce_i')},{cell('nce_ii')},"
                         f"{cell('icnce')},{cell('ictn')},{cell('total')},{val}")
        return "\n".join(lines) + "\n"


def _member_sums(encoders, batches):
    # One call for all batches keeps each batch's last member state alive
    # while the next batch is built.  Freeing it first lets malloc trim and
    # re-fault the heap per batch (glibc), which made run_eval ~30% slower.
    out = []
    for batch in batches:
        total = None
        for enc in encoders:
            h = enc.encode(batch, train_mode=False).last_hidden.data
            total = h.copy() if total is None else total + h
        out.append(total)
    return out


def ensemble_embed_fn(encoders, vocab, batch_size=64):
    """Sum of member last-hidden CLS states in eval mode; the pooler is
    bypassed."""
    max_len = encoders[0].config.max_seq_len

    def f(sentences):
        batches = (make_batch(vocab, sentences[start:start + batch_size], max_len)
                   for start in range(0, len(sentences), batch_size))
        return np.concatenate(_member_sums(encoders, batches), axis=0)

    return f


def _train(encoders, corpus, sts_dev, vocab, cfg, step_fn):
    """The step loop every trainer shares, distillation included: per-batch
    loss, Adam update, periodic validation of the members' sum embedding,
    best-checkpoint tracking.

    ``step_fn(sentences)`` builds the batch loss, runs its backward pass and
    returns the step's scalar terms.  Validation runs at step 0, every
    ``cfg.eval_interval`` steps and at the last step; the best-validated
    weights, step 0 included, are restored on return unless
    ``cfg.restore_best`` is false.
    """
    params = [p for enc in encoders for p in enc.parameters()]
    opt = Adam(params, lr=cfg.learning_rate)
    embed = ensemble_embed_fn(encoders, vocab)
    log = TrainLog()
    best_snap = None

    def evaluate(step):
        nonlocal best_snap
        rho = sts_eval(embed, sts_dev)
        log.evals.append((step, rho))
        if rho > log.best_spearman:
            log.best_spearman = rho
            log.best_step = step
            best_snap = [{k: v.data.copy() for k, v in enc.params.items()}
                         for enc in encoders]

    evaluate(0)
    step = 0
    epoch = 0
    while step < cfg.steps:
        for sentences in batch_iter(corpus, cfg.batch_size, cfg.seed, epoch):
            step += 1
            scalars = step_fn(sentences)
            if not np.isfinite(scalars["total"]):
                raise NumericError(f"non-finite loss at step {step}")
            opt.step()
            scalars["step"] = step
            log.step_records.append(scalars)
            if step % cfg.eval_interval == 0 or step == cfg.steps:
                evaluate(step)
            if step == cfg.steps:
                break
        epoch += 1

    if cfg.restore_best and best_snap is not None:
        for enc, snap in zip(encoders, best_snap):
            for k, v in snap.items():
                enc.params[k].data = v.copy()
                enc.params[k].grad = None
    return log


def _train_on_views(encoder, corpus, sts_dev, vocab, cfg, augment_table, view_loss):
    """Train one encoder on two dropout passes per batch, the second one
    optionally synonym-augmented; ``view_loss(out, out_plus)`` returns the
    loss and the step's scalars."""
    aug_rng = encoder.streams.get(f"{encoder.name}/augment") if augment_table else None
    max_len = encoder.config.max_seq_len

    def step_fn(sentences):
        batch = make_batch(vocab, sentences, max_len)
        if augment_table:
            view2 = [synonym_substitute(s, augment_table, aug_rng, p=cfg.augment_p)
                     for s in sentences]
            batch2 = make_batch(vocab, view2, max_len)
        else:
            batch2 = batch
        out = encoder.encode(batch, train_mode=True, pass_index=0)
        out_plus = encoder.encode(batch2, train_mode=True, pass_index=1)
        loss, scalars = view_loss(out, out_plus)
        loss.backward()
        return scalars

    return _train([encoder], corpus, sts_dev, vocab, cfg, step_fn)


def pretrain_single(encoder: Encoder, corpus, sts_dev, vocab, cfg: TrainConfig,
                    augment_table=None):
    """Unsupervised contrastive pretraining of one encoder on dropout-pair
    views; the optional synonym augmenter rewrites the second view."""

    def view_loss(out, out_plus):
        loss = L.info_nce(out.last_hidden, out_plus.last_hidden, cfg.loss.tau)
        return loss, {"nce_i": float(loss.item()), "nce_ii": None, "icnce": None,
                      "ictn": None, "total": float(loss.item())}

    return _train_on_views(encoder, corpus, sts_dev, vocab, cfg, augment_table,
                           view_loss)


def train_tncse(enc_i: Encoder, enc_ii: Encoder, corpus, sts_dev, vocab,
                cfg: TrainConfig):
    """Joint dual-encoder training on the combined objective; validation and
    checkpointing use the sum-ensemble embedding."""
    max_len = enc_i.config.max_seq_len

    def step_fn(sentences):
        batch = make_batch(vocab, sentences, max_len)
        bundle = dual_view(enc_i, enc_ii, batch)
        lb = L.total_loss(bundle, cfg.loss)
        scalars = lb.scalars()
        lb.total.backward()
        return scalars

    return _train([enc_i, enc_ii], corpus, sts_dev, vocab, cfg, step_fn)


def train_single_tn(encoder: Encoder, corpus, sts_dev, vocab, cfg: TrainConfig,
                    augment_table=None):
    """Single-encoder variant: contrastive loss on last-hidden views plus the
    norm constraint on the encoder's own pooler-output positive pair."""

    def view_loss(out, out_plus):
        nce = L.info_nce(out.last_hidden, out_plus.last_hidden, cfg.loss.tau)
        tn = L.l_tn_modulated(out.pooler, out_plus.pooler,
                              out.last_hidden, out_plus.last_hidden, cfg.loss)
        loss = nce + ad.scale(tn, cfg.single_tn_weight)
        return loss, {"nce_i": float(nce.item()), "nce_ii": None, "icnce": None,
                      "ictn": float(tn.item()), "total": float(loss.item())}

    return _train_on_views(encoder, corpus, sts_dev, vocab, cfg, augment_table,
                           view_loss)


@dataclass
class SignificanceRow:
    seed: int
    spearman: float


def significance_suite(run_fn, seeds=(1, 2, 3, 4, 5)):
    """Run ``run_fn(seed) -> final validation Spearman`` per seed; report
    per-seed rows plus mean/std/min/max."""
    rows = []
    for seed in seeds:
        try:
            rho = float(run_fn(seed))
        except Exception as exc:
            # keep a TncseError's class so the CLI exit status survives
            cls = type(exc) if isinstance(exc, TncseError) else TncseError
            raise cls(f"significance run for seed {seed} failed: {exc}") from exc
        rows.append(SignificanceRow(seed=seed, spearman=rho))
    values = np.array([r.spearman for r in rows])
    summary = {"mean": float(values.mean()), "std": float(values.std()),
               "min": float(values.min()), "max": float(values.max())}
    return rows, summary

