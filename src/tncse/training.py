"""Training loops: single-encoder contrastive pretraining, joint
dual-encoder training on the combined objective and the single-encoder
norm-constraint variant.

All of them, and distillation, run one step loop under one TrainConfig.
Checkpoint selection follows validation Spearman; during dual training the
validation embedding is the member sum, matching the inference rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses as L
from .data import _check_batchable, batch_iter, make_batch, synonym_substitute
from .encoder import Encoder, _check_compatible
from .errors import ConfigError, NumericError
from .evaluation import EMBED_BATCH, _map_threads, sts_eval

AUGMENT_P = 0.5  # synonym-substitution probability of the second pretraining view
# weight of the norm-constraint term in the single-encoder variant;
# full weight destabilizes a from-scratch tiny model
SINGLE_TN_WEIGHT = 0.3


class Adam:
    """Adam with betas (0.9, 0.999) and eps 1e-8; zeroes gradients after each step."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            # in place, in the operation order of the textbook update (same rounding)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            denom = np.sqrt(v / b2t)
            denom += self.eps
            p.data -= self.lr * (m / b1t) / denom
            p.grad = None


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 1
    batch_size: int = 32
    steps: int = 300
    learning_rate: float = 1e-3
    eval_interval: int = 50
    loss: L.LossConfig = field(default_factory=L.LossConfig)

    def __post_init__(self):
        if not self.steps >= self.eval_interval >= 1:
            raise ConfigError(f"need steps >= eval_interval >= 1, got "
                              f"{self.steps} / {self.eval_interval}")
        if self.batch_size < 2:  # a one-sentence batch has no negatives
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, "
                              f"got {self.learning_rate}")


@dataclass
class TrainLog:
    # trainlog.csv columns: the step, every loss term, the validation Spearman
    COLUMNS = ("step", "nce_i", "nce_ii", "icnce", "ictn", "total", "val_spearman")

    step_records: list = field(default_factory=list)   # step and its term floats
    evals: list = field(default_factory=list)          # (step, val_spearman)
    best_step: int = 0
    best_spearman: float = float("-inf")

    def to_csv(self):
        """One row per step; a term the trainer does not have is an empty cell."""
        lines = [",".join(self.COLUMNS)]
        evals = dict(self.evals)
        for rec in self.step_records:
            row = {**rec, "val_spearman": evals.get(rec["step"])}
            cells = ["" if row.get(k) is None else f"{row[k]:.6f}"
                     for k in self.COLUMNS[1:]]
            lines.append(",".join([str(rec["step"]), *cells]))
        return "\n".join(lines) + "\n"


def _member_sums(encoders, batches):
    # An eval-mode encode records no tape, so a 128-row batch's arrays peak
    # at 3.9 MiB (tracemalloc, default shape, two members).  Batches run side
    # by side; each sums its members in member order, so rows are exact.
    def member_sum(batch):
        total = None
        for enc in encoders:
            h = enc.encode(batch, train_mode=False).last_hidden.data
            total = h.copy() if total is None else total + h
        return total

    return _map_threads(member_sum, batches)


def ensemble_embed_fn(encoders, vocab):
    """Sum of member last-hidden CLS states in eval mode, pooler bypassed.
    The returned function memoizes for its lifetime, at about 4*d + 145 bytes
    per distinct sentence, and encodes only the distinct sentences a call has
    not seen, in EMBED_BATCH batches, in eval mode, which records no tape;
    build it only while the weights are fixed.  Exact, as an eval-mode row
    depends neither on its batch's padded width nor on its size
    (``autodiff.linear``)."""
    max_len = encoders[0].config.max_seq_len
    memo = {}

    def f(sentences):
        new = [s for s in dict.fromkeys(sentences) if s not in memo]
        chunks = [new[i:i + EMBED_BATCH] for i in range(0, len(new), EMBED_BATCH)]
        sums = _member_sums(encoders, (make_batch(vocab, c, max_len) for c in chunks))
        memo.update(zip(new, (row for rows in sums for row in rows)))
        return np.stack([memo[s] for s in sentences])

    return f


def _backward(step_fn, sentences):
    """One step's forward and backward passes; returns its terms as floats.
    The step's graph dies with this frame, before Adam steps."""
    terms = step_fn(sentences)
    terms["total"].backward()
    return {k: float(t.item()) for k, t in terms.items()}


def _train(encoders, corpus, sts_dev, vocab, cfg, step_fn):
    """The step loop every trainer shares, distillation included: per-batch
    loss, Adam update, periodic validation of the members' sum embedding,
    best-checkpoint tracking.

    ``step_fn(sentences)`` builds the batch's loss graph and returns its terms
    as scalar tensors keyed by trainlog column (``TrainLog.COLUMNS``), only
    the terms its trainer has, plus the loss to minimize under ``"total"``.
    This loop alone differentiates ``"total"``, records every term as a
    float and raises NumericError on the first non-finite one, and on a
    zero-norm row in a loss input, naming the step.

    Validation runs at step 0, every ``cfg.eval_interval`` steps and at the
    last step; the best-validated weights, step 0 included, are restored on
    return.
    """
    _check_batchable(corpus)  # before step-0 validation, which batch_iter follows
    params = [p for enc in encoders for p in enc.parameters()]
    opt = Adam(params, lr=cfg.learning_rate)
    log = TrainLog()
    best_snap = None

    def evaluate(step):
        nonlocal best_snap
        # a fresh memo: Adam has moved the weights since the last validation
        rho = sts_eval(ensemble_embed_fn(encoders, vocab), sts_dev)
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
            try:
                record = _backward(step_fn, sentences)
            except L.ZeroNormError as exc:
                raise NumericError(f"{exc} at step {step}") from None
            bad = [k for k, v in record.items() if not np.isfinite(v)]
            if bad:
                raise NumericError(f"non-finite loss term {bad[0]} at step {step}")
            opt.step()
            log.step_records.append({"step": step, **record})
            if step % cfg.eval_interval == 0 or step == cfg.steps:
                evaluate(step)
            if step == cfg.steps:
                break
        epoch += 1

    for enc, snap in zip(encoders, best_snap):
        for k, v in snap.items():
            enc.params[k].data = v.copy()
            enc.params[k].grad = None
    return log


def _train_on_views(encoders, corpus, sts_dev, vocab, cfg, augment_table, view_loss):
    """Train ``encoders`` on two dropout views per batch, the batch stacked on
    its second view (optionally synonym-augmented), one ``encode`` call per
    encoder; ``view_loss`` gets each encoder's two views in turn, (I, I+, II,
    II+) for two, and returns the step's loss terms."""
    first = encoders[0]
    aug_rng = first.streams.get(f"{first.name}/augment") if augment_table else None
    max_len = first.config.max_seq_len

    def step_fn(sentences):
        view2 = sentences
        if augment_table:
            view2 = [synonym_substitute(s, augment_table, aug_rng, p=AUGMENT_P)
                     for s in sentences]
        ids = make_batch(vocab, sentences + view2, max_len)
        return view_loss(*[v for enc in encoders
                           for v in enc.encode(ids, train_mode=True).split(2)])

    return _train(encoders, corpus, sts_dev, vocab, cfg, step_fn)


def pretrain_single(encoder: Encoder, corpus, sts_dev, vocab, cfg: TrainConfig,
                    augment_table=None):
    """Unsupervised contrastive pretraining of one encoder on dropout-pair
    views; the optional synonym augmenter rewrites the second view."""

    def view_loss(out, out_plus):
        loss = L.info_nce(out.last_hidden, out_plus.last_hidden, cfg.loss.tau)
        return {"nce_i": loss, "total": loss}

    return _train_on_views([encoder], corpus, sts_dev, vocab, cfg, augment_table,
                           view_loss)


def train_tncse(enc_i: Encoder, enc_ii: Encoder, corpus, sts_dev, vocab,
                cfg: TrainConfig):
    """Joint dual-encoder training on the combined objective; validation and
    checkpointing use the sum-ensemble embedding."""
    _check_compatible((enc_i, enc_ii), "encoders I and II")
    return _train_on_views([enc_i, enc_ii], corpus, sts_dev, vocab, cfg, None,
                           lambda *views: L.total_loss(views, cfg.loss))


def train_single_tn(encoder: Encoder, corpus, sts_dev, vocab, cfg: TrainConfig,
                    augment_table=None):
    """Single-encoder variant: contrastive loss on last-hidden views plus the
    norm constraint on the encoder's own pooler-output positive pair."""

    def view_loss(out, out_plus):
        nce = L.info_nce(out.last_hidden, out_plus.last_hidden, cfg.loss.tau)
        tn = L.l_tn_modulated(out.pooler, out_plus.pooler,
                              out.last_hidden, out_plus.last_hidden)
        # the own-pair norm term is logged in the ictn column
        return {"nce_i": nce, "ictn": tn,
                "total": nce + ad.scale(tn, SINGLE_TN_WEIGHT)}

    return _train_on_views([encoder], corpus, sts_dev, vocab, cfg, augment_table,
                           view_loss)

