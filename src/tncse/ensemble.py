"""Sum-ensemble inference over K encoders and teacher-to-student
distillation.

The default distillation objective regresses the student's per-batch
pairwise cosine-similarity matrix onto the frozen teacher's (off-diagonal
MSE); a direct embedding-regression variant is available behind
``objective="regression"`` and requires matching hidden dimensions.
Distillation runs the shared training loop under a TrainConfig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import batch_iter, make_batch
from .encoder import Encoder, _check_same_vocab
from .errors import ConfigError
from .losses import _unit_rows
from .training import TrainConfig, TrainLog, _member_sums, _train


class EnsembleModel:
    """K >= 1 encoders over a shared vocabulary, summed at inference."""

    def __init__(self, encoders):
        if not encoders:
            raise ValueError("an ensemble needs at least one encoder")
        dims = {enc.config.hidden_dim for enc in encoders}
        if len(dims) > 1:
            raise ValueError(f"member hidden dims differ: {sorted(dims)}")
        _check_same_vocab(encoders, "ensemble members")
        self.encoders = list(encoders)

    @property
    def hidden_dim(self):
        return self.encoders[0].config.hidden_dim


def ensemble_embed(model: EnsembleModel, batch):
    """Elementwise sum of member last-hidden states; pooler bypassed,
    dropout off."""
    return _member_sums(model.encoders, [batch])[0]


@dataclass
class DistillLog:
    train_log: TrainLog
    probe_loss_step0: float
    probe_loss_best: float
    spearman_untrained: float
    spearman_best: float


def _similarity_loss(student_h, teacher_emb):
    b = student_h.shape[0]
    Sn = _unit_rows(student_h)
    S = ad.matmul(Sn, ad.transpose(Sn, (1, 0)))
    Tn = teacher_emb / np.linalg.norm(teacher_emb, axis=1, keepdims=True)
    T = np.clip(Tn @ Tn.T, -1.0, 1.0)
    off = (1.0 - np.eye(b)).astype(student_h.dtype)
    diff = S - ad.Tensor(T.astype(student_h.dtype))
    denom = max(b * (b - 1), 1)
    return ad.scale(ad.sum_(ad.mul(ad.mul(diff, diff), off)), 1.0 / denom)


def _regression_loss(student_h, teacher_emb):
    diff = student_h - ad.Tensor(teacher_emb.astype(student_h.dtype))
    return ad.mean(ad.mul(diff, diff))


def distill(teacher: EnsembleModel, student: Encoder, corpus, sts_dev, vocab,
            cfg: TrainConfig, objective="similarity"):
    """Train ``student`` on ``objective`` (``"similarity"`` or
    ``"regression"``) to match the frozen ``teacher`` ensemble in the shared
    training loop; returns a DistillLog.  The best-validated student weights
    (by validation Spearman, step 0 included) are restored into ``student``,
    and ``probe_loss_best`` is the probe loss of those weights."""
    if objective not in ("similarity", "regression"):
        raise ConfigError(f"unknown distillation objective {objective!r}")
    if objective == "regression" and student.config.hidden_dim != teacher.hidden_dim:
        raise ConfigError("embedding-regression distillation requires matching "
                          "hidden dimensions")
    max_len = student.config.max_seq_len

    def batch_loss(batch, train_mode):
        t_emb = ensemble_embed(teacher, batch).astype(np.float64)
        h = student.encode(batch, train_mode=train_mode, pass_index=0).last_hidden
        if objective == "similarity":
            return _similarity_loss(h, t_emb)
        return _regression_loss(h, t_emb)

    # fixed probe batch for noise-free before/after loss comparison
    probe_sentences = next(batch_iter(corpus, cfg.batch_size, cfg.seed, 999_983))
    probe_batch = make_batch(vocab, probe_sentences, max_len)

    def probe_loss():
        return float(batch_loss(probe_batch, train_mode=False).item())

    def step_fn(sentences):
        loss = batch_loss(make_batch(vocab, sentences, max_len), train_mode=True)
        loss.backward()
        return {"total": float(loss.item())}

    probe_loss_step0 = probe_loss()
    tl = _train([student], corpus, sts_dev, vocab, cfg, step_fn)
    # eval mode draws no randomness, so the restored weights give the probe
    # loss of the best step bit for bit
    return DistillLog(train_log=tl, probe_loss_step0=probe_loss_step0,
                      probe_loss_best=probe_loss(),
                      spearman_untrained=tl.evals[0][1],
                      spearman_best=tl.best_spearman)
