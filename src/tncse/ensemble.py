"""Sum-ensemble inference over K encoders and teacher-to-student
distillation.

Distillation regresses the student's per-batch pairwise cosine-similarity
matrix onto the frozen teacher's (off-diagonal MSE), so student and teacher
may differ in hidden_dim and max_seq_len.  It runs in the shared _train loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import batch_iter, make_batch
from .encoder import Encoder, _check_compatible, _check_same_vocab
from .evaluation import _normalize_rows
from .losses import _unit_rows
from .training import TrainConfig, TrainLog, _member_sums, _train, ensemble_embed_fn


class EnsembleModel:
    """K >= 1 encoders over a shared vocabulary, summed at inference."""

    def __init__(self, encoders):
        if not encoders:
            raise ValueError("an ensemble needs at least one encoder")
        _check_compatible(encoders, "ensemble members")
        self.encoders = list(encoders)


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
    Tn = _normalize_rows(teacher_emb)
    T = np.clip(Tn @ Tn.T, -1.0, 1.0)
    off = (1.0 - np.eye(b)).astype(student_h.dtype)
    diff = S - ad.Tensor(T.astype(student_h.dtype))
    denom = max(b * (b - 1), 1)
    return ad.scale(ad.sum_(ad.mul(ad.mul(diff, diff), off)), 1.0 / denom)


def distill(teacher: EnsembleModel, student: Encoder, corpus, sts_dev, vocab,
            cfg: TrainConfig):
    """Train ``student`` on the similarity-matrix loss to match the frozen
    ``teacher`` ensemble in the shared training loop; returns a DistillLog.
    The best-validated student weights (by validation Spearman, step 0
    included) are restored into ``student``, and ``probe_loss_best`` is the
    probe loss of those weights.  The teacher embeds each distinct sentence
    once per run, at its own max_seq_len, and holds its row for the run."""
    _check_same_vocab([enc.vocab_hash for enc in (*teacher.encoders, student)],
                      "distill teacher and student")
    teacher_embed = ensemble_embed_fn(teacher.encoders, vocab)

    def batch(sentences):
        # the teacher embeds before the student's graph exists, so their
        # arrays do not peak together; loss_fn reads its memo
        teacher_embed(sentences)
        return make_batch(vocab, sentences, student.config.max_seq_len)

    def loss_fn(sentences, outs):
        t_emb = teacher_embed(sentences).astype(np.float64)
        return {"total": _similarity_loss(outs[0].last_hidden, t_emb)}

    # fixed probe batch for noise-free before/after loss comparison
    probe_sentences = next(batch_iter(corpus, cfg.batch_size, cfg.seed, 999_983))

    def probe_loss():
        out = student.encode(batch(probe_sentences), train_mode=False)
        return float(loss_fn(probe_sentences, [out])["total"].item())

    probe_loss_step0 = probe_loss()
    tl = _train([student], corpus, sts_dev, vocab, cfg, batch, loss_fn)
    # eval mode draws no randomness, so the restored weights give the probe
    # loss of the best step bit for bit
    return DistillLog(train_log=tl, probe_loss_step0=probe_loss_step0,
                      probe_loss_best=probe_loss(),
                      spearman_untrained=tl.evals[0][1],
                      spearman_best=tl.best_spearman)
