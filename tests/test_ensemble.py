"""Sum-ensemble inference and teacher-to-student distillation."""

import itertools

import numpy as np
import pytest

from tncse.autodiff import Tensor
from tncse.data import batch_iter, make_batch
from tncse.encoder import Encoder
from tncse.ensemble import (EnsembleModel, _similarity_loss, distill,
                            ensemble_embed)
from tncse.errors import DataError
from tncse.evaluation import sts_eval
from tncse.training import TrainConfig, ensemble_embed_fn


def members(config, vocab, k=2):
    return [Encoder(config, seed=10 + i, name=f"M{i}",
                    vocab_hash=vocab.content_hash()) for i in range(k)]


# -- EnsembleModel ---------------------------------------------------------

def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        EnsembleModel([])


def test_ensemble_rejects_mismatched_hidden_dims(small_config, small_vocab):
    import dataclasses
    other = dataclasses.replace(small_config, hidden_dim=16, num_heads=4)
    with pytest.raises(DataError, match=r"differ in hidden_dim: \[16, 32\]"):
        EnsembleModel([Encoder(small_config, 1), Encoder(other, 2)])


def test_ensemble_rejects_mismatched_max_seq_lens(small_config):
    import dataclasses
    other = dataclasses.replace(small_config, max_seq_len=small_config.max_seq_len + 8)
    with pytest.raises(DataError, match=r"differ in max_seq_len: \[16, 24\]"):
        EnsembleModel([Encoder(small_config, 1), Encoder(other, 2)])


def test_ensemble_rejects_mismatched_vocab_hashes(small_config):
    a = Encoder(small_config, 1, vocab_hash="aaaa")
    b = Encoder(small_config, 2, vocab_hash="bbbb")
    with pytest.raises(DataError):
        EnsembleModel([a, b])


def test_single_member_ensemble_is_allowed(small_config):
    enc = Encoder(small_config, 1)
    assert EnsembleModel([enc]).encoders == [enc]


# -- sum rule --------------------------------------------------------------

def test_ensemble_embed_is_exact_member_sum(small_config, small_vocab):
    encs = members(small_config, small_vocab, k=3)
    model = EnsembleModel(encs)
    batch = make_batch(small_vocab, ["the quick dog runs", "a cat sleeps"], 16)
    total = ensemble_embed(model, batch)
    manual = sum(e.encode(batch).last_hidden.data for e in encs)
    np.testing.assert_array_equal(total, manual)


def test_ensemble_embed_bypasses_pooler(small_config, small_vocab):
    enc = members(small_config, small_vocab, k=1)[0]
    enc.params["pooler_w"].data[:] = 0.0  # destroying the pooler must not matter
    batch = make_batch(small_vocab, ["a cat sleeps"], 16)
    out = ensemble_embed(EnsembleModel([enc]), batch)
    np.testing.assert_array_equal(out, enc.encode(batch).last_hidden.data)


# -- distillation objective ------------------------------------------------

def test_similarity_loss_zero_when_student_matches_teacher(rng):
    H = rng.standard_normal((5, 8))
    loss = _similarity_loss(Tensor(H, requires_grad=True), H.copy())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_similarity_loss_positive_and_scale_invariant_in_student_norms(rng):
    H = rng.standard_normal((4, 8))
    T = rng.standard_normal((4, 8))
    base = _similarity_loss(Tensor(H, requires_grad=True), T).item()
    scaled = _similarity_loss(Tensor(3.0 * H, requires_grad=True), T).item()
    assert base > 0
    assert scaled == pytest.approx(base, rel=1e-9)


def test_similarity_loss_hand_value_two_rows():
    # student rows orthogonal (cos 0), teacher rows identical (cos 1):
    # two off-diagonal cells each (0-1)^2 -> mean 1
    S = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), requires_grad=True)
    T = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert _similarity_loss(S, T).item() == pytest.approx(1.0, abs=1e-12)


def test_similarity_loss_rejects_a_zero_norm_teacher_row(rng):
    T = rng.standard_normal((3, 4))
    T[1] = 0.0
    with pytest.raises(DataError, match="zero-norm"):
        _similarity_loss(Tensor(rng.standard_normal((3, 4)), requires_grad=True), T)


# -- distillation loop -----------------------------------------------------

def test_distill_short_run_populates_log_and_freezes_teacher(
        small_config, small_vocab, small_corpus, small_dev, tmp_path):
    from tncse.checkpoint import checkpoint_hash, save_encoder
    teacher_encs = members(small_config, small_vocab)
    teacher = EnsembleModel(teacher_encs)
    prefix = str(tmp_path / "t0")
    save_encoder(teacher_encs[0], prefix)
    h_before = checkpoint_hash(prefix)

    student = Encoder(small_config, seed=99, name="D",
                      vocab_hash=small_vocab.content_hash())
    before = {k: v.data.copy() for k, v in student.params.items()}
    log = distill(teacher, student, small_corpus, small_dev, small_vocab,
                  TrainConfig(steps=4, eval_interval=2, batch_size=16))

    assert np.isfinite(log.probe_loss_step0)
    assert np.isfinite(log.probe_loss_best)
    assert np.isfinite(log.spearman_untrained) and np.isfinite(log.spearman_best)
    assert log.spearman_best >= log.spearman_untrained
    # teacher untouched on disk and in memory
    save_encoder(teacher_encs[0], prefix)
    assert checkpoint_hash(prefix) == h_before
    # student either moved or kept its untrained best
    moved = any(not np.array_equal(before[k], student.params[k].data)
                for k in before)
    assert moved or log.train_log.best_step == 0


def test_distill_is_deterministic(small_config, small_vocab, small_corpus,
                                  small_dev):
    def run():
        teacher = EnsembleModel(members(small_config, small_vocab))
        student = Encoder(small_config, seed=99, name="D",
                          vocab_hash=small_vocab.content_hash())
        log = distill(teacher, student, small_corpus, small_dev, small_vocab,
                      TrainConfig(steps=3, eval_interval=3, batch_size=16))
        return student, log

    s1, l1 = run()
    s2, l2 = run()
    for k in s1.params:
        np.testing.assert_array_equal(s1.params[k].data, s2.params[k].data)
    assert [r["total"] for r in l1.train_log.step_records] == \
           [r["total"] for r in l2.train_log.step_records]


def test_distill_keeps_the_step0_student_when_no_eval_improves(
        small_config, small_vocab, small_corpus, small_dev):
    """At this learning rate every step degrades the student, so step 0
    stays the best eval: the student must come back with its step-0
    weights, and the reported best Spearman and probe loss must be theirs."""
    teacher = EnsembleModel(members(small_config, small_vocab))
    student = Encoder(small_config, seed=99, name="D",
                      vocab_hash=small_vocab.content_hash())
    before = {k: v.data.copy() for k, v in student.params.items()}
    cfg = TrainConfig(steps=4, eval_interval=2, batch_size=16, learning_rate=2.0)
    log = distill(teacher, student, small_corpus, small_dev, small_vocab, cfg)

    assert [s for s, _ in log.train_log.evals] == [0, 2, 4]
    assert log.train_log.best_step == 0
    assert sts_eval(ensemble_embed_fn([student], small_vocab), small_dev) == \
        log.spearman_best
    # the fixed probe batch distill draws (epoch 999_983 of the batch order)
    sentences = next(batch_iter(small_corpus, cfg.batch_size, cfg.seed, 999_983))
    probe = make_batch(small_vocab, sentences, small_config.max_seq_len)
    t_emb = ensemble_embed(teacher, probe).astype(np.float64)
    h = student.encode(probe, train_mode=False).last_hidden
    assert _similarity_loss(h, t_emb).item() == log.probe_loss_best
    for k in before:
        np.testing.assert_array_equal(student.params[k].data, before[k])


def test_distill_teacher_encodes_each_distinct_sentence_once_per_run(
        small_config, small_vocab, small_corpus, small_dev, eval_rows):
    """The frozen teacher keeps one memo for the whole run: each member
    encodes each distinct sentence of the probe batch and of every training
    batch once, though the second epoch repeats sentences of the first."""
    teacher = EnsembleModel(members(small_config, small_vocab))
    student = Encoder(small_config, seed=99, name="D",
                      vocab_hash=small_vocab.content_hash())
    cfg = TrainConfig(steps=20, eval_interval=20, batch_size=16)
    distill(teacher, student, small_corpus, small_dev, small_vocab, cfg)

    requested = next(batch_iter(small_corpus, cfg.batch_size, cfg.seed, 999_983))
    batches = (b for epoch in itertools.count()
               for b in batch_iter(small_corpus, cfg.batch_size, cfg.seed, epoch))
    requested += [s for b in itertools.islice(batches, cfg.steps) for s in b]
    distinct = list(dict.fromkeys(requested))
    assert len(distinct) < len(requested)
    ids = make_batch(small_vocab, distinct, small_config.max_seq_len)
    for name in ("M0", "M1"):
        assert sorted(eval_rows[name]) == sorted(map(tuple, ids.tolist()))


def test_distill_refuses_a_student_of_another_vocabulary_before_the_teacher_runs(
        small_config, small_vocab, small_corpus, small_dev, eval_rows):
    teacher = EnsembleModel(members(small_config, small_vocab))
    student = Encoder(small_config, seed=99, name="D", vocab_hash="deadbeef")
    with pytest.raises(DataError, match="different vocabulary"):
        distill(teacher, student, small_corpus, small_dev, small_vocab,
                TrainConfig(steps=2, eval_interval=1, batch_size=16))
    assert not eval_rows
