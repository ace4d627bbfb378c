"""Training loops: optimizer oracle, determinism, best-checkpoint
restoration, loss-term reduction identities, and the significance harness."""

import numpy as np
import pytest

from tncse.autodiff import Tensor
from tncse.encoder import Encoder
from tncse.errors import DataError, NumericError, TncseError
from tncse.losses import LossConfig
from tncse.training import (Adam, SignificanceRow, TrainConfig, TrainLog,
                            ensemble_embed_fn, pretrain_single,
                            significance_suite, train_single_tn, train_tncse)


def cfg_small(**kw):
    defaults = dict(seed=1, batch_size=16, steps=6, eval_interval=3,
                    learning_rate=1e-3)
    defaults.update(kw)
    return TrainConfig(**defaults)


# -- Adam ------------------------------------------------------------------

def test_adam_first_step_matches_closed_form():
    """With bias correction, the first update is exactly -lr * sign-free
    g / (|g| + eps) ~= -lr for any nonzero gradient."""
    p = Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([0.5, -3.0])
    opt = Adam([p], lr=0.1, eps=1e-8)
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -3.0]) / (
        np.abs([0.5, -3.0]) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert p.grad is None  # gradients zeroed after the step


def test_adam_two_steps_match_reference_implementation():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
    grads = [np.array([0.3]), np.array([-0.7])]
    # independent reference
    x, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g[0]
        v = b2 * v + (1 - b2) * g[0] ** 2
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


def test_adam_skips_parameters_without_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    Adam([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_adam_weight_decay_shrinks_parameters():
    p = Tensor(np.array([10.0]), requires_grad=True)
    p.grad = np.array([0.0])
    Adam([p], lr=0.1, weight_decay=0.1).step()
    assert p.data[0] < 10.0


# -- config ----------------------------------------------------------------

def test_train_config_rejects_bad_step_schedule():
    with pytest.raises(ValueError):
        TrainConfig(steps=5, eval_interval=10)
    with pytest.raises(ValueError):
        TrainConfig(steps=5, eval_interval=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=0)


def test_train_log_csv_header_and_rows():
    log = TrainLog(step_records=[{"step": 1, "nce_i": 0.5, "nce_ii": None,
                                  "icnce": None, "ictn": None, "total": 0.5}],
                   evals=[(1, 0.25)])
    lines = log.to_csv().splitlines()
    assert lines[0] == "step,nce_i,nce_ii,icnce,ictn,total,val_spearman"
    assert lines[1] == "1,0.500000,,,,0.500000,0.250000"


# -- ensemble embedding ----------------------------------------------------

def test_ensemble_embed_fn_sums_members(small_vocab, small_config):
    a = Encoder(small_config, seed=1, name="I")
    b = Encoder(small_config, seed=2, name="II")
    sents = ["the quick dog runs", "a cat sleeps"]
    ha = ensemble_embed_fn([a], small_vocab)(sents)
    hb = ensemble_embed_fn([b], small_vocab)(sents)
    hab = ensemble_embed_fn([a, b], small_vocab)(sents)
    np.testing.assert_array_equal(hab, ha + hb)


# -- pretraining -----------------------------------------------------------

def test_pretrain_single_is_bit_deterministic(small_corpus, small_dev,
                                              small_vocab, small_config):
    def run():
        enc = Encoder(small_config, seed=3, name="I")
        log = pretrain_single(enc, small_corpus, small_dev, small_vocab,
                              cfg_small())
        return enc, log

    enc_a, log_a = run()
    enc_b, log_b = run()
    for k in enc_a.params:
        np.testing.assert_array_equal(enc_a.params[k].data, enc_b.params[k].data)
    assert [r["total"] for r in log_a.step_records] == \
           [r["total"] for r in log_b.step_records]


def test_pretrain_records_every_step_and_tracks_best(small_corpus, small_dev,
                                                     small_vocab, small_config):
    enc = Encoder(small_config, seed=3, name="I")
    log = pretrain_single(enc, small_corpus, small_dev, small_vocab, cfg_small())
    assert [r["step"] for r in log.step_records] == list(range(1, 7))
    eval_steps = [s for s, _ in log.evals]
    assert eval_steps == [0, 3, 6]
    assert log.best_spearman == max(r for _, r in log.evals)
    assert log.best_step in eval_steps


def test_pretrain_augmentation_changes_the_trajectory(small_corpus, small_dev,
                                                      small_vocab, small_config,
                                                      synonyms):
    def run(table):
        enc = Encoder(small_config, seed=3, name="I")
        return pretrain_single(enc, small_corpus, small_dev, small_vocab,
                               cfg_small(augment_p=1.0), augment_table=table)

    plain = run(None)
    augmented = run(synonyms)
    assert [r["total"] for r in plain.step_records] != \
           [r["total"] for r in augmented.step_records]


def test_training_aborts_on_non_finite_loss(small_corpus, small_dev,
                                            small_vocab, small_config):
    enc = Encoder(small_config, seed=3, name="I")
    enc.params["pooler_w"].data[:] = np.nan  # poison a parameter
    enc.params["tok_emb"].data[:] = np.nan
    with pytest.raises((NumericError, Exception)):
        pretrain_single(enc, small_corpus, small_dev, small_vocab, cfg_small())


# -- dual training reduction -----------------------------------------------

def test_dual_nce_only_reduces_to_independent_pretraining(
        small_corpus, small_dev, small_vocab, small_config):
    """With only the per-encoder contrastive term enabled, joint training
    must update each encoder exactly as its solo pretraining run would
    (shared data order, no cross-encoder gradient flow)."""
    cfg = cfg_small(steps=4, eval_interval=4, restore_best=False,
                    loss=LossConfig(enabled_terms=frozenset({"NCE"})))

    enc_i = Encoder(small_config, seed=3, name="I")
    enc_ii = Encoder(small_config, seed=4, name="II")
    train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab, cfg)

    solo_i = Encoder(small_config, seed=3, name="I")
    solo_ii = Encoder(small_config, seed=4, name="II")
    pretrain_single(solo_i, small_corpus, small_dev, small_vocab, cfg)
    pretrain_single(solo_ii, small_corpus, small_dev, small_vocab, cfg)

    for joint, solo in ((enc_i, solo_i), (enc_ii, solo_ii)):
        for k in joint.params:
            np.testing.assert_allclose(joint.params[k].data, solo.params[k].data,
                                       atol=1e-7)


def test_dual_training_with_cross_terms_diverges_from_solo(
        small_corpus, small_dev, small_vocab, small_config):
    cfg = cfg_small(steps=4, eval_interval=4, restore_best=False)
    enc_i = Encoder(small_config, seed=3, name="I")
    enc_ii = Encoder(small_config, seed=4, name="II")
    train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab, cfg)

    solo_i = Encoder(small_config, seed=3, name="I")
    pretrain_single(solo_i, small_corpus, small_dev, small_vocab, cfg)
    deltas = [np.abs(enc_i.params[k].data - solo_i.params[k].data).max()
              for k in enc_i.params]
    assert max(deltas) > 1e-6


def test_restore_best_rewinds_parameters(small_corpus, small_dev, small_vocab,
                                         small_config):
    enc = Encoder(small_config, seed=3, name="I")
    log = pretrain_single(enc, small_corpus, small_dev, small_vocab,
                          cfg_small(restore_best=True))
    embed = ensemble_embed_fn([enc], small_vocab)
    from tncse.evaluation import sts_eval
    rho = sts_eval(embed, small_dev)
    assert rho == pytest.approx(log.best_spearman, abs=1e-9)


def test_single_tn_variant_runs_and_logs_the_norm_term(
        small_corpus, small_dev, small_vocab, small_config, synonyms):
    enc = Encoder(small_config, seed=3, name="S")
    log = train_single_tn(enc, small_corpus, small_dev, small_vocab,
                          cfg_small(), augment_table=synonyms)
    assert all(r["ictn"] is not None for r in log.step_records)
    assert all(np.isfinite(r["total"]) for r in log.step_records)


# -- significance harness --------------------------------------------------

def test_significance_suite_summary_statistics():
    rows, summary = significance_suite(lambda seed: seed / 10.0, seeds=(1, 2, 3))
    assert rows == [SignificanceRow(1, 0.1), SignificanceRow(2, 0.2),
                    SignificanceRow(3, 0.3)]
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["min"] == pytest.approx(0.1)
    assert summary["max"] == pytest.approx(0.3)
    assert summary["std"] == pytest.approx(np.std([0.1, 0.2, 0.3]))


def test_significance_suite_wraps_failures_with_seed():
    """The seed joins the message; a TncseError keeps its class, and so
    its CLI exit status."""
    for raised, expected in ((ValueError, TncseError), (DataError, DataError)):
        def boom(seed):
            raise raised("exploded")
        with pytest.raises(expected, match="seed 2.*exploded") as info:
            significance_suite(boom, seeds=(2,))
        assert type(info.value) is expected
