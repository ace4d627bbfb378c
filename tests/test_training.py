"""Training loops: optimizer oracle, determinism, best-checkpoint
restoration and loss-term reduction identities."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import tncse
from tncse import autodiff as ad
from tncse import losses as L
from tncse import training
from tncse.autodiff import Tensor
from tncse.data import build_vocab, make_batch, synth_corpus
from tncse.encoder import Encoder, EncoderConfig
from tncse.errors import ConfigError, DataError, NumericError, TncseError
from tncse.evaluation import EMBED_BATCH
from tncse.losses import LossConfig
from tncse.training import (Adam, TrainConfig, TrainLog, _member_sums,
                            ensemble_embed_fn, pretrain_single, train_single_tn,
                            train_tncse)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    opt = Adam([p], lr=0.1)
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -3.0]) / (
        np.abs([0.5, -3.0]) + 1e-8)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert p.grad is None  # gradients zeroed after the step


def test_adam_two_steps_match_reference_implementation():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr)
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


def test_adam_in_place_equals_the_out_of_place_update():
    """30 steps of the in-place update give the textbook update's float32
    weights bit for bit."""
    rng = np.random.default_rng(4)
    shapes = [(8, 16), (16,), (3, 5)]
    params = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
              for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(x) for x in ref]
    v = [np.zeros_like(x) for x in ref]
    opt = Adam(params, lr=1e-2)
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    for t in range(1, 31):
        for i, p in enumerate(params):
            g = rng.standard_normal(p.shape).astype(np.float32)
            p.grad = g.copy()
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            mhat, vhat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - 1e-2 * mhat / (np.sqrt(vhat) + eps)
        opt.step()
    for p, want in zip(params, ref):
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, want)


def test_adam_skips_parameters_without_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    Adam([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.0])


# -- config ----------------------------------------------------------------

def test_train_config_rejects_bad_step_schedule():
    with pytest.raises(ValueError):
        TrainConfig(steps=5, eval_interval=10)
    with pytest.raises(ValueError):
        TrainConfig(steps=5, eval_interval=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=0)


def test_train_config_refuses_a_batch_of_one_sentence():
    """InfoNCE has no negatives in a one-sentence batch: its loss and
    gradient are exactly 0."""
    with pytest.raises(ConfigError, match="batch_size must be >= 2, got 1"):
        TrainConfig(batch_size=1)


def test_train_log_csv_header_and_rows():
    """A term a record lacks, or holds as None, is an empty cell."""
    log = TrainLog(step_records=[{"step": 1, "nce_i": 0.5, "nce_ii": None,
                                  "icnce": None, "ictn": None, "total": 0.5},
                                 {"step": 2, "ictn": 0.125, "total": 1.0}],
                   evals=[(1, 0.25)])
    lines = log.to_csv().splitlines()
    assert lines[0] == "step,nce_i,nce_ii,icnce,ictn,total,val_spearman"
    assert lines[1] == "1,0.500000,,,,0.500000,0.250000"
    assert lines[2] == "2,,,,0.125000,1.000000,"


# -- ensemble embedding ----------------------------------------------------

def test_ensemble_embed_fn_sums_members(small_vocab, small_config):
    a = Encoder(small_config, seed=1, name="I")
    b = Encoder(small_config, seed=2, name="II")
    sents = ["the quick dog runs", "a cat sleeps"]
    ha = ensemble_embed_fn([a], small_vocab)(sents)
    hb = ensemble_embed_fn([b], small_vocab)(sents)
    hab = ensemble_embed_fn([a, b], small_vocab)(sents)
    np.testing.assert_array_equal(hab, ha + hb)


# the unit-test shape (small_config's), the default encoder shape, and the
# pretrain-wide benchmark's
SMALL_SHAPE = dict(max_seq_len=16, hidden_dim=32, ffn_dim=64)
DEFAULT_SHAPE = dict(max_seq_len=16, hidden_dim=64, ffn_dim=256)
WIDE_SHAPE = dict(max_seq_len=32, hidden_dim=128, ffn_dim=512)
EXACT_SHAPES = pytest.mark.parametrize("shape", ["small", "default", "wide"])


def pair_of_shape(vocab, shape):
    config = EncoderConfig(vocab_size=len(vocab), num_layers=2, num_heads=4, **shape)
    return [Encoder(config, seed=1, name="I"), Encoder(config, seed=2, name="II")]


@pytest.fixture(scope="module")
def pair_rows(small_corpus, small_vocab):
    """Per shape: a pair, EMBED_BATCH + 36 distinct sentences, the rows of
    the first EMBED_BATCH from one EMBED_BATCH-row encode per member, and each
    row encoded alone."""
    sentences = list(dict.fromkeys(small_corpus))[:EMBED_BATCH + 36]
    assert len(sentences) == EMBED_BATCH + 36
    out = {}
    for name, shape in (("small", SMALL_SHAPE), ("default", DEFAULT_SHAPE),
                        ("wide", WIDE_SHAPE)):
        members = pair_of_shape(small_vocab, shape)
        batches = [make_batch(small_vocab, sentences[:EMBED_BATCH], shape["max_seq_len"])]
        batches += [make_batch(small_vocab, [s], shape["max_seq_len"]) for s in sentences]
        sums = _member_sums(members, batches)
        out[name] = members, sentences, sums[0], np.concatenate(sums[1:])
    return out


@EXACT_SHAPES
@pytest.mark.parametrize("n", range(1, EMBED_BATCH + 1))
def test_ensemble_embed_fn_row_does_not_depend_on_its_batch(n, shape, small_vocab,
                                                            pair_rows):
    """A sentence's row is the same bit for bit in a batch of any size from 1
    to EMBED_BATCH and at any position in it, so a memo may serve it from an
    earlier call.  A fresh embedder starts with an empty memo, so it
    encodes the n sentences as one batch."""
    members, sentences, reference, _ = pair_rows[shape]
    rows = ensemble_embed_fn(members, small_vocab)(sentences[EMBED_BATCH - n:EMBED_BATCH])
    np.testing.assert_array_equal(rows, reference[EMBED_BATCH - n:])


@EXACT_SHAPES
def test_ensemble_embed_fn_rows_past_the_first_batch_equal_rows_alone(
        shape, small_vocab, pair_rows):
    """EMBED_BATCH + 36 new sentences in one call are encoded as batches of
    EMBED_BATCH and 36; every row equals the sentence encoded alone."""
    members, sentences, _, alone = pair_rows[shape]
    rows = ensemble_embed_fn(members, small_vocab)(sentences)
    np.testing.assert_array_equal(rows, alone)


@pytest.mark.parametrize("shape", [DEFAULT_SHAPE, WIDE_SHAPE], ids=["d64", "d128"])
def test_ensemble_embed_fn_with_a_repeat_equals_one_64_row_encode(shape):
    """What the benchmark's ensemble-sum check relies on: 64 dev sentences
    with one repeat, embedded as 63 distinct rows in one batch, equal the sum
    of one 64-row encode per member bit for bit."""
    corpus, dev, _ = synth_corpus(seed=1, n_pairs=64)
    vocab = build_vocab(corpus)
    members = pair_of_shape(vocab, shape)
    sentences = [p.sentence_a for p in dev]
    sentences[-1] = sentences[0]
    assert len(set(sentences)) == 63
    batch = make_batch(vocab, sentences, shape["max_seq_len"])
    expected = sum(enc.encode(batch).last_hidden.data for enc in members)
    np.testing.assert_array_equal(ensemble_embed_fn(members, vocab)(sentences), expected)


@pytest.mark.parametrize("n", [1, EMBED_BATCH - 1, EMBED_BATCH, EMBED_BATCH + 1, 255])
def test_ensemble_embed_fn_encodes_new_sentences_in_full_batches(
        n, small_corpus, small_vocab, small_config, monkeypatch, eval_rows):
    """n new sentences run as ceil(n / EMBED_BATCH) encodes per member, each
    of at most EMBED_BATCH rows.  Batches may run on several threads, so the
    sizes and rows are compared in sorted order."""
    sizes = {"I": [], "II": []}
    encode = Encoder.encode

    def sizing_encode(self, ids, *args, **kwargs):
        sizes[self.name].append(len(ids))
        return encode(self, ids, *args, **kwargs)

    monkeypatch.setattr(Encoder, "encode", sizing_encode)
    sentences = list(dict.fromkeys(small_corpus))[:n]
    assert len(sentences) == n
    members = [Encoder(small_config, seed=1, name="I"),
               Encoder(small_config, seed=2, name="II")]
    ensemble_embed_fn(members, small_vocab)(sentences + sentences[::-1])
    want = sorted(min(EMBED_BATCH, n - i) for i in range(0, n, EMBED_BATCH))
    assert {name: sorted(s) for name, s in sizes.items()} == {"I": want, "II": want}
    rows = sorted(map(tuple, make_batch(small_vocab, sentences,
                                        small_config.max_seq_len).tolist()))
    assert {name: sorted(r) for name, r in eval_rows.items()} == {"I": rows, "II": rows}


@pytest.fixture(scope="module")
def three_batches():
    """A vocabulary and 2 * EMBED_BATCH + 5 distinct sentences: three batches."""
    corpus = synth_corpus(seed=1, n_sentences=1024, n_pairs=32)[0]
    sentences = list(dict.fromkeys(corpus))[:2 * EMBED_BATCH + 5]
    assert len(sentences) == 2 * EMBED_BATCH + 5
    return build_vocab(corpus), sentences


@pytest.mark.parametrize("shape", [SMALL_SHAPE, DEFAULT_SHAPE], ids=["small", "default"])
def test_ensemble_embed_fn_on_threads_equals_one_thread(shape, three_batches, cpus):
    """Three batches on more worker threads than the host has CPUs, switching
    threads often, give the rows of the calling thread alone bit for bit."""
    vocab, sentences = three_batches
    members = pair_of_shape(vocab, shape)
    cpus(1)
    expected = ensemble_embed_fn(members, vocab)(sentences)
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = ensemble_embed_fn(members, vocab)(sentences)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(rows, expected)


@pytest.mark.parametrize("n_cpus, usable, blas_threads, n_sentences, on_caller", [
    (2, 2, "1", 2 * EMBED_BATCH, False),
    (2, 2, "1", EMBED_BATCH, True),
    (1, 1, "1", 2 * EMBED_BATCH, True),
    (2, 1, "1", 2 * EMBED_BATCH, True),
    (2, 2, "2", 2 * EMBED_BATCH, True),
], ids=["threads", "one_batch", "one_cpu", "one_usable_cpu", "two_blas_threads"])
def test_eval_encodes_run_on_the_calling_thread_unless_threads_can_help(
        n_cpus, usable, blas_threads, n_sentences, on_caller, three_batches, cpus,
        monkeypatch):
    """Worker threads run eval batches only when there are two or more
    batches, two or more usable CPUs and one BLAS thread."""
    vocab, sentences = three_batches
    cpus(n_cpus, usable)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    threads = []
    encode = Encoder.encode

    def thread_recording_encode(self, *args, **kwargs):
        threads.append(threading.get_ident())
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(Encoder, "encode", thread_recording_encode)
    members = pair_of_shape(vocab, SMALL_SHAPE)
    ensemble_embed_fn(members, vocab)(sentences[:n_sentences])
    assert len(threads) == 2 * (n_sentences // EMBED_BATCH)
    caller = threading.get_ident()
    assert [t == caller for t in threads] == [on_caller] * len(threads)


def test_an_error_in_a_worker_thread_keeps_its_class(small_vocab, small_config, cpus):
    """The first failing batch's DataError reaches the caller as a DataError,
    so the CLI's exit code for it holds."""
    cpus(2)
    members = [Encoder(small_config, seed=1, name="I")]
    good = make_batch(small_vocab, ["a cat sleeps"], small_config.max_seq_len)
    bad = good.copy()
    bad[0, 1] = small_config.vocab_size
    with pytest.raises(DataError, match="out of vocabulary"):
        _member_sums(members, [good, bad, good])


def test_eval_worker_threads_keep_the_callers_errstate(three_batches, cpus):
    """Weights scaled by 1e30 overflow in every batch; the caller's
    ``np.errstate(all="ignore")`` holds in the worker threads too, so no
    RuntimeWarning is raised."""
    vocab, sentences = three_batches
    members = pair_of_shape(vocab, SMALL_SHAPE)
    for enc in members:
        for p in enc.parameters():
            p.data *= np.float32(1e30)
    cpus(2)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ensemble_embed_fn(members, vocab)(sentences)
    assert not np.isfinite(rows).all()


def test_ensemble_embed_fn_memo_embeds_each_sentence_once(small_corpus, small_vocab,
                                                         small_config, eval_rows):
    embed = ensemble_embed_fn([Encoder(small_config, seed=1, name="I")], small_vocab)
    first = embed(small_corpus[:40])
    again = embed(small_corpus[20:60] + small_corpus[:20])
    np.testing.assert_array_equal(again[:20], first[20:])
    np.testing.assert_array_equal(again[40:], first[:20])
    wanted = list(dict.fromkeys(small_corpus[:60]))
    ids = make_batch(small_vocab, wanted, small_config.max_seq_len)
    assert sorted(eval_rows["I"]) == sorted(map(tuple, ids.tolist()))


def test_train_validation_embeds_each_distinct_dev_sentence_once(
        small_corpus, small_dev, small_vocab, small_config, monkeypatch, eval_rows):
    per_call = []
    sts_eval = training.sts_eval

    def recording_sts_eval(embed, dataset):
        eval_rows.clear()
        rho = sts_eval(embed, dataset)
        per_call.append({name: sorted(rows) for name, rows in eval_rows.items()})
        return rho

    monkeypatch.setattr(training, "sts_eval", recording_sts_eval)
    train_tncse(Encoder(small_config, seed=3, name="I"),
                Encoder(small_config, seed=4, name="II"), small_corpus, small_dev,
                small_vocab, cfg_small(steps=1, eval_interval=1))
    wanted = list(dict.fromkeys(s for p in small_dev for s in (p.sentence_a, p.sentence_b)))
    assert len(wanted) < 2 * len(small_dev)
    ids = make_batch(small_vocab, wanted, small_config.max_seq_len)
    expected = sorted(map(tuple, ids.tolist()))
    # validation at step 0 and at the last step, each with a fresh memo
    assert per_call == [{"I": expected, "II": expected}] * 2


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
                               cfg_small(), augment_table=table)

    plain = run(None)
    augmented = run(synonyms)
    assert [r["total"] for r in plain.step_records] != \
           [r["total"] for r in augmented.step_records]


def test_training_aborts_on_non_finite_loss(small_corpus, small_dev,
                                            small_vocab, small_config):
    """Step-0 validation and step 1 see finite weights; step 1's update scales
    them by about 1e30, so step 2's forward pass overflows."""
    enc = Encoder(small_config, seed=3, name="I")
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="non-finite loss term nce_i at step 2"):
            pretrain_single(enc, small_corpus, small_dev, small_vocab,
                            cfg_small(learning_rate=1e30))


def test_training_aborts_on_non_finite_weights_at_step_0_validation(
        small_corpus, small_dev, small_vocab, small_config):
    enc = Encoder(small_config, seed=3, name="I")
    enc.params["pooler_w"].data[:] = np.nan  # poison a parameter
    enc.params["tok_emb"].data[:] = np.nan
    with pytest.raises(NumericError, match="non-finite embedding"):
        pretrain_single(enc, small_corpus, small_dev, small_vocab, cfg_small())


def test_training_on_a_corpus_of_fewer_than_2_sentences_is_a_data_error(
        small_dev, small_vocab, small_config):
    from tncse.ensemble import EnsembleModel, distill
    teacher = EnsembleModel([Encoder(small_config, seed=5)])
    for train in (pretrain_single, lambda enc, *a: distill(teacher, enc, *a)):
        for corpus in ([], ["a cat"]):
            with pytest.raises(DataError, match=f"2 sentences to batch, got {len(corpus)}"):
                train(Encoder(small_config, seed=3), corpus, small_dev, small_vocab,
                      cfg_small())


def test_a_one_sentence_corpus_fails_before_step_0_validation(
        small_dev, small_vocab, small_config, monkeypatch):
    calls = []
    monkeypatch.setattr(training, "sts_eval", lambda *a: calls.append(a) or 0.5)
    trainers = (lambda *a: pretrain_single(Encoder(small_config, seed=3), *a),
                lambda *a: train_tncse(Encoder(small_config, seed=3, name="I"),
                                       Encoder(small_config, seed=4, name="II"), *a))
    for train in trainers:
        with pytest.raises(DataError, match="2 sentences to batch, got 1"):
            train(["a cat"], small_dev, small_vocab, cfg_small())
    assert calls == []


# -- dual training reduction -----------------------------------------------

@pytest.fixture
def rising_validation(monkeypatch):
    """Each validation scores higher than the last, so every run restores
    the weights of its last step."""
    scores = iter(range(1, 1_000_000))
    monkeypatch.setattr(training, "sts_eval", lambda *a: float(next(scores)))


def test_dual_nce_only_reduces_to_independent_pretraining(
        small_corpus, small_dev, small_vocab, small_config, rising_validation):
    """With only the per-encoder contrastive term enabled, joint training
    must update each encoder bit for bit as its solo pretraining run would
    (shared data order and two-view step, no cross-encoder gradient flow)."""
    cfg = cfg_small(steps=4, eval_interval=4,
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
            assert np.array_equal(joint.params[k].data, solo.params[k].data), k


def test_dual_training_with_cross_terms_diverges_from_solo(
        small_corpus, small_dev, small_vocab, small_config, rising_validation):
    cfg = cfg_small(steps=4, eval_interval=4)
    enc_i = Encoder(small_config, seed=3, name="I")
    enc_ii = Encoder(small_config, seed=4, name="II")
    train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab, cfg)

    solo_i = Encoder(small_config, seed=3, name="I")
    pretrain_single(solo_i, small_corpus, small_dev, small_vocab, cfg)
    deltas = [np.abs(enc_i.params[k].data - solo_i.params[k].data).max()
              for k in enc_i.params]
    assert max(deltas) > 1e-6


# -- the dual-step worker ----------------------------------------------------

@pytest.fixture
def worker_pids(monkeypatch):
    """Each validation records the pids of the live child processes.  A test
    that blocks for a minute fails instead of hanging the suite."""
    pids, evaluate = [], training.sts_eval

    def recording_eval(*a):
        pids.extend(p.pid for p in multiprocessing.active_children())
        return evaluate(*a)

    def expire(*_):
        raise TimeoutError("blocked for 60 s")

    monkeypatch.setattr(training, "sts_eval", recording_eval)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_remains(pids):
    assert pids, "no worker ran"
    assert multiprocessing.active_children() == []
    for pid in set(pids):
        with pytest.raises(ProcessLookupError):  # a zombie would still take the signal
            os.kill(pid, 0)


def poison_gradient(monkeypatch, *weights):
    """Each of ``weights``' gradients becomes NaN; the loss and every other
    gradient stay finite."""
    linear = ad.linear

    def poisoned(x, w, b):
        out = linear(x, w, b)
        if any(w is weight for weight in weights):
            backward = out._backward_fn  # (dx, dw, db): poison dw alone
            out._backward_fn = lambda g: [gi * np.nan if i == 1 else gi
                                          for i, gi in enumerate(backward(g))]
        return out

    monkeypatch.setattr(ad, "linear", poisoned)


@pytest.mark.parametrize("terms", L.ablation_grid(), ids=lambda t: "+".join(sorted(t)))
def test_dual_step_in_a_worker_equals_the_step_in_process(
        terms, small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus):
    """Encoder II's half of every step, run in a forked worker, leaves the same
    weights, trainlog and dropout stream as the whole step in one process."""
    cfg = cfg_small(steps=4, eval_interval=2, loss=LossConfig(enabled_terms=terms))
    runs = []
    for n_cpus in (2, 1):
        cpus(n_cpus)
        del worker_pids[:]
        encs = (Encoder(small_config, seed=3, name="I"),
                Encoder(small_config, seed=4, name="II"))
        log = train_tncse(*encs, small_corpus, small_dev, small_vocab, cfg)
        assert bool(worker_pids) == (n_cpus == 2)
        runs.append((encs, log.to_csv()))
    (worker_encs, worker_log), (local_encs, local_log) = runs
    assert worker_log == local_log
    for a, b in zip(worker_encs, local_encs):
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data), (a.name, k)
    pass0 = [enc.streams.get("II/pass0").bit_generator.state
             for enc in (worker_encs[1], local_encs[1])]
    assert pass0[0] == pass0[1]
    assert all(isinstance(p.data, np.ndarray) and p.data.base is None
               for p in worker_encs[1].parameters())  # pulled: arrays of their own


def test_dual_worker_leaves_no_child_process(small_corpus, small_dev, small_vocab,
                                             small_config, worker_pids, cpus):
    cpus(2)
    train_tncse(Encoder(small_config, seed=3, name="I"),
                Encoder(small_config, seed=4, name="II"),
                small_corpus, small_dev, small_vocab, cfg_small(steps=2, eval_interval=1))
    assert_no_child_remains(worker_pids)


def test_dual_training_forks_no_worker_while_another_thread_runs(
        small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus):
    """A fork copies only the calling thread, so with another thread alive
    encoder II's passes stay in this process."""
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        train_tncse(Encoder(small_config, seed=3, name="I"),
                    Encoder(small_config, seed=4, name="II"),
                    small_corpus, small_dev, small_vocab, cfg_small(steps=2, eval_interval=1))
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert worker_pids == []


def test_a_parent_side_error_mid_run_leaves_no_child_process(
        small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus):
    cpus(2)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="non-finite loss term nce_i at step 2"):
            train_tncse(Encoder(small_config, seed=3, name="I"),
                        Encoder(small_config, seed=4, name="II"),
                        small_corpus, small_dev, small_vocab,
                        cfg_small(learning_rate=1e30))
    assert_no_child_remains(worker_pids)


@pytest.mark.parametrize("where", ["in process", "worker", "both"])
def test_a_non_finite_gradient_names_encoder_parameter_and_step(
        where, small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus,
        monkeypatch):
    """A NaN gradient under a finite loss stops the run before Adam writes it
    into the weights.  With both encoders' gradients NaN, I's is named, in
    one process and with the worker alike."""
    cpus(2)
    enc_i = Encoder(small_config, seed=3, name="I")
    enc_ii = Encoder(small_config, seed=4, name="II")
    before = {k: p.data.copy() for k, p in enc_i.params.items()}
    if where == "worker":
        poison_gradient(monkeypatch, enc_ii.params["layer1.ffn2_w"])
        with pytest.raises(NumericError) as err:
            train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab, cfg_small())
        assert str(err.value) == "non-finite gradient of II layer1.ffn2_w at step 1"
        assert_no_child_remains(worker_pids)
    elif where == "both":
        poison_gradient(monkeypatch, enc_i.params["layer1.ffn2_w"],
                        enc_ii.params["layer1.ffn2_w"])
        for n_cpus in (1, 2):
            cpus(n_cpus)
            del worker_pids[:]
            with pytest.raises(NumericError) as err:
                train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab,
                            cfg_small())
            assert str(err.value) == "non-finite gradient of I layer1.ffn2_w at step 1"
            assert bool(worker_pids) == (n_cpus == 2)
        assert_no_child_remains(worker_pids)
    else:
        poison_gradient(monkeypatch, enc_i.params["layer1.ffn2_w"])
        with pytest.raises(NumericError) as err:
            pretrain_single(enc_i, small_corpus, small_dev, small_vocab, cfg_small())
        assert str(err.value) == "non-finite gradient of I layer1.ffn2_w at step 1"
    for k, p in enc_i.params.items():
        assert np.array_equal(p.data, before[k]), k


def test_a_worker_side_error_keeps_its_class_in_one_line(
        small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus,
        monkeypatch):
    cpus(2)
    encode = Encoder.encode

    def failing_encode(self, ids, train_mode=False, **kwargs):
        if train_mode and self.name == "II":
            raise DataError("token id 99 out of vocabulary\n(size 98)")
        return encode(self, ids, train_mode, **kwargs)

    monkeypatch.setattr(Encoder, "encode", failing_encode)
    with pytest.raises(DataError) as err:
        train_tncse(Encoder(small_config, seed=3, name="I"),
                    Encoder(small_config, seed=4, name="II"),
                    small_corpus, small_dev, small_vocab, cfg_small())
    assert str(err.value) == ("encoder II worker failed: "
                              "token id 99 out of vocabulary (size 98)")
    assert_no_child_remains(worker_pids)


@pytest.mark.parametrize("moment", ["after step 1's validation",
                                    "before step 1's validation pulls"])
def test_a_killed_worker_is_an_error_not_a_hang(
        moment, small_corpus, small_dev, small_vocab, small_config, worker_pids, cpus,
        monkeypatch):
    cpus(2)
    parent, evaluate, adam_step = os.getpid(), training.sts_eval, training.Adam.step
    rhos = []
    after = moment.startswith("after")

    def kill_children():
        for p in multiprocessing.active_children():
            p.kill()
            p.join()

    def killing_eval(*a):
        rhos.append(evaluate(*a))  # the recording one
        if after and len(rhos) == 2:
            kill_children()
        return rhos[-1]

    def killing_step(self):
        adam_step(self)
        if not after and os.getpid() == parent and self.t == 1:  # the caller's Adam
            kill_children()

    monkeypatch.setattr(training, "sts_eval", killing_eval)
    monkeypatch.setattr(training.Adam, "step", killing_step)
    with pytest.raises(TncseError) as err:
        train_tncse(Encoder(small_config, seed=3, name="I"),
                    Encoder(small_config, seed=4, name="II"),
                    small_corpus, small_dev, small_vocab, cfg_small(eval_interval=1))
    assert type(err.value) is TncseError
    assert str(err.value) == f"encoder II worker stopped (exit code {-signal.SIGKILL})"
    assert len(rhos) == (2 if after else 1)  # step 2's forward, or step 1's pull
    assert_no_child_remains(worker_pids)


def test_receive_takes_a_message_sent_after_it_stops_polling_and_sees_eof():
    ours, theirs = multiprocessing.Pipe()
    late = threading.Timer(3 * training.SPIN_S, theirs.send, ("late",))
    late.start()
    assert training._receive(ours) == "late"
    late.join()
    theirs.send("early")
    assert training._receive(ours) == "early"
    theirs.close()
    with pytest.raises(EOFError):
        training._receive(ours)
    ours.close()


def test_train_tncse_checks_vocabularies_before_validation(
        small_corpus, small_dev, small_vocab, small_config, monkeypatch):
    evals = []
    monkeypatch.setattr(training, "sts_eval", lambda *a: evals.append(a) or 0.5)
    enc_i = Encoder(small_config, seed=3, name="I",
                    vocab_hash=small_vocab.content_hash())
    enc_ii = Encoder(small_config, seed=4, name="II", vocab_hash="deadbeef")
    with pytest.raises(DataError, match="different vocabulary"):
        train_tncse(enc_i, enc_ii, small_corpus, small_dev, small_vocab, cfg_small())
    assert evals == []


def test_restore_best_rewinds_parameters(small_corpus, small_dev, small_vocab,
                                         small_config):
    enc = Encoder(small_config, seed=3, name="I")
    log = pretrain_single(enc, small_corpus, small_dev, small_vocab, cfg_small())
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


def test_step_records_hold_exactly_the_trainers_terms(
        small_corpus, small_dev, small_vocab, small_config, synonyms):
    """Each trainer records the step and its own loss terms, with no
    placeholder for a term it does not have."""
    from tncse.ensemble import EnsembleModel, distill
    data = (small_corpus, small_dev, small_vocab)
    cfg = cfg_small(steps=2, eval_interval=2)
    icnce_only = cfg_small(steps=2, eval_interval=2,
                           loss=LossConfig(enabled_terms=frozenset({"ICNCE"})))

    def enc(seed):
        return Encoder(small_config, seed=seed)

    runs = [
        (pretrain_single(enc(3), *data, cfg), {"nce_i"}),
        (train_single_tn(enc(3), *data, cfg, augment_table=synonyms),
         {"nce_i", "ictn"}),
        (train_tncse(enc(3), enc(4), *data, cfg),
         {"nce_i", "nce_ii", "icnce", "ictn"}),
        (train_tncse(enc(3), enc(4), *data, icnce_only), {"icnce"}),
        (distill(EnsembleModel([enc(5)]), enc(6), *data, cfg).train_log, set()),
    ]
    for log, terms in runs:
        assert [set(r) for r in log.step_records] == \
            [{"step", "total"} | terms] * 2
        assert all(isinstance(v, float) for r in log.step_records
                   for k, v in r.items() if k != "step")




# a fresh interpreter: earlier steps in this one raise glibc's adaptive
# mmap threshold and would hide the faults the test looks for
FAULT_PROBE = """
import resource
import tncse
from tncse.data import build_vocab, make_batch, synth_corpus
from tncse.encoder import Encoder, EncoderConfig
from tncse.losses import LossConfig, total_loss
from tncse.training import Adam

corpus = synth_corpus(seed=1, n_sentences=256, n_pairs=32)[0]
vocab = build_vocab(corpus)
config = EncoderConfig(vocab_size=len(vocab))
encoders = [Encoder(config, seed=1, name="I"), Encoder(config, seed=2, name="II")]
opt = Adam([p for enc in encoders for p in enc.parameters()])
ids = make_batch(vocab, corpus[:32] * 2, config.max_seq_len)

def step():
    views = [v for enc in encoders
             for v in enc.encode(ids, train_mode=True).split(2)]
    total_loss(views, LossConfig())["total"].backward()
    opt.step()

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(tncse._heap_resident, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not tncse._heap_resident,
                    reason="needs Linux and glibc's mallopt, not overridden by MALLOC_*")
def test_warm_dual_steps_run_without_page_faults():
    """Once warm, a default-shape dual step reuses the heap its predecessor
    freed; glibc, left to trim and unmap freed memory, faults 1-4k pages
    back in per step."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    resident, faults = proc.stdout.split()
    assert resident == "True"
    assert int(faults) <= 5 * 40, f"{faults} minor page faults in 5 warm dual steps"
