"""Encoder forward pass: shapes, determinism, dropout-view behavior,
pooling, LayerNorm stripping and the padding trim."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from tncse import autodiff as ad
from tncse.data import CLS_ID, PAD_ID, SEP_ID, make_batch
from tncse.encoder import Encoder, EncoderConfig
from tncse.errors import ConfigError, DataError
from test_training import DEFAULT_SHAPE, SMALL_SHAPE, WIDE_SHAPE


def enc_of(vocab, **kw):
    defaults = dict(vocab_size=len(vocab), max_seq_len=16, hidden_dim=32,
                    num_layers=2, num_heads=4, ffn_dim=64, dropout_p=0.1)
    defaults.update(kw)
    return Encoder(EncoderConfig(**defaults), seed=7, name="I",
                   vocab_hash=vocab.content_hash())


# -- config validation -----------------------------------------------------

def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, hidden_dim=30, num_heads=4)


@pytest.mark.parametrize("field", ["num_layers", "num_heads"])
def test_config_rejects_fewer_than_one_layer_or_head(field):
    with pytest.raises(ConfigError, match=f"{field}.* must be >= 1"):
        EncoderConfig(vocab_size=10, **{field: 0})


# -- forward shapes and determinism ---------------------------------------

def test_encode_output_shapes(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs", "a cat"], 16)
    out = enc.encode(batch)
    assert out.last_hidden.shape == (2, 32)
    assert out.pooler.shape == (2, 32)


def test_pooler_is_tanh_bounded(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    hp = enc.encode(batch).pooler.data
    assert np.all(np.abs(hp) <= 1.0)


def test_eval_mode_is_deterministic(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    a = enc.encode(batch).last_hidden.data
    b = enc.encode(batch).last_hidden.data
    np.testing.assert_array_equal(a, b)


def test_rows_are_independent_of_batch_companions(small_vocab):
    enc = enc_of(small_vocab)
    solo = enc.encode(make_batch(small_vocab, ["the quick dog runs"], 16))
    pair = enc.encode(make_batch(small_vocab,
                                 ["the quick dog runs", "a cat sleeps"], 16))
    np.testing.assert_allclose(solo.last_hidden.data, pair.last_hidden.data[:1],
                               rtol=1e-6)


def test_identical_seeds_give_identical_parameters(small_vocab):
    a, b = enc_of(small_vocab), enc_of(small_vocab)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)


# -- dropout views ---------------------------------------------------------

def test_train_mode_views_differ(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"] * 2, 16)
    h0, h1 = (v.last_hidden.data for v in
              enc.encode(batch, train_mode=True).split(2))
    assert not np.array_equal(h0, h1)


def test_reset_rng_replays_dropout_masks(small_vocab):
    """A fresh encoder with the same seed replays the same dropout masks."""
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    h_first, h_replay = (enc_of(small_vocab).encode(batch, train_mode=True).last_hidden.data
                         for _ in range(2))
    np.testing.assert_array_equal(h_first, h_replay)


def test_dual_step_views_are_four_distinct_views(small_vocab):
    """The four views of a dual training step: I and I+, II and II+."""
    enc_i = enc_of(small_vocab)
    enc_ii = Encoder(enc_i.config, seed=8, name="II",
                     vocab_hash=small_vocab.content_hash())
    batch = make_batch(small_vocab, ["the quick dog runs", "a cat"] * 2, 16)
    views = [v.last_hidden.data for enc in (enc_i, enc_ii)
             for v in enc.encode(batch, train_mode=True).split(2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(views[i], views[j])


def test_stacked_eval_batch_splits_into_the_lone_batch(small_vocab):
    """In eval mode a batch stacked on itself is an ordinary batch: each
    block of its split equals the lone batch's output bit for bit."""
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs", "a cat", "a bird sleeps"], 16)
    lone = enc.encode(batch)
    for view in enc.encode(np.concatenate([batch, batch])).split(2):
        for got, want in ((view.last_hidden, lone.last_hidden),
                          (view.pooler, lone.pooler)):
            np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("train_mode", [False, True])
def test_split_rejects_rows_that_do_not_split_into_views(small_vocab, train_mode):
    batch = make_batch(small_vocab, ["a cat", "the dog", "a bird"], 16)
    out = enc_of(small_vocab).encode(batch, train_mode=train_mode)
    with pytest.raises(ValueError, match="3 rows do not split into 2 views"):
        out.split(2)
    with pytest.raises(ValueError, match="into 0 views"):
        out.split(0)


# -- input validation ------------------------------------------------------

def test_encode_rejects_wrong_sequence_length(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["a cat"], 8)
    with pytest.raises(DataError, match="seq len"):
        enc.encode(batch)


def test_encode_rejects_out_of_vocab_ids(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["a cat"], 16)
    batch[0, 1] = len(small_vocab) + 10
    with pytest.raises(DataError, match="out of vocabulary"):
        enc.encode(batch)


# -- LayerNorm stripping ---------------------------------------------------

def test_strip_count_lasts_one_call(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    before = enc.encode(batch).last_hidden.data
    enc.encode(batch, layernorms_stripped=2)
    np.testing.assert_array_equal(enc.encode(batch).last_hidden.data, before)


def test_strip_changes_output(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    base = enc.encode(batch).last_hidden.data
    stripped = enc.encode(batch, layernorms_stripped=2 * enc.config.num_layers)
    assert not np.allclose(base, stripped.last_hidden.data)


def test_strip_zero_is_identity_behavior(small_vocab):
    enc = enc_of(small_vocab)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    a = enc.encode(batch).last_hidden.data
    b = enc.encode(batch, layernorms_stripped=0).last_hidden.data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [-1, 5])
def test_strip_rejects_out_of_range(small_vocab, n):
    enc = enc_of(small_vocab)  # 2 layers: 4 LayerNorms
    batch = make_batch(small_vocab, ["a cat"], 16)
    with pytest.raises(ValueError, match=r"layernorms_stripped must be in \[0, 4\]"):
        enc.encode(batch, layernorms_stripped=n)


def test_last_layernorm_is_stripped_first(small_vocab):
    """Stripping one LayerNorm must leave every pre-final-LayerNorm
    computation untouched: outputs differ only through the final norm."""
    enc = enc_of(small_vocab, dropout_p=0.0)
    batch = make_batch(small_vocab, ["the quick dog runs"], 16)
    full = enc.encode(batch).last_hidden.data
    one = enc.encode(batch, layernorms_stripped=1).last_hidden.data
    # re-applying the final LayerNorm by hand to the stripped output must
    # recover the full-stack output
    g = enc.params[f"layer{enc.config.num_layers - 1}.ln2_g"].data
    b = enc.params[f"layer{enc.config.num_layers - 1}.ln2_b"].data
    # the stripped output is the *pre-norm* CLS row of the final residual sum
    mu, var = one.mean(-1, keepdims=True), one.var(-1, keepdims=True)
    renormed = (one - mu) / np.sqrt(var + 1e-5) * g + b
    np.testing.assert_allclose(renormed, full, rtol=1e-4, atol=1e-6)


# -- golden outputs --------------------------------------------------------

# SHA-256 of last_hidden and pooler for the fixed encoder below, each mode
# on a fresh copy.  The eval digests were recorded when the last layer still
# ran every row, the train digests since dropout draws its masks at the
# shape they apply to; "stacked" is one train-mode call on the batch stacked
# on itself, which draws both blocks' masks from the one stream.  The
# digests hold for one numpy/OpenBLAS build and CPU (numpy 2.4.6, OpenBLAS
# 0.3.31, x86-64); another build may round a GEMM differently.
GOLDEN_DIGESTS = {
    "eval": ("15cfe0f4327ef9cbf3cc5e4fa44faaf5addf1cbb1cf3f80c494a224305b085fa",
             "6f3a4e5b3f9a16800f819af0a1d2d358e4e103cb0e119b903cedee552235da2e"),
    "train": ("1d35b02942e19a753f83e62660a8c26d203ced4742f75b66e11768eb67efbae1",
              "fafe1eed46af9c6ad073af14752426ecc4a53628e9de3cd346fc38b07ae05d5d"),
    "stacked": ("ac219635c475ad77ea241410a4d6283ceb7486ff17fd636efa7417b626ace4d2",
                "39c0ae87e15eb9de2d66ac95dc41c07a13d1125091904c40ca9ecd845d90600d"),
}


def golden_encoder_and_batch():
    config = EncoderConfig(vocab_size=50, max_seq_len=16, hidden_dim=64,
                           num_layers=2, num_heads=4, ffn_dim=256, dropout_p=0.1)
    rng = np.random.default_rng(2024)
    ids = rng.integers(4, 50, size=(8, 16))
    ids[:, 0] = CLS_ID
    for row, n in enumerate(rng.integers(4, 17, size=8)):
        ids[row, n - 1] = SEP_ID
        ids[row, n:] = PAD_ID
    return Encoder(config, seed=17, name="I"), ids


def test_encode_outputs_match_golden_digests():
    calls = {"eval": lambda enc, ids: enc.encode(ids),
             "train": lambda enc, ids: enc.encode(ids, train_mode=True),
             "stacked": lambda enc, ids: enc.encode(np.concatenate([ids, ids]),
                                                    train_mode=True)}
    for mode, call in calls.items():
        out = call(*golden_encoder_and_batch())
        got = tuple(hashlib.sha256(t.data.tobytes()).hexdigest()
                    for t in (out.last_hidden, out.pooler))
        assert got == GOLDEN_DIGESTS[mode], mode


def test_eval_mode_records_no_tape_and_matches_train_mode_without_dropout():
    """Eval mode reads the bare parameter arrays: no output keeps a parent
    and no parameter gains a gradient.  With dropout off, train mode (which
    the gradient suite checks) computes the same forward bit for bit."""
    enc, ids = golden_encoder_and_batch()
    enc = Encoder(replace(enc.config, dropout_p=0.0), enc.seed, enc.name)
    assert all(p.requires_grad for p in enc.parameters())
    evl, train = enc.encode(ids), enc.encode(ids, train_mode=True)
    for got, want in ((evl.last_hidden, train.last_hidden), (evl.pooler, train.pooler)):
        assert not got._parents and want._parents
        np.testing.assert_array_equal(got.data, want.data)
    ad.sum_(ad.add(evl.last_hidden, evl.pooler)).backward()
    assert all(p.grad is None for p in enc.parameters())


# -- padding trim ----------------------------------------------------------

TRIM_SHAPES = {"small": SMALL_SHAPE, "default": DEFAULT_SHAPE, "wide": WIDE_SHAPE}


@pytest.mark.parametrize("shape", list(TRIM_SHAPES))
def test_row_does_not_depend_on_the_batch_padded_width(shape, small_corpus,
                                                       small_vocab):
    """``encode`` trims 64 corpus sentences to their longest row; with a
    (max_seq_len - 2)-word sentence in the last row the batch keeps its full
    width, and every other eval-mode row stays the same bit for bit."""
    L = TRIM_SHAPES[shape]["max_seq_len"]
    sentences = list(dict.fromkeys(small_corpus))[:64]
    long_sentence = " ".join(" ".join(sentences).split()[:L - 2])
    trimmed = make_batch(small_vocab, sentences, L)
    full = make_batch(small_vocab, sentences[:63] + [long_sentence], L)
    assert (trimmed[:, L - 4:] == PAD_ID).all() and full[-1, -1] == SEP_ID
    config = EncoderConfig(vocab_size=len(small_vocab), num_layers=2, num_heads=4,
                           **TRIM_SHAPES[shape])
    enc = Encoder(config, seed=7, name="I")
    a, b = (enc.encode(ids) for ids in (trimmed, full))
    for got, want in ((a.last_hidden, b.last_hidden), (a.pooler, b.pooler)):
        np.testing.assert_array_equal(got.data[:63], want.data[:63])
