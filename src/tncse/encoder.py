"""BERT-like transformer encoder at desk scale.

Each layer is multi-head attention and a tanh FFN, each followed by a
LayerNorm (so 2·num_layers LayerNorms total); pooling takes the CLS row of
the last hidden state and a single tanh feedforward pooler projects it.
LayerNorms can be stripped from the end of the stack for the norm probe.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import RngStreams, Tensor
from .data import TokenBatch
from .errors import ConfigError, DataError

_MASK_NEG = 1e9


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    max_seq_len: int = 32
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 256
    dropout_p: float = 0.1
    layernorms_stripped: int = 0
    pooling_mode: str = "cls"

    def __post_init__(self):
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by "
                              f"num_heads {self.num_heads}")
        if not 0 <= self.layernorms_stripped <= 2 * self.num_layers:
            raise ConfigError(f"layernorms_stripped must be in [0, {2 * self.num_layers}]")
        if self.pooling_mode not in ("cls", "mean"):
            raise ConfigError(f"unknown pooling_mode {self.pooling_mode!r}")


@dataclass
class EncoderOutput:
    last_hidden: Tensor   # (batch, d) pooled row
    pooler: Tensor        # (batch, d)


@dataclass
class ViewBundle:
    """The four last-hidden views and their pooler outputs for one batch."""
    hL_I: Tensor
    hL_I_plus: Tensor
    hL_II: Tensor
    hL_II_plus: Tensor
    hP_I: Tensor
    hP_I_plus: Tensor
    hP_II: Tensor
    hP_II_plus: Tensor


class Encoder:
    def __init__(self, config: EncoderConfig, seed: int, name: str = "enc",
                 vocab_hash: str | None = None, params=None):
        self.config = config
        self.seed = int(seed)
        self.name = name
        self.vocab_hash = vocab_hash
        self.streams = RngStreams(self.seed)
        self.params = params if params is not None else self._init_params()

    def _init_params(self):
        c = self.config
        rng = self.streams.get("init")
        p = {}

        def w(name, shape):
            p[name] = Tensor(rng.normal(0.0, 0.02, shape).astype(np.float32),
                             requires_grad=True)

        def zeros(name, shape):
            p[name] = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

        def ones(name, shape):
            p[name] = Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

        w("tok_emb", (c.vocab_size, c.hidden_dim))
        w("pos_emb", (c.max_seq_len, c.hidden_dim))
        for i in range(c.num_layers):
            for proj in ("q", "k", "v", "o"):
                w(f"layer{i}.{proj}_w", (c.hidden_dim, c.hidden_dim))
                zeros(f"layer{i}.{proj}_b", (c.hidden_dim,))
            ones(f"layer{i}.ln1_g", (c.hidden_dim,))
            zeros(f"layer{i}.ln1_b", (c.hidden_dim,))
            w(f"layer{i}.ffn1_w", (c.hidden_dim, c.ffn_dim))
            zeros(f"layer{i}.ffn1_b", (c.ffn_dim,))
            w(f"layer{i}.ffn2_w", (c.ffn_dim, c.hidden_dim))
            zeros(f"layer{i}.ffn2_b", (c.hidden_dim,))
            ones(f"layer{i}.ln2_g", (c.hidden_dim,))
            zeros(f"layer{i}.ln2_b", (c.hidden_dim,))
        w("pooler_w", (c.hidden_dim, c.hidden_dim))
        zeros("pooler_b", (c.hidden_dim,))
        return p

    def reset_rng(self):
        """Rewind all named dropout streams to their seeded start."""
        self.streams.reset()
        return self

    def astype(self, dtype):
        """Copy of this encoder with parameters cast to ``dtype``."""
        params = {k: Tensor(v.data.astype(dtype), requires_grad=True)
                  for k, v in self.params.items()}
        return Encoder(self.config, self.seed, self.name, self.vocab_hash, params)

    def parameters(self):
        return list(self.params.values())

    # -- forward -----------------------------------------------------------

    def encode(self, batch: TokenBatch, train_mode: bool = False,
               pass_index: int = 0) -> EncoderOutput:
        c = self.config
        ids = batch.ids
        if ids.shape[1] != c.max_seq_len:
            raise DataError(f"batch seq len {ids.shape[1]} != max_seq_len {c.max_seq_len}")
        if ids.max() >= c.vocab_size:
            raise DataError(f"token id {int(ids.max())} out of vocabulary "
                            f"(size {c.vocab_size})")
        p = self.params
        dtype = p["tok_emb"].dtype
        mask = batch.attention_mask.astype(dtype)
        B, L = ids.shape
        rng = self.streams.get(f"{self.name}/pass{pass_index}") if train_mode else None
        drop_p = c.dropout_p if train_mode else 0.0

        def drop(x):
            return ad.dropout(x, drop_p, rng) if drop_p > 0 else x

        x = ad.add(ad.embedding(p["tok_emb"], ids),
                   ad.getitem(p["pos_emb"], slice(0, L)))
        x = drop(x)

        attn_bias = ((mask - 1.0) * _MASK_NEG)[:, None, None, :]
        H, dk = c.num_heads, c.hidden_dim // c.num_heads
        ln_total = 2 * c.num_layers
        ln_kept = ln_total - c.layernorms_stripped
        ln_index = 0

        def maybe_ln(x, g, b):
            nonlocal ln_index
            keep = ln_index < ln_kept
            ln_index += 1
            return ad.layer_norm(x, g, b) if keep else x

        def heads(t):
            return ad.transpose(ad.reshape(t, (B, L, H, dk)), (0, 2, 1, 3))

        for i in range(c.num_layers):
            q = heads(ad.add(ad.matmul(x, p[f"layer{i}.q_w"]), p[f"layer{i}.q_b"]))
            k = heads(ad.add(ad.matmul(x, p[f"layer{i}.k_w"]), p[f"layer{i}.k_b"]))
            v = heads(ad.add(ad.matmul(x, p[f"layer{i}.v_w"]), p[f"layer{i}.v_b"]))
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                              1.0 / math.sqrt(dk))
            attn = ad.softmax(scores, axis=-1, additive_mask=attn_bias)
            attn = drop(attn)
            ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, L, -1))
            out = ad.add(ad.matmul(ctx, p[f"layer{i}.o_w"]), p[f"layer{i}.o_b"])
            x = maybe_ln(ad.add(x, drop(out)), p[f"layer{i}.ln1_g"], p[f"layer{i}.ln1_b"])

            h = ad.tanh(ad.add(ad.matmul(x, p[f"layer{i}.ffn1_w"]), p[f"layer{i}.ffn1_b"]))
            out = ad.add(ad.matmul(h, p[f"layer{i}.ffn2_w"]), p[f"layer{i}.ffn2_b"])
            x = maybe_ln(ad.add(x, drop(out)), p[f"layer{i}.ln2_g"], p[f"layer{i}.ln2_b"])

        if c.pooling_mode == "cls":
            hL = ad.getitem(x, (slice(None), 0))
        else:
            counts = mask.sum(axis=1, keepdims=True)
            hL = ad.div(ad.sum_(ad.mul(x, mask[:, :, None]), axis=1),
                        Tensor(counts))
        hP = ad.tanh(ad.add(ad.matmul(hL, p["pooler_w"]), p["pooler_b"]))
        return EncoderOutput(last_hidden=hL, pooler=hP)


def _check_same_vocab(encoders, what):
    """Encoders without a recorded vocabulary hash pass unchecked."""
    hashes = {enc.vocab_hash for enc in encoders if enc.vocab_hash is not None}
    if len(hashes) > 1:
        raise DataError(f"{what} were built over different vocabularies")


def dual_view(enc_i: Encoder, enc_ii: Encoder, batch: TokenBatch) -> ViewBundle:
    """Four dropout passes (two per encoder) over the same batch."""
    _check_same_vocab((enc_i, enc_ii), "encoders")
    o_i = enc_i.encode(batch, train_mode=True, pass_index=0)
    o_i_plus = enc_i.encode(batch, train_mode=True, pass_index=1)
    o_ii = enc_ii.encode(batch, train_mode=True, pass_index=0)
    o_ii_plus = enc_ii.encode(batch, train_mode=True, pass_index=1)
    return ViewBundle(
        hL_I=o_i.last_hidden, hL_I_plus=o_i_plus.last_hidden,
        hL_II=o_ii.last_hidden, hL_II_plus=o_ii_plus.last_hidden,
        hP_I=o_i.pooler, hP_I_plus=o_i_plus.pooler,
        hP_II=o_ii.pooler, hP_II_plus=o_ii_plus.pooler,
    )


def strip_layernorms(enc: Encoder, n: int) -> Encoder:
    """Encoder sharing ``enc``'s parameters with the last ``n`` LayerNorms
    replaced by identity."""
    config = dataclasses.replace(enc.config, layernorms_stripped=n)
    return Encoder(config, enc.seed, enc.name, enc.vocab_hash, enc.params)
