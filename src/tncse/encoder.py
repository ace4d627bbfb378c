"""BERT-like transformer encoder at desk scale.

Each layer is multi-head attention and a tanh FFN, each followed by a
LayerNorm (so 2·num_layers LayerNorms total); pooling takes the CLS row of
the last hidden state and a single tanh feedforward pooler projects it.
The last layer computes only the rows the pooled output reads: its keys and
values span the sequence, its queries and everything after them rows 0-1.
LayerNorms can be stripped from the end of the stack for the norm probe.

A batch is a (batch, max_seq_len) id array.  ``encode`` drops its trailing
all-PAD columns down to a multiple of 4, the key widths at which OpenBLAS
0.3.31 rounds ``q @ kᵀ`` (dk=32) alike, so every eval-mode output equals the
untrimmed one.  Eval mode reads the bare parameter arrays, so it records no
tape (``autodiff._node``), frees each intermediate once no name holds it and
changes no encoder state, so threads may run it side by side.  Train mode
draws every dropout mask from one stream per encoder, so the trainers run a
step's dropout views as one batch, stacked on the leading axis, and cut the
outputs apart with ``EncoderOutput.split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import RngStreams, Tensor
from .data import PAD_ID
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

    def __post_init__(self):
        if self.num_layers < 1 or self.num_heads < 1:
            raise ConfigError(f"num_layers and num_heads must be >= 1, got "
                              f"{self.num_layers} and {self.num_heads}")
        if self.hidden_dim < 2 or self.ffn_dim < 1:  # LayerNorm needs two features
            raise ConfigError(f"need hidden_dim >= 2 and ffn_dim >= 1, got "
                              f"{self.hidden_dim} and {self.ffn_dim}")
        if self.max_seq_len < 3:
            raise ConfigError(f"max_seq_len must be >= 3, so that one token fits "
                              f"between [CLS] and [SEP], got {self.max_seq_len}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by "
                              f"num_heads {self.num_heads}")


@dataclass
class EncoderOutput:
    last_hidden: Tensor   # (batch, d) pooled row
    pooler: Tensor        # (batch, d)

    def split(self, views):
        """One output per view of a stacked ``encode`` call (see module doc)."""
        if views < 1 or len(self.pooler.data) % views:
            raise ValueError(f"{len(self.pooler.data)} rows do not split into {views} views")
        n = len(self.pooler.data) // views
        return [EncoderOutput(*(ad.getitem(t, slice(k * n, (k + 1) * n))
                                for t in (self.last_hidden, self.pooler)))
                for k in range(views)]


def _param_shapes(c: EncoderConfig):
    """Parameter name -> shape, in initialization order: weights and
    embeddings are drawn from the init stream in this order, LayerNorm gains
    (``_g``) start at one and biases (``_b``) at zero."""
    d, f = c.hidden_dim, c.ffn_dim
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_seq_len, d)}
    for i in range(c.num_layers):
        for proj in ("q", "k", "v", "o"):
            shapes[f"layer{i}.{proj}_w"] = (d, d)
            shapes[f"layer{i}.{proj}_b"] = (d,)
        shapes.update({f"layer{i}.ln1_g": (d,), f"layer{i}.ln1_b": (d,),
                       f"layer{i}.ffn1_w": (d, f), f"layer{i}.ffn1_b": (f,),
                       f"layer{i}.ffn2_w": (f, d), f"layer{i}.ffn2_b": (d,),
                       f"layer{i}.ln2_g": (d,), f"layer{i}.ln2_b": (d,)})
    shapes["pooler_w"] = (d, d)
    shapes["pooler_b"] = (d,)
    return shapes


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
        rng = self.streams.get("init")
        p = {}
        for name, shape in _param_shapes(self.config).items():
            if name.endswith("_g"):
                data = np.ones(shape, dtype=np.float32)
            elif name.endswith("_b"):
                data = np.zeros(shape, dtype=np.float32)
            else:
                data = rng.normal(0.0, 0.02, shape).astype(np.float32)
            p[name] = Tensor(data, requires_grad=True)
        return p

    def astype(self, dtype):
        """Copy of this encoder with parameters cast to ``dtype``."""
        params = {k: Tensor(v.data.astype(dtype), requires_grad=True)
                  for k, v in self.params.items()}
        return Encoder(self.config, self.seed, self.name, self.vocab_hash, params)

    def parameters(self):
        return list(self.params.values())

    # -- forward -----------------------------------------------------------

    def encode(self, ids, train_mode: bool = False,
               layernorms_stripped: int = 0) -> EncoderOutput:
        """Pooled outputs; the last ``layernorms_stripped`` LayerNorms are
        skipped.  Eval mode records no tape (see module doc)."""
        c = self.config
        if not 0 <= layernorms_stripped <= 2 * c.num_layers:
            raise ValueError(f"layernorms_stripped must be in [0, {2 * c.num_layers}], "
                             f"got {layernorms_stripped}")
        if ids.shape[1] != c.max_seq_len:
            raise DataError(f"batch seq len {ids.shape[1]} != max_seq_len {c.max_seq_len}")
        if ids.max() >= c.vocab_size:
            raise DataError(f"token id {int(ids.max())} out of vocabulary "
                            f"(size {c.vocab_size})")
        p = self.params if train_mode else {k: v.data for k, v in self.params.items()}
        dtype = p["tok_emb"].dtype
        B, L = ids.shape
        filled = ids != PAD_ID
        cols = np.flatnonzero(filled.any(axis=0))
        # drop trailing all-PAD columns down to a multiple of 4 (see module doc)
        W = min(L, 4 * (int(cols[-1]) // 4 + 1)) if cols.size else L
        ids, mask = ids[:, :W], filled[:, :W].astype(dtype)
        # "pass0", the stream one-view passes drew from, keeps their masks as
        # recorded; eval mode draws nothing, so it does not create the stream
        rng = self.streams.get(f"{self.name}/pass0") if train_mode else None
        drop_p = c.dropout_p if train_mode else 0.0
        H, d, dk = c.num_heads, c.hidden_dim, c.hidden_dim // c.num_heads

        x = ad.dropout(ad.add(ad.embedding(p["tok_emb"], ids),
                              ad.getitem(p["pos_emb"], slice(0, W))), drop_p, rng)
        attn_bias = ((mask - 1.0) * _MASK_NEG)[:, None, None, :]
        ln_kept = 2 * c.num_layers - layernorms_stripped

        def heads(t):
            return ad.transpose(ad.reshape(t, (B, -1, H, dk)), (0, 2, 1, 3))

        def proj(t, name):
            return ad.linear(t, p[f"{name}_w"], p[f"{name}_b"])

        def add_norm(x, out, name, ln_index):
            """Residual add of dropped-out ``out``, then LayerNorm ``name`` if kept."""
            x = ad.add(x, ad.dropout(out, drop_p, rng))
            if ln_index >= ln_kept:
                return x
            return ad.layer_norm(x, p[f"{name}_g"], p[f"{name}_b"])

        # attention and FFN keep their intermediates local, so an eval-mode
        # encode (no tape) frees them before the next block allocates its own
        def attention(x, xq, i):
            q = heads(proj(xq, f"layer{i}.q"))
            k, v = (heads(proj(x, f"layer{i}.{n}")) for n in ("k", "v"))
            scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                              1.0 / math.sqrt(dk))
            attn = ad.dropout(ad.softmax(scores, additive_mask=attn_bias), drop_p, rng)
            ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, -1, d))
            return proj(ctx, f"layer{i}.o")

        def ffn(x, i):
            return proj(ad.tanh(proj(x, f"layer{i}.ffn1")), f"layer{i}.ffn2")

        for i in range(c.num_layers):
            # only row 0 of the last layer is read; 2 query rows round as W rows do
            last = i == c.num_layers - 1
            xq = ad.getitem(x, (slice(None), slice(0, 2))) if last else x
            x = add_norm(xq, attention(x, xq, i), f"layer{i}.ln1", 2 * i)
            x = add_norm(x, ffn(x, i), f"layer{i}.ln2", 2 * i + 1)

        hL = ad.getitem(x, (slice(None), 0))
        hP = ad.tanh(proj(hL, "pooler"))
        return EncoderOutput(last_hidden=hL, pooler=hP)


def _check_compatible(encoders, what):
    """Encoders summed or trained together share hidden_dim, max_seq_len and
    their vocabulary."""
    for field in ("hidden_dim", "max_seq_len"):
        values = sorted({getattr(enc.config, field) for enc in encoders})
        if len(values) > 1:
            raise DataError(f"{what} differ in {field}: {values}")
    _check_same_vocab([enc.vocab_hash for enc in encoders], what)


def _check_same_vocab(hashes, what):
    """Vocabulary hashes that are None (not recorded) pass unchecked."""
    if len({h for h in hashes if h is not None}) > 1:
        raise DataError(f"{what} were built over different vocabulary hashes")

