"""Evaluation: STS scoring by Spearman correlation, hypersphere
alignment/uniformity metrics, and the LayerNorm norm probe.

Alignment and uniformity use the standard hypersphere definitions with
alpha = 2 and t = 2; embeddings are L2-normalized internally.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import make_batch
from .errors import DataError, NumericError

ALIGNMENT_ALPHA = 2
UNIFORMITY_T = 2
# distinct sentences the norm probe measures, at most one EMBED_BATCH
PROBE_SENTENCES = 100
# sentences per encode call when embedding in eval mode
EMBED_BATCH = 128


def _parallel_cpus():
    """CPUs this process may keep busy at once: those it may run on
    (``os.sched_getaffinity``, so ``taskset`` counts), or one unless OpenBLAS
    runs at one thread (two BLAS threads per worker were slower).  The eval
    threads and the dual-training worker both decide from it."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return usable or 1


def _map_threads(fn, items):
    """``[fn(x) for x in items]`` on up to ``_parallel_cpus()`` threads, which
    overlap as numpy releases the GIL in GEMMs and ufunc loops.  Each job runs
    in a copy of the caller's context (``np.errstate``); the first failing
    item's exception is raised.  One item or one CPU stays on the calling
    thread.  The pool's threads have joined when this returns."""
    items = list(items)
    workers = min(len(items), _parallel_cpus())
    if workers < 2:
        return [fn(x) for x in items]
    contexts = [contextvars.copy_context() for _ in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(contextvars.Context.run, contexts, [fn] * len(items), items))


def _average_ranks(x):
    """1-based ranks of ``x``; tied values share the mean of their positions,
    an exact half-integer."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(pred, gold):
    """Spearman rank correlation with average ranks for ties: the Pearson
    correlation of the rank vectors, computed as ``scipy.stats.spearmanr``
    computes it, so the value is the same to the bit."""
    pred = np.asarray(pred, dtype=float)
    gold = np.asarray(gold, dtype=float)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DataError("spearman needs two equal-length 1-d sequences")
    if pred.size < 2:
        raise DataError("spearman undefined for fewer than 2 points")
    if not (np.isfinite(pred).all() and np.isfinite(gold).all()):
        raise DataError("spearman undefined for a non-finite value")
    if np.all(pred == pred[0]) or np.all(gold == gold[0]):
        raise DataError("spearman undefined for a constant sequence")
    ranks = np.column_stack((_average_ranks(pred), _average_ranks(gold)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def cosine_matrix_rows(A, B):
    """Cosine between corresponding rows of A and B."""
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise DataError("cannot score a zero-norm embedding")
    return np.clip((A * B).sum(axis=1) / (na * nb), -1.0, 1.0)


def sts_eval(embed_fn, dataset):
    """Spearman of embedding-cosine predictions against gold scores.

    ``embed_fn`` maps a list of sentences to an (n, d) array.  A non-finite
    embedding, or collapsed embeddings that give every pair the same cosine,
    are a NumericError.
    """
    if len(dataset) < 2:
        raise DataError(f"Spearman needs at least 2 pairs, got {len(dataset)}")
    gold = np.asarray([p.gold_score for p in dataset], dtype=float)
    if np.all(gold == gold[0]):
        raise DataError("STS gold scores are all equal")
    A = np.asarray(embed_fn([p.sentence_a for p in dataset]), dtype=float)
    B = np.asarray(embed_fn([p.sentence_b for p in dataset]), dtype=float)
    for side, X in (("a", A), ("b", B)):
        rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if rows.size:
            raise NumericError(f"non-finite embedding of sentence_{side} in pair {rows[0]}")
    pred = cosine_matrix_rows(A, B)
    if np.all(pred == pred[0]):
        raise NumericError("collapsed embeddings: every predicted cosine is equal")
    return spearman(pred, gold)


def _normalize_rows(X):
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise DataError("cannot normalize a zero-norm embedding")
    return X / norms


def alignment(X, X_plus):
    """Mean ||f(x) - f(x+)||^alpha over positive pairs (normalized)."""
    X, X_plus = np.atleast_2d(X), np.atleast_2d(X_plus)
    if X.size == 0:
        raise DataError("alignment of an empty set")
    Xn, Xpn = _normalize_rows(X), _normalize_rows(X_plus)
    return float(np.mean(np.linalg.norm(Xn - Xpn, axis=1) ** ALIGNMENT_ALPHA))


def uniformity(X):
    """log mean over distinct pairs of exp(-t ||f(x) - f(y)||^2) (normalized).
    The exponents come from the Gram matrix, in place, so one n x n float64
    array is the only large transient."""
    X = np.atleast_2d(X)
    n = X.shape[0]
    if n < 2:
        raise DataError("uniformity needs at least 2 embeddings")
    Xn = _normalize_rows(X)
    E = Xn @ Xn.T                  # unit rows: ||x - y||^2 = 2 - 2 x.y
    E *= 2.0 * UNIFORMITY_T
    E -= 2.0 * UNIFORMITY_T
    np.minimum(E, 0.0, out=E)      # rounding can take a distance below 0
    np.exp(E, out=E)
    np.fill_diagonal(E, 0.0)
    # E is symmetric, so its mean over i != j is the mean over i < j
    return float(np.log(E.sum() / (n * (n - 1))))


@dataclass
class ProbeRow:
    stripped: int
    mean_hl: float
    std_hl: float
    cv_hl: float
    mean_hp: float
    std_hp: float
    cv_hp: float


def norm_probe(encoder, corpus, vocab):
    """Norm statistics of h^L and h^P under LayerNorm stripping.

    For each strip count 0 .. 2·num_layers the last n LayerNorms are replaced
    by identity and mean/std/CV of the embedding norms over the first
    PROBE_SENTENCES distinct corpus sentences are reported.
    """
    sentences = list(dict.fromkeys(corpus))[:PROBE_SENTENCES]
    if len(sentences) < PROBE_SENTENCES:
        raise DataError(f"norm probe needs at least {PROBE_SENTENCES} distinct sentences")
    ids = make_batch(vocab, sentences, encoder.config.max_seq_len)

    def row(n):
        out = encoder.encode(ids, layernorms_stripped=n)
        stats = [(x.mean(), x.std()) for x in (np.linalg.norm(t.data, axis=1)
                                               for t in (out.last_hidden, out.pooler))]
        return ProbeRow(n, *(float(v) for m, s in stats for v in (m, s, s / m)))

    return _map_threads(row, range(2 * encoder.config.num_layers + 1))


@dataclass
class EvalReport:
    per_dataset: dict = field(default_factory=dict)   # name -> Spearman rho
    alignment: float | None = None
    uniformity: float | None = None

    @property
    def average_rho(self):
        if not self.per_dataset:
            return None
        return float(np.mean(list(self.per_dataset.values())))

    def to_text(self):
        lines = ["TNCSE evaluation report",
                 f"alignment/uniformity constants: alpha={ALIGNMENT_ALPHA} t={UNIFORMITY_T}"]
        # the to_kv entries, with "spearman.<name>" shown as "spearman <name>"
        lines += [f"{k.replace('.', ' ', 1)} {v:.6f}" for k, v in self.to_kv().items()]
        return "\n".join(lines) + "\n"

    def to_kv(self):
        kv = {f"spearman.{name}": rho for name, rho in self.per_dataset.items()}
        if self.per_dataset:
            kv["spearman.avg"] = self.average_rho
        if self.alignment is not None:
            kv["alignment"] = self.alignment
        if self.uniformity is not None:
            kv["uniformity"] = self.uniformity
        return kv


def probe_csv(rows):
    lines = [",".join(f.name for f in fields(ProbeRow))]
    lines += [",".join(map(str, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"
