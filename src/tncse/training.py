"""Training loops: single-encoder contrastive pretraining, joint
dual-encoder training on the combined objective and the single-encoder
norm-constraint variant.

All of them, and distillation, run one step loop under one TrainConfig.
Checkpoint selection follows validation Spearman; during dual training the
validation embedding is the member sum, matching the inference rule.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses as L
from .data import _check_batchable, batch_iter, make_batch, synonym_substitute
from .encoder import Encoder, EncoderOutput, _check_compatible
from .errors import ConfigError, NumericError, TncseError
from .evaluation import EMBED_BATCH, _map_threads, _parallel_cpus, sts_eval

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


class _Half:
    """One encoder's share of a step, run here by ``recv``: sent an id array,
    its train-mode forward pass, which returns its two outputs' arrays; sent
    their gradients (None for an unused one), its backward pass."""

    def __init__(self, enc):
        self.enc, self._msg, self._outs = enc, None, ()

    def send(self, msg):
        self._msg = msg

    def recv(self):
        return self.run(self._msg)

    def run(self, msg):
        if isinstance(msg, np.ndarray):
            out = self.enc.encode(msg, train_mode=True)
            self._outs = (out.last_hidden, out.pooler)
            return [t.data for t in self._outs]
        ad._backward(self._outs, msg)
        self._outs = ()

    def close(self, ok):
        pass


class _Worker(_Half):
    """A _Half run by a child process, so that it overlaps the caller's work.
    The child is forked, not spawned, to inherit the encoder and an anonymous
    shared mmap that holds the encoder's parameters and gradients: the
    caller's Adam, validation and snapshots use the parameters in place, and
    the child writes its gradients there.  Each side closes the other's pipe
    end, so that it sees EOF if the other dies."""

    def __init__(self, enc):
        import multiprocessing  # 0.9 MB of modules that only dual training needs

        super().__init__(enc)
        params = enc.parameters()
        n = sum(p.data.size for p in params)
        shared = np.frombuffer(mmap.mmap(-1, 2 * n * params[0].data.itemsize),
                               params[0].dtype)
        self._grads, at = [], 0
        for p in params:
            shared[at:at + p.data.size] = p.data.ravel()
            p.data = shared[at:at + p.data.size].reshape(p.shape)
            self._grads.append(shared[n + at:n + at + p.data.size].reshape(p.shape))
            at += p.data.size
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=self._serve, args=(child_end, np.geterr()),
                                 daemon=True)
        self._proc.start()
        child_end.close()

    def _serve(self, conn, errors):
        """The child: a reply per message until None, then its streams."""
        self._conn.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's
        np.seterr(**errors)
        params = self.enc.parameters()
        with contextlib.suppress(EOFError):  # the caller died
            while (msg := _receive(conn)) is not None:
                try:
                    reply = self.run(msg)
                    if reply is None:  # the backward pass: which gradients it wrote
                        reply = [p.grad is not None for p in params]
                        for p, g in zip(params, self._grads):
                            if p.grad is not None:
                                g[...] = p.grad
                            p.grad = None
                except Exception as exc:
                    cls = type(exc) if isinstance(exc, TncseError) else TncseError
                    reply = cls(f"encoder {self.enc.name} worker failed: "
                                + " ".join(str(exc).split()))
                conn.send(reply)
            conn.send(self.enc.streams)

    def _pipe(self, fn, *args):
        try:
            return fn(*args)
        except (EOFError, OSError):
            self.close(False)
            raise TncseError(f"encoder {self.enc.name} worker stopped "
                             f"(exit code {self._proc.exitcode})") from None

    def send(self, msg):
        self._msg = msg
        self._pipe(self._conn.send, msg)

    def recv(self):
        reply = self._pipe(_receive, self._conn)
        if isinstance(reply, TncseError):
            raise reply
        if isinstance(self._msg, list):  # gradients, now in the shared map
            for p, g, written in zip(self.enc.parameters(), self._grads, reply):
                p.grad = g if written else None
        return reply

    def close(self, ok):
        """Stop the child, which first hands back the encoder's random streams
        when ``ok``; the parameters move to private arrays."""
        if ok:
            self.send(None)
            self.enc.streams = self.recv()
        self._proc.kill()
        self._proc.join()
        self._conn.close()
        for p in self.enc.parameters():
            p.data, p.grad = p.data.copy(), None


# How long each side of a dual step polls the pipe before it blocks on it.
# A blocked process idles its CPU, and on a virtual machine an idle vCPU is
# woken through the hypervisor, which on a busy host can take milliseconds;
# a step sends four messages.  The worker waits for the main process 2-3 ms
# at the median (6 ms at the 99th percentile), the main process for the
# worker about 0.3 ms.
SPIN_S = 0.01


def _receive(conn):
    """``conn.recv()``, after polling for up to SPIN_S."""
    deadline = time.perf_counter() + SPIN_S
    while not conn.poll() and time.perf_counter() < deadline:
        pass
    return conn.recv()


def _step(halves, sentences, batch_fn, loss_fn, step):
    """One step's forward and backward passes, each encoder's run by its
    half; returns the loss terms as floats.  The step's graph dies with this
    frame, before Adam steps."""
    ids = batch_fn(sentences)
    for h in halves:
        h.send(ids)
    outs = [EncoderOutput(*(ad.Tensor(a, requires_grad=True) for a in h.recv()))
            for h in halves]
    try:
        terms = loss_fn(sentences, outs)
    except L.ZeroNormError as exc:
        raise NumericError(f"{exc} at step {step}") from None
    record = {k: float(t.item()) for k, t in terms.items()}
    bad = [k for k, v in record.items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"non-finite loss term {bad[0]} at step {step}")
    terms["total"].backward()
    for h, out in zip(halves, outs):
        h.send([out.last_hidden.grad, out.pooler.grad])
    for h in halves:
        h.recv()
    return record


def _check_gradients(encoders, step):
    """NumericError naming the first non-finite gradient.  A finite sum of
    squares, one BLAS dot per parameter, clears a gradient; one that
    overflowed is rechecked element by element."""
    for enc in encoders:
        for name, p in enc.params.items():
            g = None if p.grad is None else p.grad.ravel()
            if g is not None and not math.isfinite(g @ g) and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient of {enc.name} {name} "
                                   f"at step {step}")


def _train(encoders, corpus, sts_dev, vocab, cfg, batch_fn, loss_fn):
    """The step loop every trainer shares, distillation included: per-batch
    loss, Adam update, periodic validation of the members' sum embedding,
    best-checkpoint tracking.

    Each step, every encoder encodes ``batch_fn(sentences)`` in train mode,
    and ``loss_fn(sentences, outputs)`` gets one EncoderOutput of leaf
    tensors per encoder and returns the step's loss terms as scalar tensors
    keyed by trainlog column (``TrainLog.COLUMNS``), only the terms its
    trainer has, plus the loss to minimize under ``"total"``.  This loop
    alone differentiates ``"total"``, to those leaves and then through each
    encoder, records every term as a float and raises NumericError naming
    the step on the first non-finite term or gradient and on a zero-norm
    row in a loss input.  With two encoders and a second CPU
    (``_parallel_cpus``), a worker forked before step-0 validation runs
    encoder II's passes, with the same results bit for bit.

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

    halves = [_Half(enc) for enc in encoders]
    # fork only while this is the process's one thread: eval pools have joined
    if len(halves) == 2 and _parallel_cpus() > 1 and threading.active_count() == 1:
        halves[1] = _Worker(encoders[1])
    ok = False
    try:
        evaluate(0)
        step = 0
        epoch = 0
        while step < cfg.steps:
            for sentences in batch_iter(corpus, cfg.batch_size, cfg.seed, epoch):
                step += 1
                record = _step(halves, sentences, batch_fn, loss_fn, step)
                _check_gradients(encoders, step)
                opt.step()
                log.step_records.append({"step": step, **record})
                if step % cfg.eval_interval == 0 or step == cfg.steps:
                    evaluate(step)
                if step == cfg.steps:
                    break
            epoch += 1
        ok = True
    finally:
        for h in halves:
            h.close(ok)

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

    def batch_fn(sentences):
        view2 = sentences
        if augment_table:
            view2 = [synonym_substitute(s, augment_table, aug_rng, p=AUGMENT_P)
                     for s in sentences]
        return make_batch(vocab, sentences + view2, max_len)

    return _train(encoders, corpus, sts_dev, vocab, cfg, batch_fn,
                  lambda sentences, outs: view_loss(*[v for o in outs for v in o.split(2)]))


def pretrain_single(encoder: Encoder, corpus, sts_dev, vocab, cfg: TrainConfig,
                    augment_table=None):
    """Unsupervised contrastive pretraining of one encoder on dropout-pair
    views; the optional synonym augmenter rewrites the second view."""

    def view_loss(out, out_plus):
        terms = L._named_terms({"nce_i": lambda: L.info_nce(
            out.last_hidden, out_plus.last_hidden, cfg.loss.tau)})
        return {**terms, "total": terms["nce_i"]}

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
        # the own-pair norm term is logged in the ictn column
        terms = L._named_terms({
            "nce_i": lambda: L.info_nce(out.last_hidden, out_plus.last_hidden,
                                        cfg.loss.tau),
            "ictn": lambda: L.l_tn_modulated(out.pooler, out_plus.pooler,
                                             out.last_hidden, out_plus.last_hidden)})
        return {**terms,
                "total": terms["nce_i"] + ad.scale(terms["ictn"], SINGLE_TN_WEIGHT)}

    return _train_on_views([encoder], corpus, sts_dev, vocab, cfg, augment_table,
                           view_loss)

