"""The finite-difference gradient oracle and its named checks over every
differentiable primitive and every loss, for the grad-check command and the
test suites.

Each case runs ``n_trials`` random float64 configurations away from the
declared singular neighborhoods and fails if the relative error of any
reverse-mode gradient exceeds the tolerance.  All checks run in float64;
float32 round-off swamps the O(h^2) truncation error of the central stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import losses as L
from .autodiff import RngStreams, Tensor
from .encoder import Encoder, EncoderConfig, EncoderOutput


def finite_difference_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar-valued ``f`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_gradients(f, inputs, h=1e-6, rtol=1e-6):
    """Compare reverse-mode and finite-difference gradients of ``f``.

    ``f`` maps a tuple of Tensors to a scalar Tensor.  ``inputs`` is a list
    of float64 arrays; every one is treated as differentiable.  Returns the
    worst relative error over all inputs.
    """
    tensors = [Tensor(np.asarray(x, dtype=np.float64).copy(), requires_grad=True)
               for x in inputs]
    out = f(*tensors)
    out.backward()

    worst = 0.0
    for k, t in enumerate(tensors):
        def f_k(xk, k=k):
            args = [Tensor(t2.data) for t2 in tensors]
            args[k] = Tensor(np.asarray(xk, dtype=np.float64))
            return f(*args).item()

        num = finite_difference_grad(f_k, t.data, h=h)
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = max(np.linalg.norm(num), np.linalg.norm(ana), 1e-8)
        err = np.linalg.norm(ana - num) / denom
        worst = max(worst, float(err))
    if worst >= rtol:
        raise AssertionError(f"gradient check failed: relative error {worst:.3e} "
                             f">= tolerance {rtol:.1e}")
    return worst


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    detail: str = ""


def _primitive_cases():
    def rnd(r, *s):
        return r.standard_normal(s)

    def weighted(t, shape):
        return ad.sum_(ad.mul(t, Tensor(np.arange(float(np.prod(shape))).reshape(shape))))

    def clip_inputs(r):
        # half inside (-0.5, 0.5), half outside, none within 0.1 of a bound
        inside = 0.8 * r.random(6) - 0.4
        outside = (0.6 + r.random(6)) * r.choice([-1.0, 1.0], 6)
        return [np.concatenate([inside, outside]).reshape(3, 4)]

    return {
        "add": (lambda a, b: ad.sum_(ad.add(a, b)),
                lambda r: [rnd(r, 3, 4), rnd(r, 4)]),
        "mul": (lambda a, b: ad.sum_(ad.mul(a, b)),
                lambda r: [rnd(r, 3, 4), rnd(r, 3, 4)]),
        "div": (lambda a, b: ad.sum_(ad.div(a, b)),
                lambda r: [rnd(r, 3, 4), 1.5 + r.random((3, 4))]),
        "scale": (lambda a: ad.sum_(ad.scale(a, 2.3)), lambda r: [rnd(r, 3, 4)]),
        "matmul": (lambda a, b: ad.sum_(ad.matmul(a, b)),
                   lambda r: [rnd(r, 4, 3), rnd(r, 3, 5)]),
        "matmul_batched": (lambda a, b: ad.sum_(ad.matmul(a, b)),
                           lambda r: [rnd(r, 2, 3, 4), rnd(r, 2, 4, 3)]),
        "matmul_batched_4d": (lambda a, b: ad.sum_(ad.matmul(a, b)),
                              lambda r: [rnd(r, 2, 3, 4, 3), rnd(r, 2, 3, 3, 2)]),
        # as the projections call it (3-D input) and as the pooler does (2-D),
        # both below linear's 16-row floor, and at 16 rows, which run unpadded
        "linear": (lambda x, w, b: weighted(ad.linear(x, w, b), (2, 3, 5)),
                   lambda r: [rnd(r, 2, 3, 4), rnd(r, 4, 5), rnd(r, 5)]),
        "linear_2d": (lambda x, w, b: weighted(ad.linear(x, w, b), (3, 5)),
                      lambda r: [rnd(r, 3, 4), rnd(r, 4, 5), rnd(r, 5)]),
        "linear_16_rows": (lambda x, w, b: weighted(ad.linear(x, w, b), (4, 4, 5)),
                           lambda r: [rnd(r, 4, 4, 3), rnd(r, 3, 5), rnd(r, 5)]),
        "tanh": (lambda a: ad.sum_(ad.tanh(a)), lambda r: [rnd(r, 3, 4)]),
        "exp": (lambda a: ad.sum_(ad.exp(a)), lambda r: [rnd(r, 3, 4)]),
        "log": (lambda a: ad.sum_(ad.log(a)), lambda r: [0.5 + r.random((3, 4))]),
        "sqrt": (lambda a: ad.sum_(ad.sqrt(a)), lambda r: [0.5 + r.random((3, 4))]),
        "clip": (lambda a: weighted(ad.clip(a, -0.5, 0.5), (3, 4)), clip_inputs),
        "reshape": (lambda a: weighted(ad.reshape(a, (4, 3)), (4, 3)),
                    lambda r: [rnd(r, 3, 4)]),
        "transpose": (lambda a: weighted(ad.transpose(a, (1, 2, 0)), (3, 4, 2)),
                      lambda r: [rnd(r, 2, 3, 4)]),
        "getitem": (lambda a: weighted(ad.getitem(a, (np.array([0, 2, 2]), slice(1, 3))),
                                       (3, 2)),
                    lambda r: [rnd(r, 3, 4)]),
        # the encoder's [CLS] pooling key
        "getitem_cls": (lambda a: weighted(ad.getitem(a, (slice(None), 0)), (3,)),
                        lambda r: [rnd(r, 3, 4)]),
        "softmax": (lambda a: weighted(ad.softmax(a), (3, 4)), lambda r: [rnd(r, 3, 4)]),
        # an odd width takes the odd branch of the max tree; one entry masked
        "softmax_masked_odd": (
            lambda a: weighted(ad.softmax(a, np.array([0, 0, 0, -1e9, 0])), (2, 3, 5)),
            lambda r: [rnd(r, 2, 3, 5)]),
        "layer_norm": (lambda x, g, b: weighted(ad.layer_norm(x, g, b), (3, 6)),
                       lambda r: [rnd(r, 3, 6), 1.0 + 0.1 * rnd(r, 6), 0.1 * rnd(r, 6)]),
        "embedding": (lambda t: weighted(ad.embedding(t, np.array([0, 2, 1, 2])), (4, 3)),
                      lambda r: [rnd(r, 3, 3)]),
        "sum_": (lambda a: weighted(ad.sum_(a, axis=0), (3,)), lambda r: [rnd(r, 4, 3)]),
        "mean": (lambda a: weighted(ad.mean(ad.mul(a, a), axis=1), (4,)),
                 lambda r: [rnd(r, 4, 3)]),
        "mean_all": (lambda a: ad.mean(ad.mul(a, a)), lambda r: [rnd(r, 5, 2)]),
        "l2_norm": (lambda a: ad.sum_(ad.l2_norm(a, axis=-1)),
                    lambda r: [1.0 + r.random((3, 4))]),
        "rowwise_cosine": (lambda a, b: weighted(ad.rowwise_cosine(a, b), (3,)),
                           lambda r: [rnd(r, 3, 4), rnd(r, 3, 4)]),
        "dropout": (lambda a: ad.sum_(ad.dropout(a, 0.3, RngStreams(7).get("d"))),
                    lambda r: [rnd(r, 4, 5)]),
    }


def _loss_cases():
    def view_mats(r):
        return [0.5 + r.random((3, 4)) for _ in range(8)]

    def views(*mats):  # EncoderOutputs (I, I+, II, II+): four h^L, then four h^P
        return [EncoderOutput(hL, hP) for hL, hP in zip(mats[:4], mats[4:])]

    return {
        "loss_l_tn": (lambda h, hp: L.l_tn(h, hp),
                      lambda r: [1.0 + r.random(5), -1.0 - r.random(5)]),
        "loss_info_nce": (lambda H, Hp: L.info_nce(H, Hp, tau=0.5),
                          lambda r: [r.standard_normal((4, 5)) + 0.2,
                                     r.standard_normal((4, 5)) + 0.2]),
        "loss_l_tn_modulated": (
            L.l_tn_modulated,
            lambda r: [0.5 + r.random((3, 4)) for _ in range(4)]),
        "loss_ictn": (lambda *ts: L.ictn(views(*ts)), view_mats),
        "loss_total_loss": (
            lambda *ts: L.total_loss(views(*ts), L.LossConfig())["total"],
            view_mats),
    }


def _attention_composite_case(trial, num_layers=1, dropout_p=0.0):
    """FD-check the full encoder forward (attention composite included)
    against a handful of its parameters.  It runs in train mode, the one that
    records a tape, each forward on a fresh stream, so every evaluation draws
    the same masks; at ``dropout_p=0`` it draws none and equals eval mode."""
    rng = np.random.default_rng(5000 + trial)
    config = EncoderConfig(vocab_size=12, max_seq_len=6, hidden_dim=8,
                           num_layers=num_layers, num_heads=2, ffn_dim=12,
                           dropout_p=dropout_p)
    enc = Encoder(config, seed=trial, name="g").astype(np.float64)
    # Re-draw the weights at a larger scale: at init-scale the attention
    # scores are ~0, softmax is near-uniform, and the true q/k gradients sit
    # below finite-difference resolution.
    for key, t in enc.params.items():
        if key.endswith(("_w", "emb")):
            t.data = rng.standard_normal(t.shape) * 0.4
    ids = rng.integers(4, 12, size=(2, 6))
    ids[:, 0] = 1
    ids[0, 4:] = 0   # padding
    weights = rng.standard_normal((2, 8))
    # one parameter per trial, in turn; no key bias, whose exact gradient is 0
    names = [f"layer{num_layers - 1}.{n}" for n in ("q_w", "k_w", "v_w", "o_w", "ln1_g",
                                                     "ffn1_w", "ffn2_w", "ln2_b")]
    names += ["layer0.ffn1_b", "pooler_w", "tok_emb", "pos_emb"]
    name = names[trial % len(names)]

    def f(p):
        old = enc.params[name]
        enc.params[name] = p
        try:
            enc.streams = RngStreams(enc.seed)
            out = enc.encode(ids, train_mode=True)
            return ad.sum_(ad.mul(ad.add(out.last_hidden, out.pooler),
                                  Tensor(weights)))
        finally:
            enc.params[name] = old

    return f, [enc.params[name].data.copy()]


def _check_trials(name, trials, rtol):
    """One CheckResult over ``trials``, an iterable of (f, inputs); stops at
    the first failing trial."""
    worst = 0.0
    for f, inputs in trials:
        try:
            worst = max(worst, check_gradients(f, inputs, rtol=rtol))
        except AssertionError as exc:
            return CheckResult(name, False, worst, str(exc))
    return CheckResult(name, True, worst)


def run_gradient_suite(n_trials=20, rtol=1e-6):
    """Run every named check; returns a list of CheckResult."""
    results = []
    cases = {**_primitive_cases(), **_loss_cases()}
    for name, (f, make) in sorted(cases.items()):
        trials = ((f, make(np.random.default_rng(10_000 + 37 * trial)))
                  for trial in range(n_trials))
        results.append(_check_trials(name, trials, rtol))
    for suffix, kw in (("", {}), ("_2layer", {"num_layers": 2}),
                       ("_2layer_dropout", {"num_layers": 2, "dropout_p": 0.1})):
        trials = (_attention_composite_case(trial, **kw) for trial in range(n_trials))
        results.append(_check_trials(f"encoder_attention_composite{suffix}", trials, rtol))
    return results
