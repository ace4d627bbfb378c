"""Training objectives: norm-constraint loss, InfoNCE, their cross-encoder
interaction forms, and the combined total with an ablation switch.

The norm-constraint loss ||h - h+|| / (||h|| + ||h+||) penalizes both the
angle and the magnitude mismatch of a positive pair; its (k, t) form
sqrt(1 + k^2 - 2kt) / (1 + k) with k the norm ratio and t the cosine is
minimized exactly at k = t = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import as_tensor
from .errors import ConfigError

TERMS = ("NCE", "ICNCE", "ICTN")
# lower clamp of the modulating cosine, so -log(sim) stays finite
SIM_CLAMP_EPS = 1e-4
# smooths ||hP_i - hP_j+|| at the origin, where its gradient is undefined
NORM_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.05
    enabled_terms: frozenset = frozenset(TERMS)

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not self.enabled_terms:
            raise ConfigError("enabled_terms must be non-empty")
        bad = set(self.enabled_terms) - set(TERMS)
        if bad:
            raise ConfigError(f"unknown loss terms {sorted(bad)}")


class ZeroNormError(ValueError):
    """A loss input with a zero-norm row, which has no direction to compare."""


def _named_terms(thunks):
    """Each loss function of ``thunks``, keyed by trainlog column, called in
    order; a zero-norm row in a term's inputs names its column."""
    terms = {}
    for column, thunk in thunks.items():
        try:
            terms[column] = thunk()
        except ZeroNormError as exc:
            raise ZeroNormError(f"{exc} in {column}") from None
    return terms


def _check_nonzero_rows(t, what):
    norms = np.linalg.norm(np.atleast_2d(t.data), axis=-1)
    if np.any(norms == 0.0):
        raise ZeroNormError(f"{what} has a zero-norm row")


def l_tn(h, h_plus):
    """||h - h+|| / (||h|| + ||h+||); in [0, 1] by the triangle inequality."""
    h, h_plus = as_tensor(h), as_tensor(h_plus)
    _check_nonzero_rows(h, "h")
    _check_nonzero_rows(h_plus, "h_plus")
    return _tn_ratio(h, h_plus)


def _tn_ratio(h, h_plus, axis=None, eps=0.0):
    num = ad.l2_norm(h - h_plus, axis=axis, eps=eps)
    return ad.div(num, ad.l2_norm(h, axis=axis) + ad.l2_norm(h_plus, axis=axis))


def l_tn_kt(k, t):
    """Closed (k, t) form: sqrt(1 + k^2 - 2kt) / (1 + k)."""
    k, t = float(k), float(t)
    if k <= 0:
        raise ValueError(f"norm ratio k must be positive, got {k}")
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"cosine t must lie in [-1, 1], got {t}")
    return math.sqrt(max(1.0 + k * k - 2.0 * k * t, 0.0)) / (1.0 + k)


def _unit_rows(H):
    """Rows of a (batch, d) graph tensor scaled to unit L2 norm."""
    return ad.div(H, ad.reshape(ad.l2_norm(H, axis=-1), (H.shape[0], 1)))


def info_nce(H, H_plus, tau=0.05):
    """Softmax contrastive loss: anchors H, positives diag(H_plus), in-batch
    negatives the off-diagonal rows of H_plus.  Batch-averaged."""
    H, H_plus = as_tensor(H), as_tensor(H_plus)
    if H.data.ndim != 2 or H.shape != H_plus.shape:
        raise ValueError(f"expected matching (batch, d) matrices, got "
                         f"{H.shape} and {H_plus.shape}")
    _check_nonzero_rows(H, "anchor matrix")
    _check_nonzero_rows(H_plus, "positive matrix")
    b = H.shape[0]
    Hn, Hpn = _unit_rows(H), _unit_rows(H_plus)
    S = ad.scale(ad.matmul(Hn, ad.transpose(Hpn, (1, 0))), 1.0 / tau)
    lse = ad.log(ad.sum_(ad.exp(S), axis=1))
    pos = ad.getitem(S, (np.arange(b), np.arange(b)))
    return ad.mean(lse - pos)


def l_tn_modulated(hP_i, hP_j_plus, hL_I, hL_II):
    """Per-sample -log(sim(hL_I, hL_II)) * ||hP_i - hP_j+||/(||hP_i|| + ||hP_j+||),
    batch-averaged.  The modulating cosine comes from the last hidden states;
    the norm ratio from the pooler outputs."""
    hP_i, hP_j_plus = as_tensor(hP_i), as_tensor(hP_j_plus)
    _check_nonzero_rows(hP_i, "pooler output")
    _check_nonzero_rows(hP_j_plus, "positive pooler output")
    sim = ad.rowwise_cosine(as_tensor(hL_I), as_tensor(hL_II))
    mod = -ad.log(ad.clip(sim, SIM_CLAMP_EPS, 1.0))
    return ad.mean(ad.mul(mod, _tn_ratio(hP_i, hP_j_plus, axis=-1, eps=NORM_EPS)))


def ictn(views):
    """Symmetric cross-encoder norm constraint over the EncoderOutputs
    ``views`` = (I, I+, II, II+): L_TN(h_I, h_II+) + L_TN(h_II, h_I+).  Both
    terms are modulated by sim(hL_I, hL_II) of the first views, as the
    paper's formula writes it."""
    o_i, o_i_plus, o_ii, o_ii_plus = views
    term1 = l_tn_modulated(o_i.pooler, o_ii_plus.pooler, o_i.last_hidden, o_ii.last_hidden)
    term2 = l_tn_modulated(o_ii.pooler, o_i_plus.pooler, o_i.last_hidden, o_ii.last_hidden)
    return term1 + term2


def total_loss(views, cfg: LossConfig) -> dict:
    """The enabled terms over the EncoderOutputs ``views`` = (I, I+, II, II+),
    keyed by trainlog column, plus their sum under ``"total"``: per-encoder
    InfoNCE, cross-encoder InfoNCE (InfoNCE across the two encoders' last
    hidden states of the same batch), and the cross-encoder norm
    constraint."""
    hL_I, hL_I_plus, hL_II, hL_II_plus = (o.last_hidden for o in views)
    thunks = {}
    if "NCE" in cfg.enabled_terms:
        thunks["nce_i"] = lambda: info_nce(hL_I, hL_I_plus, cfg.tau)
        thunks["nce_ii"] = lambda: info_nce(hL_II, hL_II_plus, cfg.tau)
    if "ICNCE" in cfg.enabled_terms:
        thunks["icnce"] = lambda: info_nce(hL_I, hL_II, cfg.tau)
    if "ICTN" in cfg.enabled_terms:
        thunks["ictn"] = lambda: ictn(views)
    terms = _named_terms(thunks)
    first, *rest = terms.values()
    terms["total"] = sum(rest, first)
    return terms


def ablation_grid():
    """The 7 non-empty loss subsets, in table order."""
    return [frozenset(c) for n in (1, 2, 3) for c in itertools.combinations(TERMS, n)]
