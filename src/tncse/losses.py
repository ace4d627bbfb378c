"""Training objectives: norm-constraint loss, InfoNCE, their cross-encoder
interaction forms, and the combined total with an ablation switch.

The norm-constraint loss ||h - h+|| / (||h|| + ||h+||) penalizes both the
angle and the magnitude mismatch of a positive pair; its (k, t) form
sqrt(1 + k^2 - 2kt) / (1 + k) with k the norm ratio and t the cosine is
minimized exactly at k = t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .encoder import ViewBundle
from .errors import ConfigError

TERMS = ("NCE", "ICNCE", "ICTN")


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.05
    sim_clamp_eps: float = 1e-4
    norm_eps: float = 1e-12
    enabled_terms: frozenset = frozenset(TERMS)

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not 0 < self.sim_clamp_eps < 1:
            raise ConfigError(f"sim_clamp_eps must be in (0, 1), got {self.sim_clamp_eps}")
        if not self.enabled_terms:
            raise ConfigError("enabled_terms must be non-empty")
        bad = set(self.enabled_terms) - set(TERMS)
        if bad:
            raise ConfigError(f"unknown loss terms {sorted(bad)}")


@dataclass
class LossBundle:
    l_nce_i: Tensor | None
    l_nce_ii: Tensor | None
    l_icnce: Tensor | None
    l_ictn: Tensor | None
    total: Tensor

    def scalars(self):
        def v(t):
            return None if t is None else float(t.item())
        return {"nce_i": v(self.l_nce_i), "nce_ii": v(self.l_nce_ii),
                "icnce": v(self.l_icnce), "ictn": v(self.l_ictn),
                "total": float(self.total.item())}


def _check_nonzero_rows(t, what):
    norms = np.linalg.norm(np.atleast_2d(t.data), axis=-1)
    if np.any(norms == 0.0):
        raise ValueError(f"{what} has a zero-norm row")


def l_tn(h, h_plus):
    """||h - h+|| / (||h|| + ||h+||); in [0, 1] by the triangle inequality."""
    h, h_plus = as_tensor(h), as_tensor(h_plus)
    _check_nonzero_rows(h, "h")
    _check_nonzero_rows(h_plus, "h_plus")
    num = ad.l2_norm(h - h_plus)
    den = ad.l2_norm(h) + ad.l2_norm(h_plus)
    return ad.div(num, den)


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


def icnce(HL_I, HL_II, tau=0.05):
    """InfoNCE across the two encoders' last hidden states of the same batch."""
    return info_nce(HL_I, HL_II, tau)


def l_tn_modulated(hP_i, hP_j_plus, hL_I, hL_II, cfg: LossConfig):
    """Per-sample -log(sim(hL_I, hL_II)) * ||hP_i - hP_j+||/(||hP_i|| + ||hP_j+||),
    batch-averaged.  The modulating cosine comes from the last hidden states;
    the norm ratio from the pooler outputs."""
    hP_i, hP_j_plus = as_tensor(hP_i), as_tensor(hP_j_plus)
    _check_nonzero_rows(hP_i, "pooler output")
    _check_nonzero_rows(hP_j_plus, "positive pooler output")
    sim = ad.rowwise_cosine(as_tensor(hL_I), as_tensor(hL_II))
    mod = -ad.log(ad.clip(sim, cfg.sim_clamp_eps, 1.0))
    num = ad.l2_norm(hP_i - hP_j_plus, axis=-1, eps=cfg.norm_eps)
    den = ad.l2_norm(hP_i, axis=-1) + ad.l2_norm(hP_j_plus, axis=-1)
    return ad.mean(ad.mul(mod, ad.div(num, den)))


def ictn(bundle: ViewBundle, cfg: LossConfig):
    """Symmetric cross-encoder norm constraint:
    L_TN(h_I, h_II+) + L_TN(h_II, h_I+).  Both terms are modulated by
    sim(hL_I, hL_II) of the first views, as the paper's formula writes it."""
    term1 = l_tn_modulated(bundle.hP_I, bundle.hP_II_plus, bundle.hL_I, bundle.hL_II, cfg)
    term2 = l_tn_modulated(bundle.hP_II, bundle.hP_I_plus, bundle.hL_I, bundle.hL_II, cfg)
    return term1 + term2


def total_loss(bundle: ViewBundle, cfg: LossConfig) -> LossBundle:
    """Sum of the enabled terms: per-encoder InfoNCE, cross-encoder InfoNCE,
    and the cross-encoder norm constraint."""
    l_nce_i = l_nce_ii = l_icnce = l_ictn = None
    parts = []
    if "NCE" in cfg.enabled_terms:
        l_nce_i = info_nce(bundle.hL_I, bundle.hL_I_plus, cfg.tau)
        l_nce_ii = info_nce(bundle.hL_II, bundle.hL_II_plus, cfg.tau)
        parts += [l_nce_i, l_nce_ii]
    if "ICNCE" in cfg.enabled_terms:
        l_icnce = icnce(bundle.hL_I, bundle.hL_II, cfg.tau)
        parts.append(l_icnce)
    if "ICTN" in cfg.enabled_terms:
        l_ictn = ictn(bundle, cfg)
        parts.append(l_ictn)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return LossBundle(l_nce_i=l_nce_i, l_nce_ii=l_nce_ii,
                      l_icnce=l_icnce, l_ictn=l_ictn, total=total)


def ablation_grid():
    """The 7 non-empty loss subsets, in table order, preceded by None
    (untrained baseline)."""
    return [None,
            frozenset({"NCE"}), frozenset({"ICNCE"}), frozenset({"ICTN"}),
            frozenset({"NCE", "ICNCE"}), frozenset({"NCE", "ICTN"}),
            frozenset({"ICNCE", "ICTN"}),
            frozenset({"NCE", "ICNCE", "ICTN"})]
