"""End-to-end experiment pipelines shared by the CLI and the test suite.

A pipeline config is a flat, typed key-value mapping with section-prefixed
keys; unknown keys are rejected.  Every run directory receives a
resolved-config snapshot and a flat run-metadata file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from . import checkpoint as ckpt
from .data import build_vocab, load_corpus, load_sts_tsv, load_synonyms
from .encoder import Encoder, EncoderConfig
from .ensemble import EnsembleModel, distill
from .errors import CheckpointError, ConfigError, DataError
from .evaluation import EvalReport, alignment, norm_probe, probe_csv, sts_eval, uniformity
from .losses import LossConfig, ablation_grid
from .training import (TrainConfig, ensemble_embed_fn, pretrain_single,
                       significance_suite, train_single_tn, train_tncse)

DEFAULTS = {
    "seed": 1,
    "data.corpus": "",
    "data.sts_dev": "",
    "data.sts_test": "",
    "data.max_vocab": 0,
    "encoder.max_seq_len": 16,
    "encoder.hidden_dim": 64,
    "encoder.num_layers": 2,
    "encoder.num_heads": 4,
    "encoder.ffn_dim": 256,
    "encoder.dropout_p": 0.1,
    "encoder.pooling_mode": "cls",
    "pretrain.steps": 100,
    "pretrain.lr": 1e-3,
    "pretrain.batch_size": 32,
    "pretrain.eval_interval": 25,
    "pretrain.augment_p": 0.5,
    "train.steps": 300,
    "train.lr": 1e-4,
    "train.batch_size": 32,
    "train.eval_interval": 50,
    "train.single_tn_weight": 0.3,
    "train.encoder_i": "",
    "train.encoder_ii": "",
    "loss.tau": 0.05,
    "loss.sim_clamp_eps": 1e-4,
    "loss.norm_eps": 1e-12,
    "loss.terms": "NCE+ICNCE+ICTN",
    "distill.teacher": "",
    "distill.steps": 300,
    "distill.lr": 1e-3,
    "distill.batch_size": 32,
    "distill.eval_interval": 50,
    "distill.objective": "similarity",
    "eval.checkpoint": "",
    "probe.checkpoint": "",
    "probe.sentences": 100,
    "probe.strip_counts": "",
}


def parse_config_file(path):
    """Flat ``section.key = value`` lines; '#' starts a comment."""
    kv = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        kv[key] = value
    return kv


def resolve_config(file_kv=None, overrides=None, seed=None):
    """Merge defaults <- config file <- --set overrides <- --seed."""
    cfg = dict(DEFAULTS)
    for source in (file_kv or {}, overrides or {}):
        for key, raw in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            default = DEFAULTS[key]
            try:
                if isinstance(default, int):
                    cfg[key] = int(raw)
                elif isinstance(default, float):
                    cfg[key] = float(raw)
                else:
                    cfg[key] = str(raw)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    if seed is not None:
        cfg["seed"] = int(seed)
    return cfg


def write_metadata(path, kv):
    """Flat key-value run metadata file."""
    with open(path, "w", encoding="utf-8") as f:
        for k, v in kv.items():
            f.write(f"{k} {v}\n")


def write_resolved_config(cfg, out_dir):
    with open(os.path.join(out_dir, "resolved-config.txt"), "w", encoding="utf-8") as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")


@dataclass
class Workspace:
    corpus: list
    sts_dev: list
    sts_test: list | None
    vocab: object
    synonyms: dict


def load_workspace(cfg) -> Workspace:
    if not cfg["data.corpus"]:
        raise ConfigError("data.corpus is required")
    if not cfg["data.sts_dev"]:
        raise ConfigError("data.sts_dev is required")
    for key in ("data.corpus", "data.sts_dev", "data.sts_test"):
        if cfg[key] and not os.path.exists(cfg[key]):
            raise ConfigError(f"{key} path {cfg[key]} does not exist")
    corpus = load_corpus(cfg["data.corpus"])
    sts_dev = load_sts_tsv(cfg["data.sts_dev"])
    sts_test = load_sts_tsv(cfg["data.sts_test"]) if cfg["data.sts_test"] else None
    max_vocab = cfg["data.max_vocab"] or None
    vocab = build_vocab(corpus, max_size=max_vocab)
    return Workspace(corpus=corpus, sts_dev=sts_dev, sts_test=sts_test,
                     vocab=vocab, synonyms=load_synonyms())


def encoder_config(cfg, vocab):
    return EncoderConfig(
        vocab_size=len(vocab),
        max_seq_len=cfg["encoder.max_seq_len"],
        hidden_dim=cfg["encoder.hidden_dim"],
        num_layers=cfg["encoder.num_layers"],
        num_heads=cfg["encoder.num_heads"],
        ffn_dim=cfg["encoder.ffn_dim"],
        dropout_p=cfg["encoder.dropout_p"],
        pooling_mode=cfg["encoder.pooling_mode"],
    )


def loss_config(cfg):
    terms = frozenset(t for t in cfg["loss.terms"].split("+") if t)
    return LossConfig(tau=cfg["loss.tau"], sim_clamp_eps=cfg["loss.sim_clamp_eps"],
                      norm_eps=cfg["loss.norm_eps"], enabled_terms=terms)


def train_config(cfg, section, seed, terms=None):
    """The TrainConfig of the ``pretrain``, ``train`` or ``distill`` section;
    ``terms`` replaces the enabled loss terms."""
    lc = loss_config(cfg)
    if terms is not None:
        lc = replace(lc, enabled_terms=terms)
    return TrainConfig(seed=seed, batch_size=cfg[f"{section}.batch_size"],
                       steps=cfg[f"{section}.steps"],
                       learning_rate=cfg[f"{section}.lr"],
                       eval_interval=cfg[f"{section}.eval_interval"], loss=lc,
                       augment_p=cfg["pretrain.augment_p"],
                       single_tn_weight=cfg["train.single_tn_weight"])


def _encoder_seed(root_seed, which):
    return root_seed * 7919 + which


def new_encoder(cfg, ws, root_seed, which, name):
    return Encoder(encoder_config(cfg, ws.vocab), _encoder_seed(root_seed, which),
                   name=name, vocab_hash=ws.vocab.content_hash())


# -- pipelines -------------------------------------------------------------

def run_pretrain_pair(cfg, ws, out_dir, root_seed=None):
    """Pretrain encoders I and II independently and checkpoint them."""
    seed = root_seed if root_seed is not None else cfg["seed"]
    prefixes = []
    for which, name in ((1, "I"), (2, "II")):
        enc = new_encoder(cfg, ws, seed, which, name)
        log = pretrain_single(enc, ws.corpus, ws.sts_dev, ws.vocab,
                              train_config(cfg, "pretrain", seed + which - 1),
                              augment_table=ws.synonyms)
        prefix = os.path.join(out_dir, f"encoder_{name}")
        ckpt.save_encoder(enc, prefix)
        with open(prefix + ".trainlog.csv", "w", encoding="utf-8") as f:
            f.write(log.to_csv())
        prefixes.append(prefix)
    return prefixes


def run_tncse(cfg, ws, prefix_i, prefix_ii, out_dir, terms=None, root_seed=None):
    """Joint dual-encoder training from two pretrained checkpoints."""
    seed = root_seed if root_seed is not None else cfg["seed"]
    enc_i = load_encoder_checked(prefix_i, ws)
    enc_ii = load_encoder_checked(prefix_ii, ws)
    log = train_tncse(enc_i, enc_ii, ws.corpus, ws.sts_dev, ws.vocab,
                      train_config(cfg, "train", seed, terms))
    out_i = os.path.join(out_dir, "encoder_I")
    out_ii = os.path.join(out_dir, "encoder_II")
    ckpt.save_encoder(enc_i, out_i)
    ckpt.save_encoder(enc_ii, out_ii)
    ckpt.save_ensemble_manifest(["encoder_I", "encoder_II"],
                                os.path.join(out_dir, "ensemble.manifest"))
    with open(os.path.join(out_dir, "trainlog.csv"), "w", encoding="utf-8") as f:
        f.write(log.to_csv())
    return (enc_i, enc_ii), log


def load_encoder_checked(prefix, ws):
    enc = ckpt.load_encoder(prefix)
    if enc.vocab_hash is not None and enc.vocab_hash != ws.vocab.content_hash():
        raise DataError(f"checkpoint {prefix} was trained on a different vocabulary")
    return enc


def load_model(path_or_prefix, ws):
    """Load an encoder checkpoint or an ensemble manifest, named by its
    prefix or by its ``.manifest`` path."""
    manifest = path_or_prefix
    if not (manifest.endswith(".manifest") and os.path.exists(manifest)):
        manifest = path_or_prefix + ".manifest"
    if not os.path.exists(manifest):
        raise CheckpointError(f"no checkpoint at {path_or_prefix}")
    with open(manifest, encoding="utf-8") as f:
        head = f.read(64)
    if "kind ensemble" in head:
        members = ckpt.load_ensemble_manifest(manifest)
    else:
        members = [manifest[:-len(".manifest")]]
    return EnsembleModel([load_encoder_checked(m, ws) for m in members])


def run_eval(cfg, ws, model: EnsembleModel):
    embed = ensemble_embed_fn(model.encoders, ws.vocab)
    report = EvalReport()
    report.per_dataset["dev"] = sts_eval(embed, ws.sts_dev)
    if ws.sts_test:
        report.per_dataset["test"] = sts_eval(embed, ws.sts_test)
    positives = [p for p in ws.sts_dev if p.gold_score >= 4.0]
    if positives:
        A = embed([p.sentence_a for p in positives])
        B = embed([p.sentence_b for p in positives])
        report.alignment = alignment(A, B)
    sents = list(dict.fromkeys(p.sentence_a for p in ws.sts_dev))
    if len(sents) >= 2:
        report.uniformity = uniformity(embed(sents))
    return report


def run_ablation(cfg, ws, out_dir):
    """Table rows: untrained dual baseline plus the 7 loss subsets."""
    pre_dir = os.path.join(out_dir, "pretrained")
    os.makedirs(pre_dir, exist_ok=True)
    prefix_i, prefix_ii = run_pretrain_pair(cfg, ws, pre_dir)
    rows = []
    for subset in ablation_grid():
        if subset is None:
            enc_i = load_encoder_checked(prefix_i, ws)
            enc_ii = load_encoder_checked(prefix_ii, ws)
            rho = sts_eval(ensemble_embed_fn([enc_i, enc_ii], ws.vocab), ws.sts_dev)
            rows.append(("none", rho))
            continue
        label = "+".join(sorted(subset))
        run_dir = os.path.join(out_dir, f"subset_{label.replace('+', '_')}")
        os.makedirs(run_dir, exist_ok=True)
        _, log = run_tncse(cfg, ws, prefix_i, prefix_ii, run_dir, terms=subset)
        rows.append((label, log.best_spearman))
    csv = "loss_terms,val_spearman\n" + "".join(f"{k},{r:.6f}\n" for k, r in rows)
    with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as f:
        f.write(csv)
    return rows


def run_significance(cfg, ws, out_dir, seeds=(1, 2, 3, 4, 5)):
    """Full pipeline per seed; rows plus mean/std/min/max summary."""

    def one_seed(seed):
        run_dir = os.path.join(out_dir, f"seed_{seed}")
        os.makedirs(run_dir, exist_ok=True)
        prefix_i, prefix_ii = run_pretrain_pair(cfg, ws, run_dir, root_seed=seed)
        _, log = run_tncse(cfg, ws, prefix_i, prefix_ii, run_dir, root_seed=seed)
        return log.best_spearman

    rows, summary = significance_suite(one_seed, seeds)
    lines = ["seed,val_spearman"]
    lines += [f"{r.seed},{r.spearman:.6f}" for r in rows]
    lines += [f"mean,{summary['mean']:.6f}", f"std,{summary['std']:.6f}",
              f"min,{summary['min']:.6f}", f"max,{summary['max']:.6f}"]
    with open(os.path.join(out_dir, "significance.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return rows, summary


def run_distill(cfg, ws, out_dir):
    if not cfg["distill.teacher"]:
        raise ConfigError("distill.teacher (ensemble manifest path) is required")
    dcfg = train_config(cfg, "distill", cfg["seed"])
    teacher = load_model(cfg["distill.teacher"], ws)
    student = new_encoder(cfg, ws, cfg["seed"], 3, "D")
    log = distill(teacher, student, ws.corpus, ws.sts_dev, ws.vocab, dcfg,
                  objective=cfg["distill.objective"])
    prefix = os.path.join(out_dir, "student")
    ckpt.save_encoder(student, prefix)
    with open(os.path.join(out_dir, "trainlog.csv"), "w", encoding="utf-8") as f:
        f.write(log.train_log.to_csv())
    return student, log


def run_norm_probe(cfg, ws, out_dir):
    if not cfg["probe.checkpoint"]:
        raise ConfigError("probe.checkpoint is required")
    enc = load_encoder_checked(cfg["probe.checkpoint"], ws)
    n_sent = cfg["probe.sentences"]
    sents = list(dict.fromkeys(ws.corpus))[:n_sent]
    raw = cfg["probe.strip_counts"]
    try:
        strip_counts = ([int(s) for s in raw.split(",")] if raw
                        else list(range(0, 2 * enc.config.num_layers + 1)))
    except ValueError:
        raise ConfigError(f"probe.strip_counts: cannot parse {raw!r}") from None
    rows = norm_probe(enc, sents, strip_counts, ws.vocab)
    with open(os.path.join(out_dir, "norm_probe.csv"), "w", encoding="utf-8") as f:
        f.write(probe_csv(rows))
    return rows
