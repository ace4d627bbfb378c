"""End-to-end experiment pipelines shared by the CLI and the test suite.

A pipeline config is a flat, typed key-value mapping with section-prefixed
keys; unknown keys are rejected.  Every run directory receives a
resolved-config snapshot and a flat run-metadata file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from .data import (build_vocab, load_corpus, load_sts_tsv, load_synonyms,
                   make_output_dir, read_file, write_file)
from .encoder import Encoder, EncoderConfig, _check_same_vocab
from .ensemble import EnsembleModel, distill
from .errors import ConfigError, TncseError
from .evaluation import EvalReport, alignment, norm_probe, probe_csv, sts_eval, uniformity
from .losses import LossConfig, ablation_grid
from .training import (TrainConfig, ensemble_embed_fn, pretrain_single,
                       train_single_tn, train_tncse)

DEFAULTS = {
    "seed": 1,
    "data.corpus": "",
    "data.sts_dev": "",
    "data.sts_test": "",
    "encoder.max_seq_len": 16,
    "encoder.hidden_dim": 64,
    "encoder.num_layers": 2,
    "encoder.num_heads": 4,
    "encoder.ffn_dim": 256,
    "encoder.dropout_p": 0.1,
    "pretrain.steps": 100,
    "pretrain.lr": 1e-3,
    "pretrain.batch_size": 32,
    "pretrain.eval_interval": 25,
    "train.steps": 300,
    "train.lr": 1e-4,
    "train.batch_size": 32,
    "train.eval_interval": 50,
    "train.encoder_i": "",
    "train.encoder_ii": "",
    "loss.tau": 0.05,
    "loss.terms": "NCE+ICNCE+ICTN",
    "distill.teacher": "",
    "distill.steps": 300,
    "distill.lr": 1e-3,
    "distill.batch_size": 32,
    "distill.eval_interval": 50,
    "eval.checkpoint": "",
    "probe.checkpoint": "",
}


def parse_config_file(path):
    """Flat ``section.key = value`` lines; '#' starts a comment."""
    kv = {}
    for lineno, line in enumerate(read_file(path, ConfigError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        kv[key] = value
    return kv


def resolve_config(file_kv=None, overrides=None, seed=None):
    """Merge defaults <- config file <- --set overrides <- --seed, then check
    every setting value, so a bad one fails before a command writes or trains."""
    cfg = dict(DEFAULTS)
    for source in (file_kv or {}, overrides or {}):
        for key, raw in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                cfg[key] = type(DEFAULTS[key])(raw)   # int, float or str
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from None
    if seed is not None:
        cfg["seed"] = int(seed)
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    encoder_config(cfg, ())
    for section in ("pretrain", "train", "distill"):
        train_config(cfg, section, cfg["seed"])
    return cfg


def _write_table(path, header, rows):
    """A ``label,value`` CSV with values to six decimals."""
    write_file(path, header + "\n" + "".join(f"{k},{v:.6f}\n" for k, v in rows))


def write_metadata(path, kv):
    """Flat key-value run metadata file."""
    write_file(path, "".join(f"{k} {v}\n" for k, v in kv.items()))


def write_resolved_config(cfg, out_dir):
    write_file(os.path.join(out_dir, "resolved-config.txt"),
               "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg)))


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
        if cfg[key] and not os.path.isfile(cfg[key]):
            raise ConfigError(f"{key} path {cfg[key]} is not an existing file")
    corpus = load_corpus(cfg["data.corpus"])
    sts_dev = load_sts_tsv(cfg["data.sts_dev"])
    sts_test = load_sts_tsv(cfg["data.sts_test"]) if cfg["data.sts_test"] else None
    return Workspace(corpus=corpus, sts_dev=sts_dev, sts_test=sts_test,
                     vocab=build_vocab(corpus), synonyms=load_synonyms())


def encoder_config(cfg, vocab):
    """EncoderConfig from the ``encoder.*`` keys, each named after its field."""
    fields = {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("encoder.")}
    return EncoderConfig(vocab_size=len(vocab), **fields)


def loss_config(cfg):
    terms = frozenset(t for t in cfg["loss.terms"].split("+") if t)
    return LossConfig(tau=cfg["loss.tau"], enabled_terms=terms)


def train_config(cfg, section, seed):
    """The TrainConfig of the ``pretrain``, ``train`` or ``distill`` section."""
    return TrainConfig(seed=seed, batch_size=cfg[f"{section}.batch_size"],
                       steps=cfg[f"{section}.steps"],
                       learning_rate=cfg[f"{section}.lr"],
                       eval_interval=cfg[f"{section}.eval_interval"],
                       loss=loss_config(cfg))


def new_encoder(cfg, ws, root_seed, which, name):
    return Encoder(encoder_config(cfg, ws.vocab), root_seed * 7919 + which,
                   name=name, vocab_hash=ws.vocab.content_hash())


# -- pipelines -------------------------------------------------------------

def _map_runs(kind, fn, jobs):
    """Call ``fn(*args)`` for each ``(label, args)`` job in table order and
    return the results.  A failure is re-raised naming its run; a TncseError
    keeps its class, and so its CLI exit status."""
    results = []
    for label, args in jobs:
        try:
            results.append(fn(*args))
        except Exception as exc:
            cls = type(exc) if isinstance(exc, TncseError) else TncseError
            raise cls(f"{kind} run {label} failed: {exc}") from exc
    return results


def _make_run_dirs(kind, run_dirs):
    """Make every ``(label, directory)`` run directory before any run trains,
    so a blocked one fails first, with the error its first checkpoint,
    ``encoder_I``, would raise."""
    _map_runs(kind, make_output_dir,
              [(label, (os.path.join(d, "encoder_I.bin"),)) for label, d in run_dirs])


def run_pretrain_pair(cfg, ws, out_dir):
    """Pretrain encoders I and II independently and checkpoint them."""
    seed = cfg["seed"]

    def one_encoder(which, name):
        enc = new_encoder(cfg, ws, seed, which, name)
        log = pretrain_single(enc, ws.corpus, ws.sts_dev, ws.vocab,
                              train_config(cfg, "pretrain", seed + which - 1),
                              augment_table=ws.synonyms)
        prefix = os.path.join(out_dir, f"encoder_{name}")
        ckpt.save_encoder(enc, prefix)
        write_file(prefix + ".trainlog.csv", log.to_csv())
        return prefix

    return _map_runs("pretrain", one_encoder, [("I", (1, "I")), ("II", (2, "II"))])


def run_tncse(cfg, ws, prefix_i, prefix_ii, out_dir):
    """Joint dual-encoder training from two pretrained checkpoints."""
    enc_i = load_encoder_checked(prefix_i, ws)
    enc_ii = load_encoder_checked(prefix_ii, ws)
    log = train_tncse(enc_i, enc_ii, ws.corpus, ws.sts_dev, ws.vocab,
                      train_config(cfg, "train", cfg["seed"]))
    for enc, name in ((enc_i, "encoder_I"), (enc_ii, "encoder_II")):
        ckpt.save_encoder(enc, os.path.join(out_dir, name))
    ckpt.save_ensemble_manifest(["encoder_I", "encoder_II"],
                                os.path.join(out_dir, "ensemble.manifest"))
    write_file(os.path.join(out_dir, "trainlog.csv"), log.to_csv())
    return (enc_i, enc_ii), log


def load_encoder_checked(prefix, ws):
    enc = ckpt.load_encoder(prefix)
    _check_same_vocab((enc.vocab_hash, ws.vocab.content_hash()),
                      f"checkpoint {prefix} and the workspace")
    return enc


def load_model(path_or_prefix, ws):
    """The encoder or ensemble that a prefix or a ``.manifest`` path names."""
    return EnsembleModel([load_encoder_checked(m, ws)
                          for m in ckpt.model_members(path_or_prefix)])


def run_eval(cfg, ws, model: EnsembleModel):
    """STS Spearman, alignment and uniformity from one embedding of each
    distinct sentence."""
    embed = ensemble_embed_fn(model.encoders, ws.vocab)
    report = EvalReport()
    report.per_dataset["dev"] = sts_eval(embed, ws.sts_dev)
    if ws.sts_test:
        report.per_dataset["test"] = sts_eval(embed, ws.sts_test)
    positives = [p for p in ws.sts_dev if p.gold_score >= 4.0]
    if positives:
        report.alignment = alignment(embed([p.sentence_a for p in positives]),
                                     embed([p.sentence_b for p in positives]))
    sents_a = list(dict.fromkeys(p.sentence_a for p in ws.sts_dev))
    if len(sents_a) >= 2:
        report.uniformity = uniformity(embed(sents_a))
    return report


def run_ablation(cfg, ws, out_dir):
    """Table rows: untrained dual baseline plus the 7 loss subsets.  The
    baseline is the step-0 validation of the first subset's run, which scores
    the two pretrained checkpoints before any update."""
    labels = ["+".join(sorted(subset)) for subset in ablation_grid()]
    run_dirs = {"pretrained": os.path.join(out_dir, "pretrained")}
    run_dirs.update((label, os.path.join(out_dir, f"subset_{label.replace('+', '_')}"))
                    for label in labels)
    _make_run_dirs("ablation", run_dirs.items())
    prefix_i, prefix_ii = run_pretrain_pair(cfg, ws, run_dirs["pretrained"])

    def one_subset(label):
        return run_tncse({**cfg, "loss.terms": label}, ws, prefix_i, prefix_ii,
                         run_dirs[label])[1]

    logs = _map_runs("ablation", one_subset, [(label, (label,)) for label in labels])
    rows = [("none", logs[0].evals[0][1])]
    rows += [(label, log.best_spearman) for label, log in zip(labels, logs)]
    _write_table(os.path.join(out_dir, "ablation.csv"), "loss_terms,val_spearman", rows)
    return rows


def run_significance(cfg, ws, out_dir):
    """Full pipeline for each of seeds 1-5; ``(seed, rho)`` rows plus a
    mean/std/min/max summary."""
    seeds = range(1, 6)
    jobs = [(f"seed {s}", (s, os.path.join(out_dir, f"seed_{s}"))) for s in seeds]
    _make_run_dirs("significance", [(label, run_dir) for label, (_, run_dir) in jobs])

    def one_seed(seed, run_dir):
        seed_cfg = {**cfg, "seed": seed}
        prefix_i, prefix_ii = run_pretrain_pair(seed_cfg, ws, run_dir)
        _, log = run_tncse(seed_cfg, ws, prefix_i, prefix_ii, run_dir)
        return float(log.best_spearman)

    rhos = _map_runs("significance", one_seed, jobs)
    rows = list(zip(seeds, rhos))
    values = np.array(rhos)
    summary = {"mean": float(values.mean()), "std": float(values.std()),
               "min": float(values.min()), "max": float(values.max())}
    _write_table(os.path.join(out_dir, "significance.csv"), "seed,val_spearman",
                 rows + list(summary.items()))
    return rows, summary


def run_distill(cfg, ws, out_dir):
    if not cfg["distill.teacher"]:
        raise ConfigError("distill.teacher (ensemble manifest path) is required")
    dcfg = train_config(cfg, "distill", cfg["seed"])
    teacher = load_model(cfg["distill.teacher"], ws)
    student = new_encoder(cfg, ws, cfg["seed"], 3, "D")
    log = distill(teacher, student, ws.corpus, ws.sts_dev, ws.vocab, dcfg)
    ckpt.save_encoder(student, os.path.join(out_dir, "student"))
    write_file(os.path.join(out_dir, "trainlog.csv"), log.train_log.to_csv())
    return student, log


def run_single_tn(cfg, ws, out_dir):
    """The single-encoder norm-constraint variant under the pretrain section."""
    enc = new_encoder(cfg, ws, cfg["seed"], 1, "S")
    log = train_single_tn(enc, ws.corpus, ws.sts_dev, ws.vocab,
                          train_config(cfg, "pretrain", cfg["seed"]),
                          augment_table=ws.synonyms)
    ckpt.save_encoder(enc, os.path.join(out_dir, "encoder_S"))
    write_file(os.path.join(out_dir, "trainlog.csv"), log.to_csv())
    return enc, log


def run_norm_probe(cfg, ws, out_dir):
    if not cfg["probe.checkpoint"]:
        raise ConfigError("probe.checkpoint is required")
    enc = load_encoder_checked(cfg["probe.checkpoint"], ws)
    rows = norm_probe(enc, ws.corpus, ws.vocab)
    write_file(os.path.join(out_dir, "norm_probe.csv"), probe_csv(rows))
    return rows
