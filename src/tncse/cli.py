"""Command-line entry point tying the pipeline stages into reproducible
experiments.

Every command resolves its config (defaults <- --config file <- --set
overrides <- --seed), runs in a dedicated output directory, and writes a
resolved-config snapshot plus a flat run-metadata file.  Exit classes:
success / config-error / data-error / checkpoint-error / numeric-error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from . import checkpoint as ckpt
from . import pipeline as pl
from .data import save_corpus, save_sts_tsv, synth_corpus
from .errors import ConfigError, TncseError
from .gradsuite import run_gradient_suite

EXIT_CODES = {"success": 0, "config-error": 2, "data-error": 3,
              "checkpoint-error": 4, "numeric-error": 5, "error": 1}

OUT_ROOT_ENV = "TNCSE_OUT_ROOT"


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="tncse",
                                     description="Norm-constrained contrastive "
                                                 "sentence embeddings, desk scale")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ["gen-data", "pretrain", "train", "train-single-tn", "distill",
                "eval", "norm-probe", "ablate", "significance", "grad-check"]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
    return parser.parse_args(argv)


def _resolve(args):
    file_kv = pl.parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return pl.resolve_config(file_kv, overrides, seed=args.seed)


def _out_dir(args):
    if args.out:
        path = args.out
        if os.path.exists(path) and not os.path.isdir(path):
            raise ConfigError(f"output path {path} is not a directory")
        if os.path.isdir(path) and os.listdir(path) and not args.force:
            raise ConfigError(f"output directory {path} is not empty "
                              f"(use --force to overwrite)")
    else:
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = os.path.join(root, f"{args.command}-{stamp}")
        n = 0
        while os.path.exists(path):
            n += 1
            path = os.path.join(root, f"{args.command}-{stamp}-{n}")
    os.makedirs(path, exist_ok=True)
    return path


def _finish(cfg, out_dir, extra):
    pl.write_resolved_config(cfg, out_dir)
    meta = {"command": extra.pop("command"), "seed": cfg["seed"],
            "precision": "float32", "version": __version__}
    meta.update(extra)
    pl.write_metadata(os.path.join(out_dir, "run-metadata.txt"), meta)


def _cmd_gen_data(args, cfg, out_dir):
    corpus, dev, test = synth_corpus(cfg["seed"])
    save_corpus(corpus, os.path.join(out_dir, "corpus.txt"))
    save_sts_tsv(dev, os.path.join(out_dir, "sts_dev.tsv"))
    save_sts_tsv(test, os.path.join(out_dir, "sts_test.tsv"))
    _finish(cfg, out_dir, {"command": "gen-data", "sentences": len(corpus),
                           "pairs": len(dev)})
    print(f"wrote corpus ({len(corpus)} sentences) and STS sets to {out_dir}")
    return 0


def _cmd_pretrain(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    ws.vocab.save(os.path.join(out_dir, "vocab.txt"))
    prefix_i, prefix_ii = pl.run_pretrain_pair(cfg, ws, out_dir)
    _finish(cfg, out_dir, {"command": "pretrain",
                           "encoder_i": prefix_i, "encoder_ii": prefix_ii})
    print(f"pretrained encoder pair saved under {out_dir}")
    return 0


def _cmd_train(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    if not cfg["train.encoder_i"] or not cfg["train.encoder_ii"]:
        raise ConfigError("train.encoder_i and train.encoder_ii checkpoint "
                          "prefixes are required")
    _, log = pl.run_tncse(cfg, ws, cfg["train.encoder_i"], cfg["train.encoder_ii"],
                          out_dir)
    _finish(cfg, out_dir, {"command": "train", "best_step": log.best_step,
                           "best_val_spearman": f"{log.best_spearman:.6f}"})
    print(f"best validation Spearman {log.best_spearman:.4f} "
          f"at step {log.best_step}; artifacts in {out_dir}")
    return 0


def _cmd_train_single_tn(args, cfg, out_dir):
    from .training import train_single_tn
    ws = pl.load_workspace(cfg)
    enc = pl.new_encoder(cfg, ws, cfg["seed"], 1, "S")
    tcfg = pl.train_config(cfg, "pretrain", cfg["seed"])
    log = train_single_tn(enc, ws.corpus, ws.sts_dev, ws.vocab, tcfg,
                          augment_table=ws.synonyms)
    prefix = os.path.join(out_dir, "encoder_S")
    ckpt.save_encoder(enc, prefix)
    with open(os.path.join(out_dir, "trainlog.csv"), "w", encoding="utf-8") as f:
        f.write(log.to_csv())
    _finish(cfg, out_dir, {"command": "train-single-tn", "best_step": log.best_step,
                           "best_val_spearman": f"{log.best_spearman:.6f}"})
    print(f"best validation Spearman {log.best_spearman:.4f} at step {log.best_step}")
    return 0


def _cmd_distill(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    _, log = pl.run_distill(cfg, ws, out_dir)
    _finish(cfg, out_dir, {"command": "distill",
                           "probe_loss_step0": f"{log.probe_loss_step0:.6f}",
                           "probe_loss_best": f"{log.probe_loss_best:.6f}",
                           "spearman_untrained": f"{log.spearman_untrained:.6f}",
                           "spearman_best": f"{log.spearman_best:.6f}"})
    print(f"student Spearman {log.spearman_untrained:.4f} -> {log.spearman_best:.4f}")
    return 0


def _cmd_eval(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    if not cfg["eval.checkpoint"]:
        raise ConfigError("eval.checkpoint is required")
    model = pl.load_model(cfg["eval.checkpoint"], ws)
    report = pl.run_eval(cfg, ws, model)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(report.to_text())
    pl.write_metadata(os.path.join(out_dir, "report.kv"), report.to_kv())
    _finish(cfg, out_dir, {"command": "eval"})
    print(report.to_text(), end="")
    return 0


def _cmd_norm_probe(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows = pl.run_norm_probe(cfg, ws, out_dir)
    _finish(cfg, out_dir, {"command": "norm-probe", "rows": len(rows)})
    for r in rows:
        print(f"stripped={r.stripped} mean|hL|={r.mean_hl:.3f} cv|hL|={r.cv_hl:.4f} "
              f"mean|hP|={r.mean_hp:.3f} cv|hP|={r.cv_hp:.4f}")
    return 0


def _cmd_ablate(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows = pl.run_ablation(cfg, ws, out_dir)
    _finish(cfg, out_dir, {"command": "ablate", "rows": len(rows)})
    for label, rho in rows:
        print(f"{label:20s} {rho:.4f}")
    return 0


def _cmd_significance(args, cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows, summary = pl.run_significance(cfg, ws, out_dir)
    _finish(cfg, out_dir, {"command": "significance", **summary})
    for r in rows:
        print(f"seed {r.seed}: {r.spearman:.4f}")
    print(f"mean {summary['mean']:.4f} std {summary['std']:.4f}")
    return 0


def _cmd_grad_check(args, cfg, out_dir):
    results = run_gradient_suite()
    lines = []
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        ok = ok and r.passed
        lines.append(f"{status} {r.name} worst_rel_err={r.worst_error:.3e} {r.detail}")
        print(lines[-1])
    with open(os.path.join(out_dir, "grad_check.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    _finish(cfg, out_dir, {"command": "grad-check",
                           "checks": len(results), "all_passed": ok})
    return 0 if ok else EXIT_CODES["numeric-error"]


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "train-single-tn": _cmd_train_single_tn,
    "distill": _cmd_distill,
    "eval": _cmd_eval,
    "norm-probe": _cmd_norm_probe,
    "ablate": _cmd_ablate,
    "significance": _cmd_significance,
    "grad-check": _cmd_grad_check,
}


def main(argv=None):
    args = _parse_args(argv)
    try:
        cfg = _resolve(args)
        out_dir = _out_dir(args)
        return _COMMANDS[args.command](args, cfg, out_dir)
    except TncseError as exc:
        print(f"{exc.status}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.status, 1)


if __name__ == "__main__":
    sys.exit(main())
