"""Command-line entry point tying the pipeline stages into reproducible
experiments.

Every command resolves its config (defaults <- --config file <- --set
overrides <- --seed) and runs in a dedicated output directory: a resolved-config
snapshot goes there before the run, a flat run-metadata file after a success.
Exit classes: success / config-error / data-error / checkpoint-error / numeric-error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from . import pipeline as pl
from .data import save_corpus, save_sts_tsv, synth_corpus, write_file
from .errors import ConfigError, TncseError
from .gradsuite import run_gradient_suite

EXIT_CODES = {"success": 0, "config-error": 2, "data-error": 3,
              "checkpoint-error": 4, "numeric-error": 5, "error": 1}

OUT_ROOT_ENV = "TNCSE_OUT_ROOT"


class _ArgumentParser(argparse.ArgumentParser):
    """A bad argument is a one-line ConfigError; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def _parse_args(argv):
    parser = _ArgumentParser(prog="tncse", description="Norm-constrained contrastive "
                                                       "sentence embeddings, desk scale")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from None
    return path


# Each command returns its own run-metadata entries and the text it prints.

def _cmd_gen_data(cfg, out_dir):
    corpus, dev, test = synth_corpus(cfg["seed"])
    save_corpus(corpus, os.path.join(out_dir, "corpus.txt"))
    save_sts_tsv(dev, os.path.join(out_dir, "sts_dev.tsv"))
    save_sts_tsv(test, os.path.join(out_dir, "sts_test.tsv"))
    return ({"sentences": len(corpus), "pairs": len(dev)},
            f"wrote corpus ({len(corpus)} sentences) and STS sets to {out_dir}\n")


def _cmd_pretrain(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    ws.vocab.save(os.path.join(out_dir, "vocab.txt"))
    prefix_i, prefix_ii = pl.run_pretrain_pair(cfg, ws, out_dir)
    return ({"encoder_i": prefix_i, "encoder_ii": prefix_ii},
            f"pretrained encoder pair saved under {out_dir}\n")


def _cmd_train(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    if not cfg["train.encoder_i"] or not cfg["train.encoder_ii"]:
        raise ConfigError("train.encoder_i and train.encoder_ii checkpoint "
                          "prefixes are required")
    _, log = pl.run_tncse(cfg, ws, cfg["train.encoder_i"], cfg["train.encoder_ii"],
                          out_dir)
    return ({"best_step": log.best_step,
             "best_val_spearman": f"{log.best_spearman:.6f}"},
            f"best validation Spearman {log.best_spearman:.4f} "
            f"at step {log.best_step}; artifacts in {out_dir}\n")


def _cmd_train_single_tn(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    _, log = pl.run_single_tn(cfg, ws, out_dir)
    return ({"best_step": log.best_step,
             "best_val_spearman": f"{log.best_spearman:.6f}"},
            f"best validation Spearman {log.best_spearman:.4f} "
            f"at step {log.best_step}\n")


def _cmd_distill(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    _, log = pl.run_distill(cfg, ws, out_dir)
    return ({"probe_loss_step0": f"{log.probe_loss_step0:.6f}",
             "probe_loss_best": f"{log.probe_loss_best:.6f}",
             "spearman_untrained": f"{log.spearman_untrained:.6f}",
             "spearman_best": f"{log.spearman_best:.6f}"},
            f"student Spearman {log.spearman_untrained:.4f} -> {log.spearman_best:.4f}\n")


def _cmd_eval(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    if not cfg["eval.checkpoint"]:
        raise ConfigError("eval.checkpoint is required")
    model = pl.load_model(cfg["eval.checkpoint"], ws)
    report = pl.run_eval(cfg, ws, model)
    write_file(os.path.join(out_dir, "report.txt"), report.to_text())
    pl.write_metadata(os.path.join(out_dir, "report.kv"), report.to_kv())
    return {}, report.to_text()


def _cmd_norm_probe(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows = pl.run_norm_probe(cfg, ws, out_dir)
    return {"rows": len(rows)}, "".join(
        f"stripped={r.stripped} mean|hL|={r.mean_hl:.3f} cv|hL|={r.cv_hl:.4f} "
        f"mean|hP|={r.mean_hp:.3f} cv|hP|={r.cv_hp:.4f}\n" for r in rows)


def _cmd_ablate(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows = pl.run_ablation(cfg, ws, out_dir)
    return {"rows": len(rows)}, "".join(f"{label:20s} {rho:.4f}\n" for label, rho in rows)


def _cmd_significance(cfg, out_dir):
    ws = pl.load_workspace(cfg)
    rows, summary = pl.run_significance(cfg, ws, out_dir)
    return summary, ("".join(f"seed {seed}: {rho:.4f}\n" for seed, rho in rows)
                     + f"mean {summary['mean']:.4f} std {summary['std']:.4f}\n")


def _cmd_grad_check(cfg, out_dir):
    results = run_gradient_suite()
    text = "".join(f"{'pass' if r.passed else 'FAIL'} {r.name} "
                   f"worst_rel_err={r.worst_error:.3e} {r.detail}\n" for r in results)
    write_file(os.path.join(out_dir, "grad_check.txt"), text)
    return {"checks": len(results), "all_passed": all(r.passed for r in results)}, text


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
    """Run one command, write its run records and print its text."""
    try:
        args = _parse_args(argv)
        # the loss and validation checks name a non-finite value themselves
        with np.errstate(all="ignore"):
            cfg = _resolve(args)
            out_dir = _out_dir(args)
            pl.write_resolved_config(cfg, out_dir)
            extra, message = _COMMANDS[args.command](cfg, out_dir)
        meta = {"command": args.command, "seed": cfg["seed"],
                "precision": "float32", "version": __version__, **extra}
        pl.write_metadata(os.path.join(out_dir, "run-metadata.txt"), meta)
    except TncseError as exc:
        print(f"{exc.status}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.status, 1)
    print(message, end="")
    # a failed gradient check exits 5 once its report and records are written
    return 0 if extra.get("all_passed", True) else EXIT_CODES["numeric-error"]


if __name__ == "__main__":
    sys.exit(main())
