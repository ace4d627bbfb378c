"""End-to-end desk-scale run: synthetic corpus -> contrastive pretraining
of two encoders -> joint dual-encoder training on the combined objective
-> sum-ensemble STS evaluation.

Takes about 6 s at its defaults on one core of a 2-vCPU Xeon host. Pass
small `--pretrain-steps` and `--train-steps` (down to 1) to just watch the
plumbing; validation runs every quarter (pretraining) or sixth (dual
training) of the steps.
"""

import argparse
import tempfile

from tncse import pipeline as pl
from tncse.data import build_vocab, load_synonyms, synth_corpus
from tncse.encoder import Encoder
from tncse.evaluation import alignment, sts_eval, uniformity
from tncse.training import (TrainConfig, ensemble_embed_fn, pretrain_single,
                            train_tncse)

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=1)
parser.add_argument("--pretrain-steps", type=int, default=100)
parser.add_argument("--train-steps", type=int, default=300)
args = parser.parse_args()

corpus, dev, test = synth_corpus(seed=args.seed)
vocab = build_vocab(corpus)
synonyms = load_synonyms()
print(f"corpus: {len(corpus)} sentences, vocab {len(vocab)}, "
      f"{len(dev)} dev / {len(test)} test pairs")

cfg = pl.resolve_config()
ec = pl.encoder_config(cfg, vocab)
enc_i = Encoder(ec, seed=args.seed * 7919 + 1, name="I",
                vocab_hash=vocab.content_hash())
enc_ii = Encoder(ec, seed=args.seed * 7919 + 2, name="II",
                 vocab_hash=vocab.content_hash())

pre_cfg = TrainConfig(seed=args.seed, steps=args.pretrain_steps,
                      eval_interval=max(1, args.pretrain_steps // 4), learning_rate=1e-3)
for enc, seed in ((enc_i, args.seed), (enc_ii, args.seed + 1)):
    log = pretrain_single(enc, corpus, dev, vocab,
                          TrainConfig(**{**pre_cfg.__dict__, "seed": seed}),
                          augment_table=synonyms)
    print(f"pretrained {enc.name}: dev Spearman {log.best_spearman:.4f} "
          f"at step {log.best_step}")

baseline = sts_eval(ensemble_embed_fn([enc_i, enc_ii], vocab), dev)
print(f"untrained dual baseline (sum ensemble): {baseline:.4f}")

dual_cfg = TrainConfig(seed=args.seed, steps=args.train_steps,
                       eval_interval=max(1, args.train_steps // 6), learning_rate=1e-4)
log = train_tncse(enc_i, enc_ii, corpus, dev, vocab, dual_cfg)
print(f"dual training: best dev Spearman {log.best_spearman:.4f} "
      f"at step {log.best_step}")

embed = ensemble_embed_fn([enc_i, enc_ii], vocab)
print(f"test Spearman: {sts_eval(embed, test):.4f}")
positives = [p for p in dev if p.gold_score >= 4.0]
A = embed([p.sentence_a for p in positives])
B = embed([p.sentence_b for p in positives])
sents = list(dict.fromkeys(p.sentence_a for p in dev))
print(f"alignment {alignment(A, B):.4f}  uniformity {uniformity(embed(sents)):.4f}"
      "  (both lower is better)")
