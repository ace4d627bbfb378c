"""Two companion studies on a trained dual-encoder pair.

1. Norm probe: LayerNorm concentrates the norms of the last hidden state
   (tiny coefficient of variation); stripping LayerNorms from the end of
   the stack releases that variability, and the pooler output carries more
   norm variation than the last hidden state even with all norms intact.
   This is why the norm-constraint loss attaches to the pooler output.

2. Distillation: compress the two-encoder ensemble into a single student
   by regressing the student's pairwise cosine-similarity matrix onto the
   teacher's (off-diagonal MSE).
"""

from tncse import pipeline as pl
from tncse.data import build_vocab, load_synonyms, synth_corpus
from tncse.encoder import Encoder
from tncse.ensemble import EnsembleModel, distill
from tncse.evaluation import norm_probe
from tncse.training import TrainConfig, pretrain_single, train_tncse

seed = 1
corpus, dev, _ = synth_corpus(seed=seed)
vocab = build_vocab(corpus)
cfg = pl.resolve_config()
ec = pl.encoder_config(cfg, vocab)

encoders = []
for i, name in ((1, "I"), (2, "II")):
    enc = Encoder(ec, seed=seed * 7919 + i, name=name,
                  vocab_hash=vocab.content_hash())
    pretrain_single(enc, corpus, dev, vocab,
                    TrainConfig(seed=seed + i - 1, steps=100, eval_interval=25,
                                learning_rate=1e-3),
                    augment_table=load_synonyms())
    encoders.append(enc)
train_tncse(*encoders, corpus, dev, vocab,
            TrainConfig(seed=seed, steps=300, eval_interval=50,
                        learning_rate=1e-4))

print("norm probe (CV = std/mean of embedding norms over 100 sentences):")
for row in norm_probe(encoders[0], corpus, vocab):
    print(f"  stripped={row.stripped}  cv|h_L|={row.cv_hl:.5f}  "
          f"cv|h_P|={row.cv_hp:.5f}")
print("LayerNorm pins |h_L|; the pooler output is where norms can vary.\n")

teacher = EnsembleModel(encoders)
student = Encoder(ec, seed=seed * 7919 + 3, name="D",
                  vocab_hash=vocab.content_hash())
log = distill(teacher, student, corpus, dev, vocab,
              TrainConfig(seed=seed, steps=300, eval_interval=50))
print("distillation:")
print(f"  similarity-matrix loss {log.probe_loss_step0:.4f} -> "
      f"{log.probe_loss_best:.4f}")
print(f"  student dev Spearman  {log.spearman_untrained:.4f} -> "
      f"{log.spearman_best:.4f}")
