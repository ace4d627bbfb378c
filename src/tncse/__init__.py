"""Norm-constrained contrastive sentence embeddings at desk scale."""

from .autodiff import RngStreams, Tensor
from .data import (StsPair, TokenBatch, Vocab, batch_iter, build_vocab,
                   load_corpus, load_sts_tsv, load_synonyms, make_batch,
                   synonym_substitute, synth_corpus, tokenize)
from .encoder import (Encoder, EncoderConfig, EncoderOutput, ViewBundle,
                      dual_view, strip_layernorms)
from .ensemble import EnsembleModel, distill, ensemble_embed
from .errors import (CheckpointError, ConfigError, DataError, NumericError,
                     TncseError)
from .evaluation import (EvalReport, alignment, norm_probe, spearman,
                         sts_eval, uniformity)
from .losses import (LossBundle, LossConfig, ablation_grid, icnce, ictn,
                     info_nce, l_tn, l_tn_kt, l_tn_modulated, total_loss)
from .training import (Adam, TrainConfig, TrainLog, ensemble_embed_fn,
                       pretrain_single, significance_suite, train_single_tn,
                       train_tncse)

__version__ = "0.1.0"
