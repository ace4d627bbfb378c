"""Norm-constrained contrastive sentence embeddings at desk scale."""

from .autodiff import RngStreams, Tensor
from .data import (StsPair, Vocab, batch_iter, build_vocab, load_corpus,
                   load_sts_tsv, load_synonyms, make_batch, synonym_substitute,
                   synth_corpus, tokenize)
from .encoder import Encoder, EncoderConfig, EncoderOutput, strip_layernorms
from .ensemble import EnsembleModel, distill, ensemble_embed
from .errors import (CheckpointError, ConfigError, DataError, NumericError,
                     TncseError)
from .evaluation import (EvalReport, alignment, norm_probe, spearman,
                         sts_eval, uniformity)
from .losses import (LossConfig, ablation_grid, ictn, info_nce, l_tn, l_tn_kt,
                     l_tn_modulated, total_loss)
from .training import (Adam, TrainConfig, TrainLog, ensemble_embed_fn,
                       pretrain_single, train_single_tn, train_tncse)

__version__ = "0.1.0"
