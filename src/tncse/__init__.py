"""Norm-constrained contrastive sentence embeddings at desk scale."""

import os

# One BLAS thread unless the caller chose a count; this has to run before
# numpy loads OpenBLAS.  A desk-scale GEMM takes tens of microseconds, and
# OpenBLAS splits each one above 2**18 multiply-adds (every fused projection
# of a batch) over all CPUs, where it waits for its slowest thread: that
# gains nothing at the default shapes, and on a shared 2-CPU host any other
# busy process stalls every such GEMM (a distill step took 60-73 ms instead
# of 24).  The thread count does not change any result.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import RngStreams, Tensor
from .data import (StsPair, Vocab, batch_iter, build_vocab, load_corpus,
                   load_sts_tsv, load_synonyms, make_batch, synonym_substitute,
                   synth_corpus, tokenize)
from .encoder import Encoder, EncoderConfig, EncoderOutput
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
