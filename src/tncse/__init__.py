"""Norm-constrained contrastive sentence embeddings at desk scale."""

import ctypes
import os
import sys

# One BLAS thread unless the caller chose a count or numpy has already loaded
# OpenBLAS, which fixes its count then.  A desk-scale GEMM takes tens of
# microseconds, and OpenBLAS splits each one above 2**18 multiply-adds (every
# fused projection of a batch) over all CPUs, where it waits for its slowest
# thread: that gains nothing at the default shapes, and on a shared 2-CPU
# host any other busy process stalls every such GEMM (a distill step took
# 60-73 ms instead of 24).  The thread count does not change any result.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _keep_heap_resident():
    """Keep the memory a step frees in the process, unless the caller tuned
    malloc: by default glibc gives the freed heap top, and every array of
    128 KiB or more, back to the kernel, and the next step faults it in again
    (about 3k minor faults per wide pretraining step).  It also keeps one
    arena for all threads: without the cap each eval worker thread
    (``evaluation._map_threads``) grows and keeps an arena of its own.  No
    result depends on it.  Returns whether glibc's ``mallopt`` took all
    three settings."""
    if any(v in os.environ for v in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
                                     "MALLOC_TOP_PAD_", "MALLOC_ARENA_MAX")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
    return bool(mallopt(M_TRIM_THRESHOLD, 64 << 20)
                and mallopt(M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(M_ARENA_MAX, 1))


_heap_resident = _keep_heap_resident()

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
