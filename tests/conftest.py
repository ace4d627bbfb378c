"""Shared fixtures: a small deterministic corpus and matching vocab/encoder
configs sized for fast unit tests."""

import collections
import os
import threading

# tncse before numpy, so the suite runs at the BLAS thread count that the CLI
# and the benchmark run at: tncse's one-thread default applies only before
# numpy loads OpenBLAS
import tncse  # noqa: F401  isort: skip

import numpy as np
import pytest

from tncse.data import build_vocab, load_synonyms, synth_corpus
from tncse.encoder import Encoder, EncoderConfig


@pytest.fixture(scope="session")
def small_data():
    corpus, dev, test = synth_corpus(seed=1, n_sentences=256, n_pairs=32)
    return corpus, dev, test


@pytest.fixture(scope="session")
def small_corpus(small_data):
    return small_data[0]


@pytest.fixture(scope="session")
def small_dev(small_data):
    return small_data[1]


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return build_vocab(small_corpus)


@pytest.fixture(scope="session")
def synonyms():
    return load_synonyms()


@pytest.fixture
def small_config(small_vocab):
    return EncoderConfig(vocab_size=len(small_vocab), max_seq_len=16,
                         hidden_dim=32, num_layers=2, num_heads=4,
                         ffn_dim=64, dropout_p=0.1)


@pytest.fixture
def small_encoder(small_config, small_vocab):
    return Encoder(small_config, seed=7, name="I",
                   vocab_hash=small_vocab.content_hash())


@pytest.fixture
def eval_rows(monkeypatch):
    """Token-id rows (as tuples) that each encoder, keyed by name, encodes in
    eval mode.  Eval batches may run on several threads, so the order of the
    batches is not fixed; compare sorted rows.  Every other argument passes
    through as given."""
    rows = collections.defaultdict(list)
    lock = threading.Lock()
    encode = Encoder.encode

    def recording_encode(self, ids, train_mode=False, **kwargs):
        if not train_mode:
            with lock:
                rows[self.name] += map(tuple, ids.tolist())
        return encode(self, ids, train_mode, **kwargs)

    monkeypatch.setattr(Encoder, "encode", recording_encode)
    return rows


@pytest.fixture
def cpus(monkeypatch):
    """Call with n to make eval batches see n CPUs, all usable, and one BLAS
    thread, the setting under which they run on up to n threads; n = 1 runs
    them in the calling thread, the sequential reference.  ``usable`` sets
    how many of the n the process may run on (its CPU affinity)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def set_cpus(n, usable=None):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        affinity = set(range(n if usable is None else usable))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)

    return set_cpus


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line-per-criterion acceptance verdicts into the run
    summary (their live prints are swallowed by output capture)."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
