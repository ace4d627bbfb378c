"""Tokenization, vocab, batching, synonym augmentation, corpus generation,
and the on-disk text formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse.data import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, StsPair, Vocab,
                        batch_iter, build_vocab, load_corpus, load_sts_tsv,
                        load_synonyms, make_batch, read_file, save_corpus,
                        save_sts_tsv, synonym_substitute, synth_corpus, tokenize,
                        write_file)
from tncse.errors import CheckpointError, ConfigError, DataError


# -- StsPair ---------------------------------------------------------------

def test_sts_pair_rejects_out_of_range_scores():
    with pytest.raises(DataError):
        StsPair("a", "b", 5.1)
    with pytest.raises(DataError):
        StsPair("a", "b", -0.1)


def test_sts_pair_accepts_boundary_scores():
    assert StsPair("a", "b", 0.0).gold_score == 0.0
    assert StsPair("a", "b", 5.0).gold_score == 5.0


# -- Vocab -----------------------------------------------------------------

def test_vocab_reserves_special_ids():
    v = Vocab(["cat", "dog"])
    assert v.get("[PAD]") == PAD_ID == 0
    assert v.get("[CLS]") == CLS_ID == 1
    assert v.get("[SEP]") == SEP_ID == 2
    assert v.get("[UNK]") == UNK_ID == 3
    assert v.get("cat") == 4 and v.get("dog") == 5


def test_vocab_unknown_token_maps_to_unk():
    v = Vocab(["cat"])
    assert v.get("zebra") == UNK_ID


def test_build_vocab_orders_by_frequency_then_lexicographic():
    # counts: b=3, a=2, c=2, d=1 -> b, then a before c, then d
    vocab = build_vocab(["b b a", "b a c", "c d"])
    assert [vocab.get(t) for t in ("b", "a", "c", "d")] == [4, 5, 6, 7]


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([])


def test_vocab_roundtrip_and_hash(tmp_path):
    v = build_vocab(["the cat sat", "the dog ran"])
    path = tmp_path / "vocab.txt"
    v.save(path)
    toks = path.read_text(encoding="utf-8").splitlines()
    assert toks == ["[PAD]", "[CLS]", "[SEP]", "[UNK]",
                    "the", "cat", "dog", "ran", "sat"]
    assert [v.get(t) for t in toks] == list(range(len(v)))
    v2 = Vocab(toks[4:])
    assert v2.token_to_id == v.token_to_id
    assert v2.content_hash() == v.content_hash()
    assert build_vocab(["entirely different words"]).content_hash() != v.content_hash()


@pytest.mark.parametrize("seed, expected", [(1, "05fcee78"), (3, "b543a98b"),
                                            (101, "e31095fd")])
def test_content_hash_is_stable(seed, expected):
    # manifests record this hash, and loading compares it with the workspace's
    assert build_vocab(synth_corpus(seed)[0]).content_hash() == expected


# -- tokenize / batches ----------------------------------------------------

def test_tokenize_wraps_with_cls_sep_and_pads():
    v = Vocab(["cat", "sat"])
    ids = tokenize(v, "cat sat", max_seq_len=8)
    assert ids.tolist() == [CLS_ID, 4, 5, SEP_ID, 0, 0, 0, 0]
    assert (ids != PAD_ID).tolist() == [True] * 4 + [False] * 4


def test_tokenize_truncates_to_fit():
    v = Vocab(["a"])
    ids = tokenize(v, "a a a a a a", max_seq_len=5)
    assert ids.tolist() == [CLS_ID, 4, 4, 4, SEP_ID]
    assert (ids != PAD_ID).sum() == 5


def test_tokenize_is_case_insensitive():
    v = Vocab(["cat"])
    ids = tokenize(v, "CAT Cat", max_seq_len=6)
    assert ids.tolist()[1:3] == [4, 4]


def test_make_batch_shapes():
    v = Vocab(["a", "b"])
    batch = make_batch(v, ["a b", "b"], max_seq_len=6)
    assert batch.shape == (2, 6)
    assert batch.dtype == np.int64
    assert batch.tolist() == [[CLS_ID, 4, 5, SEP_ID, PAD_ID, PAD_ID],
                              [CLS_ID, 5, SEP_ID, PAD_ID, PAD_ID, PAD_ID]]


@pytest.mark.parametrize("max_seq_len", [2, 3, 8, 16, 32])
def test_make_batch_equals_stacked_tokenize_rows(max_seq_len, small_corpus, small_vocab):
    sentences = small_corpus + ["", "   ", "THE Dog", "the\tdog\nruns", "[PAD] [CLS] [UNK]",
                                "zebra qux", " ".join(small_corpus[:4])]
    want = np.stack([tokenize(small_vocab, s, max_seq_len) for s in sentences])
    got = make_batch(small_vocab, sentences, max_seq_len)
    assert max_seq_len == 2 or (want == UNK_ID).any()
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# any text, the reserved spellings among it
_WORDS = st.one_of(st.sampled_from(["[PAD]", "[pad]", "[CLS]", "[SEP]", "[UNK]"]),
                   st.text(max_size=6))


@given(vocab_words=st.lists(_WORDS, max_size=8),
       sentences=st.lists(st.lists(_WORDS, max_size=20).map(" ".join),
                          min_size=1, max_size=5),
       max_seq_len=st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_make_batch_rows_are_cls_tokens_sep_then_only_padding(vocab_words, sentences,
                                                              max_seq_len):
    """The encoder's attention mask is ``ids != PAD_ID``; it rests on PAD_ID
    filling the end of each row and appearing nowhere else."""
    vocab = Vocab(vocab_words)
    batch = make_batch(vocab, sentences, max_seq_len)
    assert batch.shape == (len(sentences), max_seq_len)
    for sentence, row in zip(sentences, batch.tolist()):
        n = min(len(sentence.split()), max_seq_len - 2)
        assert row[0] == CLS_ID and row[n + 1] == SEP_ID
        assert PAD_ID not in row[:n + 2]
        assert row[n + 2:] == [PAD_ID] * (max_seq_len - n - 2)


def test_batch_iter_is_a_permutation_and_keeps_short_tail():
    corpus = [f"s{i}" for i in range(10)]
    batches = list(batch_iter(corpus, batch_size=4, seed=3, epoch=0))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(s for b in batches for s in b) == sorted(corpus)


@pytest.mark.parametrize("n", [9, 5, 2, 3])
def test_batch_iter_never_yields_a_one_sentence_batch(n):
    """A final batch of one sentence is dropped; every other sentence of the
    epoch is batched once."""
    corpus = [f"s{i}" for i in range(n)]
    batches = list(batch_iter(corpus, batch_size=4, seed=3, epoch=0))
    sizes = [len(b) for b in batches]
    assert min(sizes) >= 2 and sum(sizes) == n - (n % 4 == 1)
    assert len({s for b in batches for s in b}) == sum(sizes)


def test_batch_iter_deterministic_per_seed_epoch():
    corpus = [f"s{i}" for i in range(20)]
    a = list(batch_iter(corpus, 8, seed=5, epoch=2))
    b = list(batch_iter(corpus, 8, seed=5, epoch=2))
    c = list(batch_iter(corpus, 8, seed=5, epoch=3))
    assert a == b
    assert a != c


def test_batch_iter_rejects_bad_batch_size():
    for size in (0, 1):
        with pytest.raises(DataError, match="batch_size must be >= 2"):
            next(batch_iter(["a", "b"], size, seed=1, epoch=0))


# -- synonyms --------------------------------------------------------------

def test_shipped_synonym_table_is_bidirectional_and_lowercase():
    table = load_synonyms()
    assert len(table) >= 50
    for word, syn in table.items():
        assert word == word.lower() and syn == syn.lower()
        assert " " not in word and " " not in syn
        assert table.get(syn) == word, f"{word}->{syn} has no reverse entry"


def test_synonym_substitute_p_zero_is_identity(rng):
    table = load_synonyms()
    s = "the quick dog runs across the park"
    assert synonym_substitute(s, table, rng, p=0.0) == s


def test_synonym_substitute_p_one_replaces_every_known_token(rng):
    table = {"quick": "fast", "dog": "hound"}
    out = synonym_substitute("the quick dog barks", table, rng, p=1.0)
    assert out == "the fast hound barks"


def test_synonym_substitute_deterministic_under_seeded_rng():
    table = load_synonyms()
    s = "the quick dog runs across the park in the morning"
    a = synonym_substitute(s, table, np.random.default_rng(9), p=0.5)
    b = synonym_substitute(s, table, np.random.default_rng(9), p=0.5)
    assert a == b


# -- synthetic corpus ------------------------------------------------------

def test_synth_corpus_is_deterministic():
    c1, d1, t1 = synth_corpus(seed=4, n_sentences=64, n_pairs=16)
    c2, d2, t2 = synth_corpus(seed=4, n_sentences=64, n_pairs=16)
    assert c1 == c2 and d1 == d2 and t1 == t2
    c3, _, _ = synth_corpus(seed=5, n_sentences=64, n_pairs=16)
    assert c1 != c3


def test_synth_corpus_sizes_and_grade_range():
    corpus, dev, test = synth_corpus(seed=1, n_sentences=128, n_pairs=24)
    assert len(corpus) == 128 and len(dev) == 24 and len(test) == 24
    for p in dev + test:
        assert 0.0 <= p.gold_score <= 5.0


def test_synth_corpus_identical_pairs_score_five():
    _, dev, _ = synth_corpus(seed=1, n_sentences=32, n_pairs=16)
    for p in dev:
        if p.sentence_a == p.sentence_b:
            assert p.gold_score == 5.0
    assert any(p.sentence_a == p.sentence_b for p in dev)


def test_synth_corpus_paraphrases_share_structure_not_content_words():
    table = load_synonyms()
    _, dev, _ = synth_corpus(seed=1, n_sentences=32, n_pairs=16)
    fours = [p for p in dev if p.gold_score == 4.0]
    assert fours
    for p in fours:
        a, b = p.sentence_a.split(), p.sentence_b.split()
        assert len(a) == len(b)
        assert all(x == y or table.get(x) == y for x, y in zip(a, b))


def test_synth_corpus_rejects_degenerate_sizes():
    with pytest.raises(DataError):
        synth_corpus(seed=1, n_sentences=0)


# -- file formats ----------------------------------------------------------

def test_corpus_roundtrip(tmp_path):
    corpus = ["the cat sat", "the dog ran"]
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_load_corpus_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    with pytest.raises(DataError):
        load_corpus(path)


def test_sts_tsv_roundtrip(tmp_path):
    pairs = [StsPair("a b", "c d", 3.5), StsPair("e", "f", 0.0)]
    path = tmp_path / "sts.tsv"
    save_sts_tsv(pairs, path)
    assert load_sts_tsv(path) == pairs


def test_load_sts_tsv_reports_bad_column_count_with_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\t1.0\nonly one column\n")
    with pytest.raises(DataError, match=":2:"):
        load_sts_tsv(path)


def test_load_sts_tsv_reports_non_numeric_score(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\thigh\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_sts_tsv(path)


def test_load_sts_tsv_rejects_empty(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(DataError):
        load_sts_tsv(path)


def test_read_file_reads_text_with_universal_newlines_or_bytes(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_file(path, DataError) == "a\nb\nc\n"
    assert read_file(path, DataError, binary=True) == b"a\r\nb\rc\n"


@pytest.mark.parametrize("error", [DataError, ConfigError, CheckpointError])
@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("latin-1", "not UTF-8 text")])
def test_read_file_failure_is_one_line_of_the_callers_class(tmp_path, error, kind, reason):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes(b"caf\xe9\n")
    with pytest.raises(error) as exc:
        read_file(path, error)
    assert type(exc.value) is error
    assert str(exc.value) == f"cannot read {path}: {reason}"


def test_write_file_makes_its_directory_unless_a_file_blocks_it(tmp_path):
    path = tmp_path / "a" / "b" / "f.txt"
    write_file(str(path), "x\n")
    assert path.read_bytes() == b"x\n"
    blocked = tmp_path / "a" / "b" / "f.txt" / "sub" / "g.txt"
    with pytest.raises(ConfigError,
                       match=f"^output file {re.escape(str(blocked))}: Not a directory$"):
        write_file(str(blocked), "x\n")
    assert [p.name for p in path.parent.iterdir()] == ["f.txt"]
