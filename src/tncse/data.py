"""Tokenization, synthetic corpus generation, and deterministic batching.

The corpus generator fills a small set of sentence templates from word
lists that deliberately contain synonym pairs; the shipped synonym table
(resources/synonyms.tsv) drives both the paraphrase grades of the STS sets
and the pretraining-time augmentation that decorrelates the two encoders.
"""

from __future__ import annotations

import collections
import contextlib
import importlib.resources
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

PAD_ID, CLS_ID, SEP_ID, UNK_ID = 0, 1, 2, 3
_RESERVED = [("[PAD]", PAD_ID), ("[CLS]", CLS_ID), ("[SEP]", SEP_ID), ("[UNK]", UNK_ID)]


@dataclass(frozen=True)
class StsPair:
    sentence_a: str
    sentence_b: str
    gold_score: float

    def __post_init__(self):
        if not 0.0 <= self.gold_score <= 5.0:
            raise DataError(f"gold score {self.gold_score} outside [0, 5]")


class Vocab:
    """Dense token->id map with reserved PAD/CLS/SEP/UNK at ids 0..3; the
    map's insertion order is id order."""

    def __init__(self, tokens):
        self.token_to_id = {tok: i for tok, i in _RESERVED}
        for tok in tokens:
            if tok not in self.token_to_id:
                self.token_to_id[tok] = len(self.token_to_id)

    def __len__(self):
        return len(self.token_to_id)

    def get(self, tok):
        return self.token_to_id.get(tok, UNK_ID)

    def content_hash(self):
        blob = "\n".join(self.token_to_id)
        return f"{zlib.crc32(blob.encode('utf-8')):08x}"

    def save(self, path):
        write_file(path, "".join(tok + "\n" for tok in self.token_to_id))


def build_vocab(corpus):
    """Frequency-ranked vocabulary, ties broken lexicographically."""
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = collections.Counter(" ".join(corpus).lower().split())
    return Vocab(sorted(counts, key=lambda t: (-counts[t], t)))


def tokenize(vocab, sentence, max_seq_len):
    """[CLS] + tokens (truncated to fit) + [SEP], PAD-filled int64 ids.  Only
    padding is PAD_ID: tokens are lowercased, and PAD's token is "[PAD]"."""
    toks = sentence.lower().split()[: max_seq_len - 2]
    ids = [CLS_ID] + [vocab.get(t) for t in toks] + [SEP_ID]
    ids += [PAD_ID] * (max_seq_len - len(ids))
    return np.asarray(ids, dtype=np.int64)


def make_batch(vocab, sentences, max_seq_len):
    """A (batch, max_seq_len) int64 id array whose rows are ``tokenize``'s,
    built from one flat list."""
    n = max_seq_len - 2
    ids = []
    for s in sentences:
        toks = s.lower().split()[:n]
        ids.append(CLS_ID)
        ids += map(vocab.get, toks)
        ids.append(SEP_ID)
        ids += [PAD_ID] * (n - len(toks))
    return np.array(ids, dtype=np.int64).reshape(len(sentences), max_seq_len)


def _check_batchable(corpus):
    if len(corpus) < 2:
        raise DataError(f"need a corpus of at least 2 sentences to batch, got {len(corpus)}")


def batch_iter(corpus, batch_size, seed, epoch):
    """Deterministically shuffled lists of sentences; a short final batch is
    kept unless it holds one sentence, which no contrastive loss learns from."""
    if batch_size < 2:
        raise DataError(f"batch_size must be >= 2, got {batch_size}")
    _check_batchable(corpus)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    order = rng.permutation(len(corpus))
    for start in range(0, len(corpus) - 1, batch_size):
        yield [corpus[i] for i in order[start:start + batch_size]]


# -- synonym table and augmentation ---------------------------------------

def load_synonyms():
    """The shipped word -> synonym table."""
    text = (importlib.resources.files("tncse") / "resources/synonyms.tsv").read_text("utf-8")
    return dict(line.split("\t") for line in text.splitlines() if line.strip())


def synonym_substitute(sentence, table, rng, p):
    """Replace each substitutable token with its synonym with probability p."""
    out = []
    for tok in sentence.split():
        if tok in table and rng.random() < p:
            out.append(table[tok])
        else:
            out.append(tok)
    return " ".join(out)


# -- synthetic corpus ------------------------------------------------------

_WORDS = {
    "adj": ["quick", "fast", "slow", "big", "large", "small", "tiny", "happy",
            "glad", "sad", "unhappy", "bright", "shiny", "old", "ancient",
            "new", "modern", "quiet", "silent", "loud", "noisy", "cold",
            "chilly", "warm", "mild"],
    "animal": ["dog", "hound", "cat", "kitten", "horse", "pony", "bird",
               "sparrow", "fish", "trout", "rabbit", "hare", "fox", "wolf"],
    "verb_motion": ["runs", "sprints", "walks", "strolls", "jumps", "leaps",
                    "moves", "travels", "rushes", "hurries", "wanders", "roams"],
    "prep": ["across", "through", "near", "beside", "around", "past"],
    "place": ["park", "garden", "street", "road", "river", "stream", "forest",
              "woods", "market", "shop", "village", "town", "field", "meadow"],
    "person": ["teacher", "student", "doctor", "farmer", "chef", "baker",
               "artist", "painter", "writer", "author", "singer", "sailor"],
    "verb_action": ["reads", "studies", "writes", "draws", "sketches", "cooks",
                    "prepares", "fixes", "repairs", "cleans", "washes",
                    "builds", "constructs", "paints"],
    "object": ["book", "novel", "letter", "note", "picture", "meal", "dish",
               "bread", "cake", "engine", "house", "cabin", "wall", "boat",
               "ship"],
    "time": ["morning", "dawn", "evening", "dusk", "afternoon", "night",
             "noon", "weekend"],
    "adv": ["quickly", "rapidly", "slowly", "carefully", "quietly", "calmly",
            "happily", "gladly"],
}

_TEMPLATES = [
    ["the", "adj", "animal", "verb_motion", "prep", "the", "place"],
    ["the", "person", "verb_action", "the", "object", "in", "the", "time"],
    ["a", "adj", "person", "verb_action", "a", "object", "adv"],
    ["the", "animal", "verb_motion", "prep", "the", "place", "in", "the", "time"],
    ["a", "person", "and", "a", "person", "verb_action", "the", "object"],
    ["the", "adj", "object", "sits", "near", "the", "place"],
    ["every", "time", "the", "person", "walks", "to", "the", "place"],
    ["the", "animal", "watches", "the", "person", "from", "the", "place"],
]


def _fill(template, rng):
    toks, slots = [], []
    for part in template:
        if part in _WORDS:
            choice = _WORDS[part][rng.integers(len(_WORDS[part]))]
            toks.append(choice)
            slots.append(choice)
        else:
            toks.append(part)
    return " ".join(toks), slots


def synth_corpus(seed, n_sentences=2048, n_pairs=128):
    """Deterministic template corpus plus graded STS dev/test pair sets.

    Pair grades by construction: identical 5, synonym paraphrase 4,
    same-template different-slot 2..3 (by slot overlap), unrelated-template
    0..1.
    """
    if n_sentences < 1 or n_pairs < 1:
        raise DataError("corpus sizes must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5e]))

    corpus = [_fill(_TEMPLATES[rng.integers(len(_TEMPLATES))], rng)[0]
              for _ in range(n_sentences)]

    table = load_synonyms()

    # paraphrase-heavy mix: full synonym substitution shares almost no
    # surface tokens with its source, so an untrained encoder misranks it
    # against same-template pairs and the grade has to be learned
    kinds = ["ident", "para", "para", "para", "slots", "slots", "unrel", "unrel"]

    def make_pairs(pair_rng, count):
        pairs = []
        for i in range(count):
            kind = kinds[i % len(kinds)]
            ti = int(pair_rng.integers(len(_TEMPLATES)))
            t = _TEMPLATES[ti]
            a, slots_a = _fill(t, pair_rng)
            if kind == "ident":
                pairs.append(StsPair(a, a, 5.0))
            elif kind == "para":
                b = synonym_substitute(a, table, pair_rng, p=1.0)
                pairs.append(StsPair(a, b, 4.0))
            elif kind == "slots":
                b, slots_b = _fill(t, pair_rng)
                shared = sum(x == y for x, y in zip(slots_a, slots_b))
                score = 2.0 + shared / max(1, len(slots_a))
                pairs.append(StsPair(a, b, min(score, 3.0)))
            else:
                tj = int(pair_rng.integers(len(_TEMPLATES)))
                if tj == ti:
                    tj = (tj + 1) % len(_TEMPLATES)
                b, _ = _fill(_TEMPLATES[tj], pair_rng)
                pairs.append(StsPair(a, b, round(float(pair_rng.uniform(0.0, 1.0)), 1)))
        return pairs

    dev = make_pairs(np.random.default_rng(np.random.SeedSequence([int(seed), 0xdef])), n_pairs)
    test = make_pairs(np.random.default_rng(np.random.SeedSequence([int(seed), 0x7e57])), n_pairs)
    return corpus, dev, test


# -- file formats ----------------------------------------------------------

def load_corpus(path):
    corpus = [line.strip() for line in read_file(path, DataError).split("\n")
              if line.strip()]
    if not corpus:
        raise DataError(f"corpus file {path} contains no sentences")
    return corpus


def save_corpus(corpus, path):
    write_file(path, "".join(line + "\n" for line in corpus))


def load_sts_tsv(path):
    pairs = []
    for lineno, line in enumerate(read_file(path, DataError).split("\n"), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns")
        try:
            score = float(cols[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric score {cols[2]!r}") from None
        pairs.append(StsPair(cols[0], cols[1], score))
    if not pairs:
        raise DataError(f"STS file {path} contains no pairs")
    return pairs


def save_sts_tsv(pairs, path):
    write_file(path, "".join(f"{p.sentence_a}\t{p.sentence_b}\t{p.gold_score}\n"
                             for p in pairs))


def read_file(path, error, binary=False):
    """The bytes of ``path``, or its UTF-8 text with universal newlines; a
    file that cannot be read or decoded is an ``error`` naming it."""
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as f:
            return f.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise error(f"cannot read {path}: not UTF-8 text") from None


def make_output_dir(path):
    """Make the directory the output file ``path`` goes into; one that cannot
    be made is the ConfigError ``write_file`` raises for ``path``."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output file {path}: {exc.strerror or exc}") from None


def write_file(path, content):
    """Write ``content`` (text as UTF-8, or bytes) to ``path`` through a temp
    file, making its directory first; a path that cannot be written is a
    ConfigError naming it."""
    make_output_dir(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(content.encode("utf-8") if isinstance(content, str) else content)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"output file {path}: {exc.strerror or exc}") from None
