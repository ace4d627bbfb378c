"""Evaluation metrics against independent oracles: Spearman via the
rank-difference formula and scipy's ``spearmanr``, alignment/uniformity
closed forms and scipy's ``pdist``, and the LayerNorm norm probe."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse.data import make_batch
from tncse.encoder import Encoder, EncoderConfig
from tncse.errors import DataError, NumericError
from tncse.evaluation import (EvalReport, alignment, cosine_matrix_rows, norm_probe,
                              probe_csv, spearman, sts_eval, uniformity)


def rank_formula_spearman(pred, gold):
    """Brute-force oracle: average ranks, then the Pearson correlation of
    the rank vectors (handles ties, unlike the d^2 shortcut)."""
    def avg_ranks(x):
        x = np.asarray(x, dtype=float)
        ranks = np.empty(len(x))
        order = np.argsort(x, kind="stable")
        sorted_x = x[order]
        i = 0
        while i < len(x):
            j = i
            while j < len(x) and sorted_x[j] == sorted_x[i]:
                j += 1
            ranks[order[i:j]] = (i + j - 1) / 2.0 + 1.0
            i = j
        return ranks
    ra, rb = avg_ranks(pred), avg_ranks(gold)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


# -- spearman --------------------------------------------------------------

def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_matches_rank_oracle_on_all_small_permutations():
    gold = [1.0, 2.0, 3.0, 4.0, 5.0]
    for perm in itertools.permutations(range(5)):
        pred = [float(p) for p in perm]
        assert spearman(pred, gold) == pytest.approx(
            rank_formula_spearman(pred, gold), abs=1e-12)


def test_spearman_handles_ties_with_average_ranks():
    pred = [1.0, 1.0, 2.0, 3.0]
    gold = [2.0, 1.0, 3.0, 4.0]
    assert spearman(pred, gold) == pytest.approx(
        rank_formula_spearman(pred, gold), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=3, max_size=12))
def test_spearman_matches_rank_oracle_with_random_ties(gold_ints):
    rng = np.random.default_rng(sum(gold_ints) + len(gold_ints))
    gold = [float(g) for g in gold_ints]
    pred = rng.standard_normal(len(gold)).tolist()
    if len(set(gold)) < 2:
        with pytest.raises(DataError):
            spearman(pred, gold)
    else:
        assert spearman(pred, gold) == pytest.approx(
            rank_formula_spearman(pred, gold), abs=1e-10)


def test_spearman_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        spearman([1.0], [1.0])
    with pytest.raises(DataError):
        spearman([1, 2], [3, 3])
    with pytest.raises(DataError):
        spearman([1, 2, 3], [1, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["pred", "gold"])
def test_spearman_rejects_a_non_finite_value(side, bad):
    """Ranks would order a NaN anywhere and give a finite, wrong rho
    (-0.2 for a NaN first prediction here)."""
    x, y = [bad, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(DataError, match="non-finite"):
        spearman(*((x, y) if side == "pred" else (y, x)))


def _spearman_oracle_cases():
    rng = np.random.default_rng(2104)
    for n in (2, 3, 17, 500):
        yield rng.standard_normal(n), rng.standard_normal(n)
        # STS-style gold scores in 0.2 steps, many tied
        yield rng.standard_normal(n), np.round(rng.uniform(0, 5, n) * 5) / 5
        yield rng.integers(0, 3, n).astype(float), rng.integers(0, 4, n).astype(float)
    yield np.array([1.0, 2.0]), np.array([2.0, 1.0])


def test_spearman_is_scipy_spearmanr_to_the_bit():
    stats = pytest.importorskip("scipy.stats")
    checked = 0
    for pred, gold in _spearman_oracle_cases():
        if np.all(pred == pred[0]) or np.all(gold == gold[0]):
            continue
        assert spearman(pred, gold) == stats.spearmanr(pred, gold).statistic
        checked += 1
    assert checked >= 12


# -- cosine / sts_eval -----------------------------------------------------

def test_cosine_matrix_rows_oracle():
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(cosine_matrix_rows(A, B), [0.0, 1.0], atol=1e-12)


def test_cosine_matrix_rows_rejects_zero_rows():
    with pytest.raises(DataError):
        cosine_matrix_rows(np.zeros((1, 2)), np.ones((1, 2)))


def test_sts_eval_with_constructed_embedder():
    """An embedder whose cosines are a known monotone function of the gold
    scores must score exactly 1."""
    from tncse.data import StsPair
    pairs = [StsPair(f"a{i}", f"b{i}", float(i)) for i in range(5)]
    angles = {f"a{i}": 0.0 for i in range(5)}
    angles.update({f"b{i}": (5 - i) * 0.2 for i in range(5)})

    def embed(sentences):
        return np.array([[np.cos(angles[s]), np.sin(angles[s])] for s in sentences])

    assert sts_eval(embed, pairs) == pytest.approx(1.0)


def test_sts_eval_rejects_tiny_datasets():
    from tncse.data import StsPair
    with pytest.raises(DataError):
        sts_eval(lambda s: np.ones((len(s), 2)), [])
    with pytest.raises(DataError):
        sts_eval(lambda s: np.ones((len(s), 2)), [StsPair("a", "b", 1.0)])


def test_sts_eval_collapsed_embeddings_are_a_numeric_error():
    """Every sentence mapped to one row gives every pair cosine 1: a model
    failure (NumericError), unlike constant gold scores (DataError)."""
    from tncse.data import StsPair
    pairs = [StsPair(f"a{i}", f"b{i}", float(i)) for i in range(5)]
    with pytest.raises(NumericError, match="collapsed"):
        sts_eval(lambda s: np.tile([0.3, -1.2], (len(s), 1)), pairs)
    flat = [StsPair(f"a{i}", f"b{i}", 2.0) for i in range(5)]
    with pytest.raises(DataError):
        sts_eval(lambda s: np.tile([0.3, -1.2], (len(s), 1)), flat)


@pytest.mark.parametrize("side, bad", [("a", np.nan), ("b", np.inf)])
def test_sts_eval_names_the_first_non_finite_embedding(side, bad):
    from tncse.data import StsPair
    pairs = [StsPair(f"a{i}", f"b{i}", float(i)) for i in range(5)]

    def embed(sentences):
        X = np.array([[1.0 + i, 2.0 - i] for i in range(len(sentences))])
        if sentences[0].startswith(side):
            X[3, 1] = X[4, 0] = bad
        return X

    with pytest.raises(NumericError, match=f"sentence_{side} in pair 3"):
        sts_eval(embed, pairs)


# -- alignment / uniformity ------------------------------------------------

def test_alignment_zero_for_identical_pairs():
    X = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert alignment(X, X) == pytest.approx(0.0, abs=1e-12)


def test_alignment_orthogonal_pairs_equal_two():
    X = np.array([[2.0, 0.0]])
    Y = np.array([[0.0, 3.0]])
    # normalized distance^2 between orthogonal unit vectors is 2
    assert alignment(X, Y) == pytest.approx(2.0, abs=1e-12)


def test_alignment_antipodal_pairs_equal_four():
    X = np.array([[1.0, 0.0]])
    Y = np.array([[-5.0, 0.0]])
    assert alignment(X, Y) == pytest.approx(4.0, abs=1e-12)


def test_alignment_averages_over_pairs():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert alignment(X, Y) == pytest.approx(1.0, abs=1e-12)


def test_uniformity_coincident_points_zero():
    X = np.array([[1.0, 0.0], [2.0, 0.0]])  # same direction
    assert uniformity(X) == pytest.approx(0.0, abs=1e-12)


def test_uniformity_antipodal_points():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # single pair at squared distance 4: log exp(-2*4) = -8
    assert uniformity(X) == pytest.approx(-8.0, abs=1e-12)


def test_uniformity_orthogonal_triple():
    X = np.eye(3)
    # all three pairs at squared distance 2: log mean exp(-4) = -4
    assert uniformity(X) == pytest.approx(-4.0, abs=1e-12)


def _uniformity_by_pdist(X, pdist):
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    return float(np.log(np.mean(np.exp(-2 * pdist(Xn, metric="sqeuclidean")))))


@pytest.mark.parametrize("collapsed", [False, True], ids=["random", "near-collapsed"])
@pytest.mark.parametrize("n, d", [(2, 3), (50, 8), (700, 64)])
def test_uniformity_matches_a_pdist_reference(n, d, collapsed):
    pdist = pytest.importorskip("scipy.spatial.distance").pdist
    rng = np.random.default_rng(n * d)
    X = rng.standard_normal((n, d))
    if collapsed:
        X = rng.standard_normal(d) + 1e-3 * X
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        assert (Xn @ Xn.T).min() > 0.9999
    assert uniformity(X) == pytest.approx(_uniformity_by_pdist(X, pdist), rel=0, abs=1e-12)


def test_alignment_uniformity_reject_degenerate_inputs():
    with pytest.raises(DataError):
        alignment(np.empty((0, 2)), np.empty((0, 2)))
    with pytest.raises(DataError):
        uniformity(np.ones((1, 2)))
    with pytest.raises(DataError):
        alignment(np.zeros((1, 2)), np.ones((1, 2)))


# -- norm probe ------------------------------------------------------------

def test_norm_probe_requires_100_distinct_sentences(small_encoder, small_vocab):
    with pytest.raises(DataError, match="100"):
        norm_probe(small_encoder, ["a cat"] * 120, small_vocab)


def test_norm_probe_rows_and_csv(small_encoder, small_vocab, small_corpus):
    """One row per strip count 0 .. 2·num_layers, over the first 100
    distinct corpus sentences, whatever follows them."""
    rows = norm_probe(small_encoder, small_corpus, small_vocab)
    assert [r.stripped for r in rows] == [0, 1, 2, 3, 4]
    assert rows == norm_probe(small_encoder, list(dict.fromkeys(small_corpus))[:100],
                              small_vocab)
    for r in rows:
        assert r.mean_hl > 0 and r.cv_hl == pytest.approx(r.std_hl / r.mean_hl)
    csv = probe_csv(rows)
    assert csv.splitlines()[0] == "stripped,mean_hl,std_hl,cv_hl,mean_hp,std_hp,cv_hp"
    assert len(csv.splitlines()) == 6


def test_norm_probe_on_threads_equals_one_thread_and_the_loop(
        small_encoder, small_vocab, small_corpus, cpus):
    """One batch at five strip counts runs as five jobs on threads; the rows
    equal those of the calling thread alone and of a plain loop over strip
    counts, bit for bit."""
    cpus(1)
    expected = norm_probe(small_encoder, small_corpus, small_vocab)
    cpus(2)
    assert norm_probe(small_encoder, small_corpus, small_vocab) == expected
    ids = make_batch(small_vocab, list(dict.fromkeys(small_corpus))[:100],
                     small_encoder.config.max_seq_len)
    assert len(expected) == 5
    for n, row in enumerate(expected):
        out = small_encoder.encode(ids, layernorms_stripped=n)
        hl = np.linalg.norm(out.last_hidden.data, axis=1)
        hp = np.linalg.norm(out.pooler.data, axis=1)
        assert (row.mean_hl, row.std_hl, row.mean_hp, row.std_hp) == \
            (hl.mean(), hl.std(), hp.mean(), hp.std())


# -- report ----------------------------------------------------------------

def test_eval_report_average_and_kv():
    r = EvalReport(per_dataset={"dev": 0.8, "test": 0.6}, alignment=0.1,
                   uniformity=-2.0)
    assert r.average_rho == pytest.approx(0.7)
    kv = r.to_kv()
    assert kv["spearman.avg"] == pytest.approx(0.7)
    assert "alignment" in kv and "uniformity" in kv
    text = r.to_text()
    assert "spearman dev 0.800000" in text
