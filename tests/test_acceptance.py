"""Acceptance gate for the release: each test pins one contract of the
framework at a fixed tolerance and emits a single PASS/FAIL line.

The ten contracts:
 1 norm-loss surface (non-negativity, unique minimum, closed-form bridge)
 2 closed-form contrastive/norm loss values
 3 finite-difference gradient oracle over primitives and losses
 4 loss-term ablation improves over the untrained dual baseline
 5 single-encoder norm-constraint variant is non-degrading
 6 exact sum-ensemble inference rule
 7 LayerNorm norm-concentration probe
 8 teacher-to-student distillation
 9 bit-exact reproducibility and the seeds-1-to-5 significance harness
10 rank-correlation and hypersphere-metric correctness

Run order matters only for wall-clock: the training-based contracts share
one module-scoped synthetic workspace and one ablation run.
"""

import itertools
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tncse import losses as L
from tncse import pipeline as pl
from tncse.autodiff import Tensor
from tncse.checkpoint import checkpoint_hash, load_encoder
from tncse.data import make_batch
from tncse.encoder import Encoder
from tncse.evaluation import alignment, norm_probe, spearman, uniformity
from tncse.gradsuite import run_gradient_suite
from tncse.training import TrainConfig, pretrain_single, train_single_tn


# One line per contract; echoed into the run summary by the
# pytest_terminal_summary hook in conftest.py.
CRITERION_LINES = []


@contextmanager
def criterion(num, name, budget_s, fixture_s=None):
    """Record exactly one PASS/FAIL line per contract.  ``fixture_s`` is the
    time a module fixture spent on the contract's behalf; it is shown beside
    the body's time and is not part of the body's budget."""
    t0 = time.time()
    fixture = "" if fixture_s is None else f" + fixture {fixture_s:.1f}s"
    try:
        yield
    except BaseException:
        line = f"[criterion {num:2d}] {name}: FAIL ({time.time() - t0:.1f}s{fixture})"
        CRITERION_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    dt = time.time() - t0
    line = f"[criterion {num:2d}] {name}: PASS ({dt:.1f}s{fixture})"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert dt < budget_s, f"runtime {dt:.1f}s exceeded budget {budget_s}s"


# -- shared workspace and training artifacts -------------------------------

@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def cfg_ws(run_root):
    from tncse.cli import main
    data = run_root / "data"
    assert main(["gen-data", "--out", str(data), "--seed", "1"]) == 0
    cfg = pl.resolve_config({"data.corpus": f"{data}/corpus.txt",
                             "data.sts_dev": f"{data}/sts_dev.tsv",
                             "data.sts_test": f"{data}/sts_test.tsv"})
    return cfg, pl.load_workspace(cfg)


@pytest.fixture(scope="module")
def ablation(cfg_ws, run_root):
    """One full default-config ablation run at seed 1; also provides the
    pretrained and fully-trained checkpoints reused by later contracts."""
    cfg, ws = cfg_ws
    out = run_root / "ablation"
    out.mkdir()
    t0 = time.time()
    rows = pl.run_ablation(cfg, ws, str(out))
    return rows, str(out), time.time() - t0


# -- 1: loss surface -------------------------------------------------------

def test_norm_loss_surface_minimum_and_closed_form_bridge():
    with criterion(1, "norm-loss surface", budget_s=5):
        for k in (0.25 * i for i in range(1, 17)):
            for t in (i / 10.0 for i in range(-10, 11)):
                v = L.l_tn_kt(k, t)
                assert v >= 0.0
                if abs(k - 1.0) < 1e-15 and abs(t - 1.0) < 1e-15:
                    assert abs(v) <= 1e-12
                else:
                    assert v > 0.0
        rng = np.random.default_rng(12345)
        for _ in range(10_000):
            h = rng.standard_normal(6)
            hp = rng.standard_normal(6)
            if np.linalg.norm(h) < 1e-3 or np.linalg.norm(hp) < 1e-3:
                continue
            k = np.linalg.norm(hp) / np.linalg.norm(h)
            t = float(np.dot(h, hp) / (np.linalg.norm(h) * np.linalg.norm(hp)))
            t = min(1.0, max(-1.0, t))
            direct = L.l_tn(h, hp).item()
            bridged = L.l_tn_kt(k, t)
            assert abs(direct - bridged) <= 1e-12 * max(1.0, abs(direct))


# -- 2: closed-form loss values --------------------------------------------

def test_closed_form_contrastive_and_norm_loss_values():
    with criterion(2, "closed-form loss values", budget_s=1):
        single = Tensor(np.array([[1.0, 0.0]]))
        assert abs(L.info_nce(single, single, tau=1.0).item()) <= 1e-9

        pair = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        got = L.info_nce(pair, pair, tau=1.0).item()
        assert abs(got - math.log(2.0)) <= 1e-9

        ortho = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        got = L.info_nce(ortho, ortho, tau=0.05).item()
        assert abs(got - math.log(1.0 + math.exp(-20.0))) <= 1e-9

        got = L.l_tn(np.array([3.0, 0.0]), np.array([0.0, 4.0])).item()
        assert abs(got - 5.0 / 7.0) <= 1e-12


# -- 3: gradient oracle ----------------------------------------------------

def test_gradient_oracle_over_primitives_and_losses():
    with criterion(3, "finite-difference gradient oracle", budget_s=120):
        results = run_gradient_suite(n_trials=20, rtol=1e-6)
        assert len(results) >= 20
        encoder_cases = {f"encoder_attention_composite{s}"
                         for s in ("", "_2layer", "_2layer_dropout")}
        assert encoder_cases <= {r.name for r in results}
        failed = [r for r in results if not r.passed]
        assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


# -- 4: ablation directionality --------------------------------------------

def test_ablation_grid_beats_untrained_baseline(ablation):
    rows, _, elapsed = ablation
    with criterion(4, "loss-term ablation", budget_s=1200, fixture_s=elapsed):
        assert elapsed < 1190, f"ablation run took {elapsed:.0f}s"
        table = dict(rows)
        assert len(rows) == 8 and "none" in table
        full = table["ICNCE+ICTN+NCE"]
        assert full > table["none"], (full, table["none"])
        ictn_combos = [v for k, v in table.items()
                       if "ICTN" in k.split("+") and k != "none"]
        assert any(v > table["NCE"] for v in ictn_combos), table


# -- 5: single-encoder norm constraint is non-degrading --------------------

def test_single_encoder_norm_constraint_non_degrading(cfg_ws):
    cfg, ws = cfg_ws
    with criterion(5, "single-encoder norm constraint", budget_s=900):
        for seed in (1, 2, 3):
            tc = TrainConfig(seed=seed, batch_size=32, steps=200,
                             eval_interval=25, learning_rate=1e-3)
            base = Encoder(pl.encoder_config(cfg, ws.vocab), seed=seed * 101,
                           name="B", vocab_hash=ws.vocab.content_hash())
            con = Encoder(pl.encoder_config(cfg, ws.vocab), seed=seed * 101,
                          name="B", vocab_hash=ws.vocab.content_hash())
            log_b = pretrain_single(base, ws.corpus, ws.sts_dev, ws.vocab, tc,
                                    augment_table=ws.synonyms)
            log_c = train_single_tn(con, ws.corpus, ws.sts_dev, ws.vocab, tc,
                                    augment_table=ws.synonyms)
            assert log_c.best_spearman >= log_b.best_spearman - 0.02, (
                seed, log_c.best_spearman, log_b.best_spearman)


# -- 6: sum-ensemble inference rule ----------------------------------------

def test_ensemble_is_exact_sum_in_double_precision(cfg_ws):
    cfg, ws = cfg_ws
    with criterion(6, "sum-ensemble linearity", budget_s=10):
        from tncse.ensemble import EnsembleModel, ensemble_embed
        ec = pl.encoder_config(cfg, ws.vocab)
        a = Encoder(ec, seed=21, name="I").astype(np.float64)
        b = Encoder(ec, seed=22, name="II").astype(np.float64)
        rng = np.random.default_rng(6)
        sentences = [ws.corpus[i] for i in rng.choice(len(ws.corpus), 100,
                                                      replace=False)]
        batch = make_batch(ws.vocab, sentences, ec.max_seq_len)
        total = ensemble_embed(EnsembleModel([a, b]), batch)
        manual = a.encode(batch).last_hidden.data.copy()
        manual = manual + b.encode(batch).last_hidden.data
        assert total.dtype == np.float64
        assert np.array_equal(total, manual)  # bit-for-bit


# -- 7: norm probe ---------------------------------------------------------

def test_layernorm_concentrates_last_hidden_norms(cfg_ws, ablation):
    cfg, ws = cfg_ws
    _, out, _ = ablation
    with criterion(7, "norm-concentration probe", budget_s=60):
        enc = load_encoder(os.path.join(out, "pretrained", "encoder_I"))
        rows = norm_probe(enc, ws.corpus, ws.vocab)
        intact, stripped = rows[0], rows[-1]  # no LayerNorm stripped, all stripped
        assert intact.cv_hl < stripped.cv_hl, (intact.cv_hl, stripped.cv_hl)
        assert intact.cv_hp > intact.cv_hl, (intact.cv_hp, intact.cv_hl)


# -- 8: distillation -------------------------------------------------------

def test_distillation_compresses_the_ensemble(cfg_ws, ablation, run_root):
    cfg, ws = cfg_ws
    _, abl_out, _ = ablation
    with criterion(8, "ensemble distillation", budget_s=900):
        teacher_dir = os.path.join(abl_out, "subset_ICNCE_ICTN_NCE")
        manifest = os.path.join(teacher_dir, "ensemble.manifest")
        h_before = [checkpoint_hash(os.path.join(teacher_dir, m))
                    for m in ("encoder_I", "encoder_II")]
        dcfg = dict(cfg)
        dcfg["distill.teacher"] = manifest
        out = run_root / "distill"
        out.mkdir()
        _, log = pl.run_distill(dcfg, ws, str(out))
        h_after = [checkpoint_hash(os.path.join(teacher_dir, m))
                   for m in ("encoder_I", "encoder_II")]
        assert h_after == h_before  # teacher untouched
        assert log.probe_loss_best < log.probe_loss_step0, (
            log.probe_loss_best, log.probe_loss_step0)
        assert log.spearman_best > log.spearman_untrained, (
            log.spearman_best, log.spearman_untrained)


# -- 9: reproducibility and significance -----------------------------------

def test_bit_exact_reruns_and_significance_seeds(cfg_ws, run_root):
    cfg, ws = cfg_ws
    with criterion(9, "reproducibility + significance", budget_s=600):
        short = dict(cfg)
        short["pretrain.steps"] = 30
        short["pretrain.eval_interval"] = 15
        # (a) identical config + seed -> bit-identical checkpoints and logs
        out_a, out_b = run_root / "repro_a", run_root / "repro_b"
        out_a.mkdir(), out_b.mkdir()
        pl.run_pretrain_pair(short, ws, str(out_a))
        pl.run_pretrain_pair(short, ws, str(out_b))
        for name in ("encoder_I", "encoder_II"):
            assert checkpoint_hash(str(out_a / name)) == \
                   checkpoint_hash(str(out_b / name))
            log_a = (out_a / f"{name}.trainlog.csv").read_text()
            log_b = (out_b / f"{name}.trainlog.csv").read_text()
            assert log_a == log_b
        # (b) truncated significance run covers exactly seeds 1..5
        short["pretrain.steps"] = 20
        short["pretrain.eval_interval"] = 10
        short["train.steps"] = 200
        short["train.eval_interval"] = 50
        sig_out = run_root / "significance"
        sig_out.mkdir()
        rows, summary = pl.run_significance(short, ws, str(sig_out))
        assert [seed for seed, _ in rows] == [1, 2, 3, 4, 5]
        csv = (sig_out / "significance.csv").read_text().splitlines()
        assert csv[0] == "seed,val_spearman"
        assert [line.split(",")[0] for line in csv[1:6]] == ["1", "2", "3", "4", "5"]
        assert csv[6].startswith("mean,") and csv[7].startswith("std,")
        assert "mean" in summary and "std" in summary


# -- 10: metric correctness ------------------------------------------------

def test_rank_correlation_and_hypersphere_metrics_exact():
    with criterion(10, "metric correctness", budget_s=10):
        def oracle(pred, gold):
            def ranks(x):
                x = np.asarray(x, dtype=float)
                return np.array([(np.sum(x < xi) + 1 + np.sum(x <= xi)) / 2.0
                                 for xi in x])
            ra, rb = ranks(pred), ranks(gold)
            ra, rb = ra - ra.mean(), rb - rb.mean()
            return float((ra * rb).sum()
                         / math.sqrt((ra * ra).sum() * (rb * rb).sum()))

        for n in range(2, 7):
            gold = [float(i) for i in range(n)]
            for perm in itertools.permutations(range(n)):
                pred = [float(p) for p in perm]
                assert spearman(pred, gold) == pytest.approx(
                    oracle(pred, gold), abs=1e-12)

        # hypersphere closed forms
        assert abs(alignment(np.array([[2.0, 0.0]]),
                             np.array([[0.0, 3.0]])) - 2.0) <= 1e-9
        assert abs(alignment(np.array([[1.0, 0.0]]),
                             np.array([[-4.0, 0.0]])) - 4.0) <= 1e-9
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(uniformity(X) - (-8.0)) <= 1e-9
        assert abs(uniformity(np.eye(3)) - (-4.0)) <= 1e-9
        assert abs(alignment(np.eye(4), np.eye(4))) <= 1e-9
