import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse import losses as L
from tncse.autodiff import Tensor
from tncse.encoder import EncoderOutput


def random_views(rng, batch=4, d=6):
    """EncoderOutputs (I, I+, II, II+); their four h^L are drawn first, then
    their four h^P."""
    mats = [Tensor(rng.standard_normal((batch, d)) + 0.1) for _ in range(8)]
    return [EncoderOutput(hL, hP) for hL, hP in zip(mats[:4], mats[4:])]


class TestLtn:
    def test_identical_pair_is_zero(self):
        h = np.array([1.0, 2.0, 3.0])
        assert L.l_tn(h, h).item() == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair_is_one(self):
        h = np.array([1.0, -2.0, 0.5])
        assert L.l_tn(h, -h).item() == pytest.approx(1.0, rel=1e-12)

    def test_hand_value(self):
        got = L.l_tn(np.array([3.0, 0.0]), np.array([0.0, 4.0])).item()
        assert got == pytest.approx(5.0 / 7.0, rel=1e-12)

    def test_rejects_zero_norm(self):
        with pytest.raises(ValueError):
            L.l_tn(np.zeros(3), np.ones(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(5) + 0.01
        hp = rng.standard_normal(5) + 0.01
        v = L.l_tn(h, hp).item()
        assert 0.0 <= v <= 1.0 + 1e-12


class TestLtnKt:
    def test_global_minimum_at_one_one(self):
        assert L.l_tn_kt(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_values(self):
        assert L.l_tn_kt(1.0, -1.0) == pytest.approx(1.0, rel=1e-12)
        assert L.l_tn_kt(2.0, 0.0) == pytest.approx(math.sqrt(5.0) / 3.0, rel=1e-12)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            L.l_tn_kt(0.0, 0.5)
        with pytest.raises(ValueError):
            L.l_tn_kt(1.0, 1.5)

    def test_grid_nonnegative_zero_only_at_one_one(self):
        for k in (0.25 * i for i in range(1, 17)):
            for t in (i / 10.0 for i in range(-10, 11)):
                v = L.l_tn_kt(k, t)
                assert v >= 0.0
                if abs(k - 1.0) < 1e-12 and abs(t - 1.0) < 1e-12:
                    assert v == pytest.approx(0.0, abs=1e-12)
                else:
                    assert v > 0.0

    def test_monotone_decreasing_in_t_at_k_one(self):
        ts = np.linspace(-1.0, 1.0, 41)
        vals = [L.l_tn_kt(1.0, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scale_sensitivity_at_t_one(self):
        # cosine alone cannot see this: direction matches but magnitude differs
        for k in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
            assert L.l_tn_kt(k, 1.0) > 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_equivalence_bridge(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(6) + 0.01
        hp = rng.standard_normal(6) + 0.01
        k = np.linalg.norm(hp) / np.linalg.norm(h)
        t = float(np.dot(h, hp) / (np.linalg.norm(h) * np.linalg.norm(hp)))
        t = max(-1.0, min(1.0, t))
        assert L.l_tn(h, hp).item() == pytest.approx(L.l_tn_kt(k, t), rel=1e-12, abs=1e-12)


class TestInfoNce:
    def test_single_sample_is_zero(self):
        H = np.array([[1.0, 2.0]])
        assert L.info_nce(H, H).item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_two_batch_is_log_two(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert L.info_nce(H, H, tau=0.05).item() == pytest.approx(math.log(2.0), rel=1e-9)

    def test_orthogonal_two_batch(self):
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = math.log(1.0 + math.exp(-20.0))
        assert L.info_nce(H, H, tau=0.05).item() == pytest.approx(expected, rel=1e-9)

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            L.info_nce(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2))

    def test_decreases_as_positive_cosine_rises(self):
        # 2-sample batch, negatives held fixed
        neg = np.array([0.0, 1.0])
        prev = None
        for c in (0.1, 0.4, 0.7, 0.95):
            h1 = np.array([1.0, 0.0])
            pos = np.array([c, math.sqrt(1 - c * c)])
            H = np.stack([h1, neg])
            Hp = np.stack([pos, neg])
            v = L.info_nce(H, Hp, tau=0.05).item()
            if prev is not None:
                assert v < prev
            prev = v


class TestIcnce:
    """The cross-encoder term is info_nce over the two encoders' views."""

    def test_identical_single_is_zero(self):
        H = np.array([[2.0, 1.0]])
        assert L.info_nce(H, H).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_identical_matrices(self):
        H = np.eye(2)
        expected = math.log(1.0 + math.exp(-20.0))
        assert L.info_nce(H, H, tau=0.05).item() == pytest.approx(expected, rel=1e-9)


class TestLtnModulated:
    def test_perfect_cross_cosine_gives_zero(self):
        hL = np.array([[1.0, 1.0]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        assert L.l_tn_modulated(hP, hPp, hL, hL).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_composition(self):
        c = math.exp(-1.0)
        hL_I = np.array([[1.0, 0.0]])
        hL_II = np.array([[c, math.sqrt(1 - c * c)]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        got = L.l_tn_modulated(hP, hPp, hL_I, hL_II).item()
        assert got == pytest.approx(5.0 / 7.0, rel=1e-6)

    def test_nonpositive_sim_clamped(self):
        hL_I = np.array([[1.0, 0.0]])
        hL_II = np.array([[-1.0, 0.0]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        got = L.l_tn_modulated(hP, hPp, hL_I, hL_II).item()
        expected = -math.log(L.SIM_CLAMP_EPS) * (5.0 / 7.0)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rejects_zero_pooler_row(self):
        hL = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            L.l_tn_modulated(np.zeros((1, 2)), np.ones((1, 2)), hL, hL)


class TestIctn:
    def test_aligned_views_vanish(self):
        hL = Tensor(np.array([[1.0, 2.0], [0.5, 0.5]]))
        hP = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        views = [EncoderOutput(hL, hP)] * 4
        assert L.ictn(views).item() == pytest.approx(0.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        o_i, o_i_plus, o_ii, o_ii_plus = views = random_views(rng)
        swapped = [o_ii, o_ii_plus, o_i, o_i_plus]
        # first_view modulation is sim(hL_I, hL_II), symmetric under the swap
        assert L.ictn(views).item() == pytest.approx(L.ictn(swapped).item(), rel=1e-12)

    def test_recomposition(self):
        rng = np.random.default_rng(2)
        o_i, o_i_plus, o_ii, o_ii_plus = views = random_views(rng)
        t1 = L.l_tn_modulated(o_i.pooler, o_ii_plus.pooler,
                              o_i.last_hidden, o_ii.last_hidden).item()
        t2 = L.l_tn_modulated(o_ii.pooler, o_i_plus.pooler,
                              o_i.last_hidden, o_ii.last_hidden).item()
        assert L.ictn(views).item() == pytest.approx(t1 + t2, rel=1e-12)


class TestTotalLoss:
    def test_nce_only_single_sample_is_zero(self):
        rng = np.random.default_rng(3)
        views = random_views(rng, batch=1)
        cfg = L.LossConfig(enabled_terms=frozenset({"NCE"}))
        terms = L.total_loss(views, cfg)
        assert terms["total"].item() == pytest.approx(0.0, abs=1e-12)
        assert set(terms) == {"nce_i", "nce_ii", "total"}

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(4)
        views = random_views(rng)
        cfg = L.LossConfig()
        terms = L.total_loss(views, cfg)
        hL_I, hL_I_plus, hL_II, hL_II_plus = (o.last_hidden for o in views)
        parts = (L.info_nce(hL_I, hL_I_plus, cfg.tau).item()
                 + L.info_nce(hL_II, hL_II_plus, cfg.tau).item()
                 + L.info_nce(hL_I, hL_II, cfg.tau).item()
                 + L.ictn(views).item())
        assert terms["total"].item() == pytest.approx(parts, rel=1e-12)

    def test_empty_terms_rejected(self):
        # at construction, before any training step could run
        with pytest.raises(ValueError, match="non-empty"):
            L.LossConfig(enabled_terms=frozenset())

    def test_ablation_grid_shape(self):
        grid = L.ablation_grid()
        assert len(grid) == 7
        subsets = set(grid)
        assert len(subsets) == 7
        assert frozenset({"NCE", "ICNCE", "ICTN"}) in subsets

    def test_ablation_grid_table_order(self):
        assert L.ablation_grid() == [
            frozenset({"NCE"}), frozenset({"ICNCE"}), frozenset({"ICTN"}),
            frozenset({"NCE", "ICNCE"}), frozenset({"NCE", "ICTN"}),
            frozenset({"ICNCE", "ICTN"}), frozenset({"NCE", "ICNCE", "ICTN"})]

