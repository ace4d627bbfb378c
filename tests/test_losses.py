import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse import losses as L
from tncse.autodiff import Tensor
from tncse.encoder import ViewBundle
from tncse.gradcheck import check_gradients


def random_bundle(rng, batch=4, d=6):
    def m():
        return Tensor(rng.standard_normal((batch, d)) + 0.1)
    return ViewBundle(hL_I=m(), hL_I_plus=m(), hL_II=m(), hL_II_plus=m(),
                      hP_I=m(), hP_I_plus=m(), hP_II=m(), hP_II_plus=m())


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
    def test_identical_single_is_zero(self):
        H = np.array([[2.0, 1.0]])
        assert L.icnce(H, H).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_identical_matrices(self):
        H = np.eye(2)
        expected = math.log(1.0 + math.exp(-20.0))
        assert L.icnce(H, H, tau=0.05).item() == pytest.approx(expected, rel=1e-9)

    def test_equals_info_nce_by_definition(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 4)) + 0.1
        B = rng.standard_normal((5, 4)) + 0.1
        assert L.icnce(A, B, 0.05).item() == L.info_nce(A, B, 0.05).item()


class TestLtnModulated:
    CFG = L.LossConfig()

    def test_perfect_cross_cosine_gives_zero(self):
        hL = np.array([[1.0, 1.0]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        assert L.l_tn_modulated(hP, hPp, hL, hL, self.CFG).item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_composition(self):
        c = math.exp(-1.0)
        hL_I = np.array([[1.0, 0.0]])
        hL_II = np.array([[c, math.sqrt(1 - c * c)]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        got = L.l_tn_modulated(hP, hPp, hL_I, hL_II, self.CFG).item()
        assert got == pytest.approx(5.0 / 7.0, rel=1e-6)

    def test_nonpositive_sim_clamped(self):
        hL_I = np.array([[1.0, 0.0]])
        hL_II = np.array([[-1.0, 0.0]])
        hP = np.array([[3.0, 0.0]])
        hPp = np.array([[0.0, 4.0]])
        got = L.l_tn_modulated(hP, hPp, hL_I, hL_II, self.CFG).item()
        expected = -math.log(self.CFG.sim_clamp_eps) * (5.0 / 7.0)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rejects_zero_pooler_row(self):
        hL = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            L.l_tn_modulated(np.zeros((1, 2)), np.ones((1, 2)), hL, hL, self.CFG)


class TestIctn:
    CFG = L.LossConfig()

    def test_aligned_bundle_vanishes(self):
        hL = Tensor(np.array([[1.0, 2.0], [0.5, 0.5]]))
        hP = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = ViewBundle(hL_I=hL, hL_I_plus=hL, hL_II=hL, hL_II_plus=hL,
                       hP_I=hP, hP_I_plus=hP, hP_II=hP, hP_II_plus=hP)
        assert L.ictn(b, self.CFG).item() == pytest.approx(0.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        b = random_bundle(rng)
        swapped = ViewBundle(hL_I=b.hL_II, hL_I_plus=b.hL_II_plus,
                             hL_II=b.hL_I, hL_II_plus=b.hL_I_plus,
                             hP_I=b.hP_II, hP_I_plus=b.hP_II_plus,
                             hP_II=b.hP_I, hP_II_plus=b.hP_I_plus)
        # first_view modulation is sim(hL_I, hL_II), symmetric under the swap
        assert L.ictn(b, self.CFG).item() == pytest.approx(
            L.ictn(swapped, self.CFG).item(), rel=1e-12)

    def test_recomposition(self):
        rng = np.random.default_rng(2)
        b = random_bundle(rng)
        t1 = L.l_tn_modulated(b.hP_I, b.hP_II_plus, b.hL_I, b.hL_II, self.CFG).item()
        t2 = L.l_tn_modulated(b.hP_II, b.hP_I_plus, b.hL_I, b.hL_II, self.CFG).item()
        assert L.ictn(b, self.CFG).item() == pytest.approx(t1 + t2, rel=1e-12)


class TestTotalLoss:
    def test_nce_only_single_sample_is_zero(self):
        rng = np.random.default_rng(3)
        b = random_bundle(rng, batch=1)
        cfg = L.LossConfig(enabled_terms=frozenset({"NCE"}))
        lb = L.total_loss(b, cfg)
        assert lb.total.item() == pytest.approx(0.0, abs=1e-12)
        assert lb.l_icnce is None and lb.l_ictn is None

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(4)
        b = random_bundle(rng)
        cfg = L.LossConfig()
        lb = L.total_loss(b, cfg)
        parts = (L.info_nce(b.hL_I, b.hL_I_plus, cfg.tau).item()
                 + L.info_nce(b.hL_II, b.hL_II_plus, cfg.tau).item()
                 + L.icnce(b.hL_I, b.hL_II, cfg.tau).item()
                 + L.ictn(b, cfg).item())
        assert lb.total.item() == pytest.approx(parts, rel=1e-12)

    def test_empty_terms_rejected(self):
        # at construction, before any training step could run
        with pytest.raises(ValueError, match="non-empty"):
            L.LossConfig(enabled_terms=frozenset())

    def test_ablation_grid_shape(self):
        grid = L.ablation_grid()
        assert len(grid) == 8
        assert grid[0] is None
        subsets = set(grid[1:])
        assert len(subsets) == 7
        assert frozenset({"NCE", "ICNCE", "ICTN"}) in subsets


class TestLossGradients:
    def test_l_tn_gradient(self):
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            check_gradients(lambda h, hp: L.l_tn(h, hp),
                            [1.0 + rng.random(5), -1.0 - rng.random(5)], rtol=1e-6)

    def test_info_nce_gradient(self):
        for trial in range(5):
            rng = np.random.default_rng(200 + trial)
            check_gradients(lambda H, Hp: L.info_nce(H, Hp, tau=0.5),
                            [rng.standard_normal((4, 5)) + 0.2,
                             rng.standard_normal((4, 5)) + 0.2], rtol=1e-6)

    def test_ictn_gradient(self):
        cfg = L.LossConfig()
        for trial in range(3):
            rng = np.random.default_rng(300 + trial)
            mats = [1.0 + rng.random((3, 4)) for _ in range(8)]

            def f(*ts):
                b = ViewBundle(*ts)
                return L.ictn(b, cfg)

            check_gradients(f, mats, rtol=1e-6)

    def test_total_loss_gradient(self):
        cfg = L.LossConfig()
        for trial in range(3):
            rng = np.random.default_rng(400 + trial)
            mats = [0.5 + rng.random((3, 4)) for _ in range(8)]

            def f(*ts):
                return L.total_loss(ViewBundle(*ts), cfg).total

            check_gradients(f, mats, rtol=1e-6)
