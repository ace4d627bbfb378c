import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncse import autodiff as ad
from tncse import losses as L
from tncse.autodiff import RngStreams, Tensor
from tncse.gradsuite import _loss_cases, _primitive_cases, check_gradients


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        A = rand(rng, 3, 3)
        out = ad.matmul(Tensor(A), Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, A)

    def test_hand_evaluated(self):
        A = Tensor([[1.0, 2.0], [3.0, 4.0]])
        B = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(ad.matmul(A, B).data, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        # operands with fewer than 2 dims are refused too
        for a_shape, b_shape in (((2, 3), (2, 3)), ((3,), (3, 2)), ((2, 3), (3,))):
            with pytest.raises(ValueError, match=re.escape(f"{a_shape} @ {b_shape}")):
                ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_unequal_leading_dims_are_refused(self):
        # the backward returns each operand's gradient at the product's
        # leading dims, so broadcasting operands are refused up front
        for a_shape, b_shape in (((2, 3, 4), (4, 5)), ((1, 3, 4), (2, 4, 5)),
                                 ((2, 2, 3, 4), (2, 1, 4, 5))):
            with pytest.raises(ValueError, match=re.escape(f"{a_shape} @ {b_shape}")):
                ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_row(self):
        out = ad.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_beta_is_a_shift(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 5, 8)
        g = np.ones(8)
        b = rng.standard_normal(8)
        base = ad.layer_norm(Tensor(x), Tensor(g), Tensor(np.zeros(8))).data
        shifted = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        np.testing.assert_allclose(shifted, base + b, rtol=1e-12)

    def test_rejects_width_one(self):
        with pytest.raises(ValueError):
            ad.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))


class TestExactForward:
    """The fused and restructured forward kernels equal the plain numpy
    formulas bit for bit, so encoder outputs do not depend on them."""

    @pytest.mark.parametrize("batch, seq_len, d, f", [
        (32, 16, 64, 256), (64, 16, 64, 256), (32, 32, 128, 512), (64, 32, 128, 512)])
    def test_linear_equals_matmul_plus_bias(self, batch, seq_len, d, f):
        rng = np.random.default_rng(batch + seq_len)
        # q/k/v/o, ffn1, ffn2 on (batch, seq_len, .) rows, the pooler on (batch, d)
        for lead, n_in, n_out in (((batch, seq_len), d, d), ((batch, seq_len), d, f),
                                  ((batch, seq_len), f, d), ((batch,), d, d)):
            x = rng.standard_normal((*lead, n_in)).astype(np.float32)
            w = (0.02 * rng.standard_normal((n_in, n_out))).astype(np.float32)
            b = (0.1 * rng.standard_normal(n_out)).astype(np.float32)
            got = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, np.matmul(x, w) + b)

    @pytest.mark.parametrize("n_in, n_out", [(32, 32), (64, 64), (64, 256), (256, 64),
                                             (128, 128), (128, 512), (512, 128)])
    def test_linear_row_does_not_depend_on_the_row_count(self, n_in, n_out):
        """Fewer than 16 rows run zero-padded to 16, so rows 1-16 of any
        product equal the same rows of a 64-row product bit for bit."""
        rng = np.random.default_rng(n_in + n_out)
        x = rng.standard_normal((64, n_in)).astype(np.float32)
        w = (0.02 * rng.standard_normal((n_in, n_out))).astype(np.float32)
        b = (0.1 * rng.standard_normal(n_out)).astype(np.float32)
        full = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
        for m in range(1, 17):
            got = ad.linear(Tensor(x[:m]), Tensor(w), Tensor(b)).data
            np.testing.assert_array_equal(got, full[:m], err_msg=f"{m} rows")

    def test_linear_rejects_mismatched_shapes(self):
        for w_shape, b_shape in (((5, 3), (3,)), ((4, 3), (4,)), ((4, 3), (1,))):
            with pytest.raises(ValueError, match="linear shape mismatch"):
                ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros(w_shape)),
                          Tensor(np.zeros(b_shape)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 33),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=100, deadline=None)
    def test_softmax_equals_the_max_shifted_formula(self, seed, width, dtype):
        rng = np.random.default_rng(seed)
        a = (4.0 * rng.standard_normal((2, 3, width))).astype(dtype)
        # the encoder's additive key mask: 0 or -1e9 per key, shared by rows
        mask = np.where(rng.random((2, 1, width)) < 0.3, -1e9, 0.0).astype(dtype)
        z = a + mask
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        # the row sum runs over the row zero-padded to a multiple of 8
        padded = np.concatenate([e, np.zeros((2, 3, -width % 8), dtype)], axis=-1)
        got = ad.softmax(Tensor(a), additive_mask=mask).data
        np.testing.assert_array_equal(got, e / padded.sum(axis=-1, keepdims=True))
        if width % 8 == 0:
            np.testing.assert_array_equal(got, e / e.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_ignores_trailing_masked_keys(self, dtype):
        """A row with trailing -1e9 keys, as an untrimmed padded batch has,
        equals the softmax of the row without them bit for bit."""
        rng = np.random.default_rng(13)
        for width in range(1, 34):
            a = (4.0 * rng.standard_normal((2, 3, width))).astype(dtype)
            want = ad.softmax(Tensor(a)).data
            for extra in (1, 3, 4, 7, 8, 13, 31):
                tail = (4.0 * rng.standard_normal((2, 3, extra))).astype(dtype)
                mask = np.concatenate([np.zeros(width), np.full(extra, -1e9)]).astype(dtype)
                got = ad.softmax(Tensor(np.concatenate([a, tail], axis=-1)),
                                 additive_mask=mask).data
                np.testing.assert_array_equal(got[..., :width], want)
                assert not got[..., width:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_equals_the_np_var_formula(self, dtype):
        rng = np.random.default_rng(11)
        for shape in ((32, 16, 64), (64, 32, 128), (3, 6)):
            x = (2.0 * rng.standard_normal(shape) + 0.5).astype(dtype)
            g = (1.0 + 0.1 * rng.standard_normal(shape[-1])).astype(dtype)
            b = (0.1 * rng.standard_normal(shape[-1])).astype(dtype)
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            want = g * ((x - mu) * (1.0 / np.sqrt(var + 1e-5))) + b
            np.testing.assert_array_equal(
                ad.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data, want)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_dropout_equals_x_times_keep_times_scale(self, p):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((32, 16, 64)).astype(np.float32),
                   requires_grad=True)
        g = rng.standard_normal(x.shape).astype(np.float32)
        out = ad.dropout(x, p, RngStreams(9).get("d"))
        ad.sum_(ad.mul(out, Tensor(g))).backward()
        keep = (RngStreams(9).get("d").random(x.shape) >= p).astype(np.float32)
        s = 1.0 / (1.0 - p)
        np.testing.assert_array_equal(out.data, x.data * keep * s)
        np.testing.assert_array_equal(x.grad, g * keep * s)

    def test_embedding_backward_matches_add_at_on_repeated_ids(self):
        rng = np.random.default_rng(13)
        table = Tensor(rng.standard_normal((200, 8)).astype(np.float32),
                       requires_grad=True)
        ids = rng.integers(2, 200, size=(32, 16))
        ids[:, 0] = 1        # [CLS] and padding repeat in every row, and 352
        ids[:, 12:] = 0      # draws from 198 ids repeat many of them
        g = rng.standard_normal((32, 16, 8)).astype(np.float32)
        ad.sum_(ad.mul(ad.embedding(table, ids), Tensor(g))).backward()
        want = np.zeros_like(table.data)
        np.add.at(want, ids, g)
        assert np.linalg.norm(table.grad - want) <= 1e-6 * np.linalg.norm(want)
        untouched = np.setdiff1d(np.arange(200), ids)
        assert untouched.size and not table.grad[untouched].any()


class TestNormAndCosine:
    def test_l2_norm_hand_value(self):
        assert ad.l2_norm(Tensor([3.0, 4.0])).item() == pytest.approx(5.0)

    def test_l2_norm_zero_vector(self):
        assert ad.l2_norm(Tensor([0.0, 0.0])).item() == 0.0

    def test_l2_norm_homogeneity(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 7)
        for c in (-2.5, 0.3, 10.0):
            assert ad.l2_norm(Tensor(c * x)).item() == pytest.approx(
                abs(c) * ad.l2_norm(Tensor(x)).item())


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor(np.arange(6.0))
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_fixed_seed_replays_identically(self):
        x = Tensor(np.ones((4, 8)))
        a = ad.dropout(x, 0.3, RngStreams(42).get("s")).data
        b = ad.dropout(x, 0.3, RngStreams(42).get("s")).data
        np.testing.assert_array_equal(a, b)

    def test_mean_preserving(self):
        # Monte-Carlo: E[dropout(x)] == x
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.1, np.random.default_rng(7))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_p_rejected(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(Tensor([1.0]), p, np.random.default_rng(0))

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_draws_one_uniform_per_element(self, n_blocks):
        """A stack of ``n_blocks`` row blocks draws one uniform per element
        of ``x`` from its one stream: dropout leaves it where
        ``rng.random(x.shape)`` leaves it, and the first block is masked as a
        lone call on that block is."""
        x = Tensor(np.ones((2 * n_blocks, 2, 7)))
        rng, ref = RngStreams(11).get("d"), RngStreams(11).get("d")
        out = ad.dropout(x, 0.3, rng)
        lone = ad.dropout(Tensor(np.ones((2, 2, 7))), 0.3, RngStreams(11).get("d"))
        np.testing.assert_array_equal(out.data[:2], lone.data)
        ref.random(x.shape)
        assert rng.random() == ref.random()


class TestEngineContracts:
    def test_double_backward_rejected(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.sum_(ad.mul(x, x))
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_forward_determinism(self):
        def run():
            streams = RngStreams(3)
            x = Tensor(np.linspace(-1, 1, 24).reshape(4, 6))
            h = ad.tanh(ad.matmul(x, Tensor(np.ones((6, 6)))))
            h = ad.dropout(h, 0.2, streams.get("d"))
            return ad.softmax(h).data
        np.testing.assert_array_equal(run(), run())

    def test_grad_accumulates_over_shared_use(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = ad.sum_(ad.add(ad.mul(x, x), x))  # x^2 + x
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()

    def test_finite_grads_on_deep_graph(self):
        rng = np.random.default_rng(8)
        x = Tensor(rand(rng, 4, 8), requires_grad=True)
        h = x
        for _ in range(5):
            h = ad.tanh(ad.matmul(h, Tensor(rand(rng, 8, 8))))
        ad.sum_(ad.mul(h, h)).backward()
        assert np.all(np.isfinite(x.grad))

    def test_backward_seeded_at_two_roots_equals_the_scalar_backward(self):
        """Roots h and p = tanh(h @ v), h an ancestor of p, seeded with gh and
        gp, give the gradients of sum(h * gh) + sum(p * gp); a root seeded
        with None adds nothing."""
        gh, gp = rand(np.random.default_rng(4), 2, 3, 4)

        def run():
            rng = np.random.default_rng(5)
            x = Tensor(rand(rng, 3, 5), requires_grad=True)
            w, v = (Tensor(rand(rng, *s), requires_grad=True) for s in ((5, 4), (4, 4)))
            h = ad.tanh(ad.matmul(x, w))
            return (x, w, v), h, ad.tanh(ad.matmul(h, v))

        leaves, h, p = run()
        ad._backward([h, p], [gh, gp])
        ref, rh, rp = run()
        ad.add(ad.sum_(ad.mul(rh, Tensor(gh))), ad.sum_(ad.mul(rp, Tensor(gp)))).backward()
        for a, b in zip(leaves, ref):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12)
        leaves, h, p = run()
        ad._backward([h, p], [None, gp])
        ref, rh, rp = run()
        ad.sum_(ad.mul(rp, Tensor(gp))).backward()
        for a, b in zip(leaves, ref):
            np.testing.assert_allclose(a.grad, b.grad, rtol=1e-12)

    def test_leaves_fed_one_gradient_array_get_their_own_copies(self):
        # add hands the same g to both parents
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        ad.sum_(ad.add(a, b)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


# kernels that finish in place on arrays they allocate: (function, input shapes)
IN_PLACE_KERNELS = {
    "linear": (ad.linear, [(32, 16, 8), (8, 12), (12,)]),
    "linear_short": (ad.linear, [(3, 8), (8, 12), (12,)]),  # padded to 16 rows
    "layer_norm": (ad.layer_norm, [(4, 5, 8), (8,), (8,)]),
    "softmax": (lambda a, m: ad.softmax(a, additive_mask=m.data),
                [(2, 3, 5, 5), (2, 1, 1, 5)]),
    "tanh": (ad.tanh, [(4, 5, 8)]),
    "dropout": (lambda x: ad.dropout(x, 0.25, np.random.default_rng(5)), [(4, 5, 8)]),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE_KERNELS))
def test_in_place_kernels_leave_inputs_and_saved_arrays_alone(name):
    """The forward leaves its inputs as they were, and a backward closure
    called twice returns equal arrays, so neither pass writes into an array
    that the graph keeps."""
    fn, shapes = IN_PLACE_KERNELS[name]
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out_data = out.data.copy()
    for t, a in zip(tensors, arrays):
        np.testing.assert_array_equal(t.data, a)
    g = rng.standard_normal(out.shape).astype(np.float32)
    first = [pg.copy() for pg in out._backward_fn(g.copy())]
    second = out._backward_fn(g.copy())
    for a, b in zip(first, second, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out.data, out_data)
    for t, a in zip(tensors, arrays):
        np.testing.assert_array_equal(t.data, a)


GRADIENT_CASES = {**_primitive_cases(), **_loss_cases()}


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_gradsuite_case_matches_finite_differences(name):
    f, make = GRADIENT_CASES[name]
    for trial in range(5):
        rng = np.random.default_rng(1000 + 17 * trial)
        check_gradients(f, make(rng), rtol=1e-6)


def _public_functions(module):
    return {name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def test_gradsuite_has_a_case_for_every_public_primitive():
    assert _public_functions(ad) - {"as_tensor"} - set(_primitive_cases()) == set()


def test_gradsuite_has_a_case_for_every_graph_building_loss():
    # l_tn_kt is the closed form on floats; ablation_grid builds no graph
    losses = _public_functions(L) - {"l_tn_kt", "ablation_grid"}
    assert {f"loss_{name}" for name in losses} - set(_loss_cases()) == set()
