"""Tests for functional ops: convolutions, pooling, activations, losses."""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def scalar_loss_grad_check(build_loss, tensors, atol=1e-5):
    """Compare autograd gradients against central differences for each tensor."""
    loss = build_loss()
    loss.backward()
    grads = [t.grad.copy() for t in tensors]
    eps = 1e-6
    for t, grad in zip(tensors, grads):
        flat = t.data.reshape(-1)
        # Check a handful of coordinates to keep the test fast.
        rng = np.random.default_rng(0)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(build_loss().data)
            flat[idx] = orig - eps
            f_minus = float(build_loss().data)
            flat[idx] = orig
            numerical = (f_plus - f_minus) / (2 * eps)
            assert abs(numerical - grad.reshape(-1)[idx]) < atol, (
                f"grad mismatch at {idx}: {numerical} vs {grad.reshape(-1)[idx]}"
            )


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        w = Tensor(np.array([[[[0, 0, 0], [0, 1, 0], [0, 0, 0]]]], dtype=float))
        out = F.conv2d(x, w, padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_output_shape_stride_padding(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)
        assert F.conv2d(x, w, stride=1, padding=0).shape == (2, 4, 6, 6)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(1, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x_data), Tensor(w_data), padding=0).data
        # Naive reference.
        expected = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, oc, i, j] = np.sum(
                        x_data[0, :, i : i + 3, j : j + 3] * w_data[oc]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data[0, 0], 1.0)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def build():
            x.zero_grad(), w.zero_grad(), b.zero_grad()
            return (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum()

        scalar_loss_grad_check(build, [x, w, b])


class TestDepthwiseConv2d:
    def test_output_shape(self):
        x = Tensor(np.zeros((2, 4, 8, 8)))
        w = Tensor(np.zeros((4, 1, 3, 3)))
        assert F.depthwise_conv2d(x, w, padding=1).shape == (2, 4, 8, 8)
        assert F.depthwise_conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_channels_independent(self):
        x_data = np.zeros((1, 2, 4, 4))
        x_data[0, 0] = 1.0  # only channel 0 has signal
        w = Tensor(np.ones((2, 1, 3, 3)))
        out = F.depthwise_conv2d(Tensor(x_data), w, padding=1)
        assert out.data[0, 1].max() == 0.0  # channel 1 untouched by channel 0
        assert out.data[0, 0].max() > 0.0

    def test_wrong_weight_shape_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError):
            F.depthwise_conv2d(x, Tensor(np.zeros((2, 2, 3, 3))))

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)

        def build():
            x.zero_grad(), w.zero_grad()
            return (F.depthwise_conv2d(x, w, padding=1) ** 2).sum()

        scalar_loss_grad_check(build, [x, w])


class TestPooling:
    def test_max_pool_values(self):
        x_data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x_data), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x_data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x_data), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_grad_goes_to_max_position(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avg_pool_grad_uniform(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad[0, 0], 0.25)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * 5.0)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 5.0)

    def test_pad2d(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = F.pad2d(x, 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))


class TestActivations:
    def test_relu6_clips_high(self):
        out = F.relu6(Tensor([-1.0, 3.0, 10.0]))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_hardsigmoid_range(self):
        x = Tensor(np.linspace(-10, 10, 50))
        out = F.hardsigmoid(x).data
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert F.hardsigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_hardswish_zero_at_negative_saturation(self):
        np.testing.assert_allclose(F.hardswish(Tensor([-5.0])).data, [0.0])

    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        probs = F.softmax(x).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_log_softmax_consistent_with_softmax(self):
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(2).normal(size=(2, 4))
        np.testing.assert_allclose(
            F.softmax(Tensor(x)).data, F.softmax(Tensor(x + 100.0)).data, atol=1e-10
        )

    def test_channel_shuffle_permutes_channels(self):
        x_data = np.arange(4, dtype=float).reshape(1, 4, 1, 1) * np.ones((1, 4, 2, 2))
        out = F.channel_shuffle(Tensor(x_data), groups=2)
        assert out.shape == x_data.shape
        # After shuffling with 2 groups, channel order becomes [0, 2, 1, 3].
        np.testing.assert_allclose(out.data[0, :, 0, 0], [0.0, 2.0, 1.0, 3.0])

    def test_channel_shuffle_invalid_groups(self):
        with pytest.raises(ValueError):
            F.channel_shuffle(Tensor(np.zeros((1, 3, 2, 2))), groups=2)

    def test_flatten(self):
        out = F.flatten(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(F.dropout(x, 0.5, training=False).data, x.data)

    def test_dropout_training_scales_surviving_units(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng).data
        surviving = out[out > 0]
        np.testing.assert_allclose(surviving, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(np.log(4))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([2]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient_check(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        targets = np.array([0, 1, 2, 3, 0])

        def build():
            logits.zero_grad()
            return F.cross_entropy(logits, targets)

        scalar_loss_grad_check(build, [logits])

    def test_bce_with_logits_matches_reference(self):
        logits = np.array([[0.5, -1.0], [2.0, 0.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-6)

    def test_bce_gradient_check(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = (rng.random((4, 3)) > 0.5).astype(float)

        def build():
            logits.zero_grad()
            return F.binary_cross_entropy_with_logits(logits, targets)

        scalar_loss_grad_check(build, [logits])

    def test_mse_loss(self):
        pred = Tensor(np.array([[1.0], [3.0]]))
        loss = F.mse_loss(pred, np.array([[0.0], [0.0]]))
        assert float(loss.data) == pytest.approx(5.0)

    def test_mse_gradient(self):
        pred = Tensor(np.array([[2.0]]), requires_grad=True)
        F.mse_loss(pred, np.array([[0.0]])).backward()
        np.testing.assert_allclose(pred.grad, [[4.0]])

    def test_l1_loss_positive(self):
        pred = Tensor(np.array([[1.0, -2.0]]))
        loss = F.l1_loss(pred, np.array([[0.0, 0.0]]))
        assert float(loss.data) == pytest.approx(1.5, rel=1e-4)


class TestEngineKernelEquivalence:
    """The flat engine's fused kernels must match the operator-composed
    reference bit-for-bit — forward values AND every gradient."""

    @staticmethod
    def _run_both(build):
        """Run `build(mode)` under each engine; returns the two result tuples."""
        from repro.nn.engine import engine_mode

        results = {}
        for mode in ("flat", "reference"):
            with engine_mode(mode):
                results[mode] = build()
        return results["flat"], results["reference"]

    @staticmethod
    def _assert_bitwise(flat, reference):
        for index, (a, b) in enumerate(zip(flat, reference)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f"item {index}"

    def test_linear_fused_bitwise(self):
        rng = np.random.default_rng(0)
        x_np, w_np, b_np = (rng.normal(size=(7, 5)), rng.normal(size=(4, 5)),
                            rng.normal(size=4))
        upstream = rng.normal(size=(7, 4))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
            out = F.linear(x, w, b)
            out.backward(upstream.copy())
            return out.data, x.grad, w.grad, b.grad

        self._assert_bitwise(*self._run_both(build))

    def test_linear_without_bias_fused_bitwise(self):
        rng = np.random.default_rng(1)
        x_np, w_np = rng.normal(size=(3, 5)), rng.normal(size=(2, 5))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w = Parameter(w_np.copy())
            out = F.linear(x, w, None)
            out.sum().backward()
            return out.data, x.grad, w.grad

        self._assert_bitwise(*self._run_both(build))

    def test_cross_entropy_fused_bitwise(self):
        rng = np.random.default_rng(2)
        logits_np = rng.normal(scale=5.0, size=(9, 6))
        targets = rng.integers(0, 6, size=9)

        def build():
            logits = Tensor(logits_np.copy(), requires_grad=True)
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            return np.asarray(loss.data), logits.grad

        self._assert_bitwise(*self._run_both(build))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_conv2d_bincount_col2im_bitwise(self, stride, padding):
        rng = np.random.default_rng(3)
        x_np = rng.normal(size=(3, 4, 8, 8))
        w_np = rng.normal(size=(5, 4, 3, 3))
        b_np = rng.normal(size=5)

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w, b = Parameter(w_np.copy()), Parameter(b_np.copy())
            out = F.conv2d(x, w, b, stride=stride, padding=padding)
            out.sum().backward()
            return out.data, x.grad, w.grad, b.grad

        self._assert_bitwise(*self._run_both(build))

    def test_depthwise_conv_bitwise(self):
        rng = np.random.default_rng(4)
        x_np = rng.normal(size=(2, 6, 10, 10))
        w_np = rng.normal(size=(6, 1, 3, 3))

        def build():
            from repro.nn.layers import Parameter

            x = Tensor(x_np.copy(), requires_grad=True)
            w = Parameter(w_np.copy())
            out = F.depthwise_conv2d(x, w, None, stride=2, padding=1)
            out.sum().backward()
            return out.data, x.grad, w.grad

        self._assert_bitwise(*self._run_both(build))

    # (N, C, H, W, out_channels, kernel, stride, padding).  Each case pins a
    # size-1 axis of the contractions: batch, output pixels (P), filters,
    # input channels, and a 1x1 kernel on one channel (nothing contracted).
    _CONV_SHAPES = {
        "base": (3, 4, 7, 7, 5, 3, 2, 1),
        "batch1": (1, 4, 6, 6, 5, 3, 1, 1),
        "output1x1": (3, 4, 3, 3, 5, 3, 1, 0),
        "out_channels1": (3, 4, 6, 6, 1, 3, 2, 1),
        "channels1": (3, 1, 6, 6, 5, 3, 1, 1),
        "kernel1x1_channels1": (2, 1, 5, 5, 4, 1, 1, 0),
        "all_ones": (1, 1, 3, 3, 1, 3, 1, 0),
    }

    def _check_conv_case(self, shape_name, dtype, upstream, depthwise):
        """Conv forward+backward under both engines.

        ``upstream="transposed"`` seeds backward with a gradient that is a
        (channel, batch)-transposed view, so the contractions see strided
        operands; ``"ones"`` is the contiguous ``out.sum()`` seed.

        Everything is bitwise except two engine differences that sit outside
        the contractions (the contractions themselves are pinned against
        ``np.einsum`` on identical operands in :class:`TestMatmulPlan`):

        * at one output pixel (P=1) the reference im2col's fancy-index
          gather leaves its columns batch-innermost in memory, einsum's
          size-1 reduction keeps that layout and BLAS rounds the GEMM
          differently, so every output is compared to tolerance;
        * in float32 the flat col2im sums contributions in float64
          (``np.bincount``) and the reference in float32 (``np.add.at``), so
          the input gradient is compared to tolerance.
        """
        from repro.nn.engine import dtype_mode
        from repro.nn.layers import Parameter

        n, c, h, w, oc, k, stride, padding = self._CONV_SHAPES[shape_name]
        oc = c if depthwise else oc
        rng = np.random.default_rng(len(shape_name))
        x_np = rng.normal(size=(n, c, h, w))
        x_np[x_np < -1.0] = -0.0  # signed zeros must survive both engines
        w_np = rng.normal(size=(oc, 1 if depthwise else c, k, k))
        b_np = rng.normal(size=oc)
        out_h = (h + 2 * padding - k) // stride + 1
        out_w = (w + 2 * padding - k) // stride + 1
        g_np = rng.normal(size=(oc, n, out_h, out_w)).astype(dtype)
        conv = F.depthwise_conv2d if depthwise else F.conv2d

        def build():
            with dtype_mode(dtype):
                x = Tensor(x_np.copy(), requires_grad=True)
                wt, b = Parameter(w_np.copy()), Parameter(b_np.copy())
                out = conv(x, wt, b, stride=stride, padding=padding)
                if upstream == "transposed":
                    out.backward(g_np.copy().transpose(1, 0, 2, 3))
                else:
                    out.sum().backward()
                return out.data, x.grad, wt.grad, b.grad

        flat, reference = self._run_both(build)
        for index, (a, b) in enumerate(zip(flat, reference)):
            assert a.dtype == b.dtype == np.dtype(dtype), f"item {index}"
            if out_h * out_w == 1 or (dtype == "float32" and index == 1):
                rtol = 1e-5 if dtype == "float32" else 1e-12
                np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol, err_msg=f"item {index}")
            else:
                assert a.tobytes() == b.tobytes(), f"item {index}"

    @pytest.mark.parametrize("upstream", ["ones", "transposed"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape_name", list(_CONV_SHAPES))
    def test_conv2d_shapes_match_reference(self, shape_name, dtype, upstream):
        self._check_conv_case(shape_name, dtype, upstream, depthwise=False)

    @pytest.mark.parametrize("upstream", ["ones", "transposed"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape_name", list(_CONV_SHAPES))
    def test_depthwise_shapes_match_reference(self, shape_name, dtype, upstream):
        self._check_conv_case(shape_name, dtype, upstream, depthwise=True)

    def test_hardswish_fused_bitwise(self):
        rng = np.random.default_rng(5)
        x_np = rng.normal(scale=4.0, size=(16, 8))
        upstream = rng.normal(size=(16, 8))

        def build():
            x = Tensor(x_np.copy(), requires_grad=True)
            out = F.hardswish(x)
            out.backward(upstream.copy())
            return out.data, x.grad

        self._assert_bitwise(*self._run_both(build))

    def test_im2col_plan_is_cached_and_frozen(self):
        from repro.nn.functional import _im2col_plan

        plan_a = _im2col_plan((3, 8, 8), (3, 3), (1, 1), (1, 1))
        plan_b = _im2col_plan((3, 8, 8), (3, 3), (1, 1), (1, 1))
        assert plan_a[0] is plan_b[0]  # same cached arrays
        with pytest.raises(ValueError):
            plan_a[0][0] = 99  # read-only

    def test_reference_engine_is_default_off(self):
        from repro.nn.engine import current_engine

        assert current_engine() == "flat"

    def test_engine_mode_restores_previous(self):
        from repro.nn.engine import current_engine, engine_mode

        with engine_mode("reference"):
            assert current_engine() == "reference"
            with engine_mode("flat"):
                assert current_engine() == "flat"
            assert current_engine() == "reference"
        assert current_engine() == "flat"

    def test_engine_mode_rejects_unknown(self):
        from repro.nn.engine import engine_mode

        with pytest.raises(ValueError):
            engine_mode("turbo")

    def test_bce_gradients_still_flow(self):
        """Regression: removing the dead zeros/max/abs tensors must not
        change the BCE value or its gradient."""
        rng = np.random.default_rng(6)
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.integers(0, 2, size=(5, 3)).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        assert logits.grad is not None
        # Stable formulation: matches the direct sigmoid-based gradient.
        probs = 1.0 / (1.0 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (probs - targets) / logits.data.size,
                                   atol=1e-12)


class TestMatmulPlan:
    """The flat engine's planned contractions against ``np.einsum(optimize=True)``.

    A plan replays numpy's own pairwise dispatch, so results must match bit
    for bit (signed zeros included) and in memory layout, which later
    reductions depend on.  A numpy upgrade that changes how einsum
    dispatches fails here first.
    """

    # equation -> operand index strings over the sizes (n, o, f, p)
    _EQUATIONS = {
        "of,nfp->nop": ("of", "nfp"),
        "nop,nfp->of": ("nop", "nfp"),
        "of,nop->nfp": ("of", "nop"),
        "ck,nckp->ncp": ("of", "nofp"),
        "ncp,nckp->ck": ("nop", "nofp"),
        "ck,ncp->nckp": ("of", "nop"),
    }

    @staticmethod
    def _operand(rng, dims, dtype, strided):
        x = rng.normal(size=dims).astype(dtype)
        x[x < -1.0] = -0.0
        x.flat[0] = -0.0
        if strided and x.ndim >= 3:
            # Same values, last two axes laid out transposed in memory.
            x = np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)
        return x

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("equation", list(_EQUATIONS))
    def test_matches_numpy_einsum(self, equation, dtype):
        from repro.nn.functional import _einsum_dispatch

        rng = np.random.default_rng(0)
        for n, o, f, p in itertools.product((1, 3), (1, 4), (1, 5), (1, 6)):
            size = dict(n=n, o=o, f=f, p=p)
            for strided in (False, True):
                a, b = (self._operand(rng, tuple(size[ix] for ix in term), dtype, strided)
                        for term in self._EQUATIONS[equation])
                expected = np.einsum(equation, a, b, optimize=True)
                got = _einsum_dispatch(equation, a, b)
                case = f"{equation} n={n} o={o} f={f} p={p} strided={strided}"
                assert got.dtype == expected.dtype, case
                assert got.shape == expected.shape, case
                assert got.strides == expected.strides, case
                assert got.tobytes() == expected.tobytes(), case

    def test_plan_cache_keyed_by_size_one_mask(self):
        from repro.nn.functional import _einsum_dispatch, _matmul_plan

        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 5))
        _matmul_plan.cache_clear()
        for n in range(2, 12):
            for p in (7, 9):
                _einsum_dispatch("of,nfp->nop", w, rng.normal(size=(n, 5, p)))
        assert _matmul_plan.cache_info().currsize == 1
        _einsum_dispatch("of,nfp->nop", w, rng.normal(size=(1, 5, 7)))  # batch of one
        _einsum_dispatch("of,nfp->nop", w, rng.normal(size=(1, 5, 1)))
        assert _matmul_plan.cache_info().currsize == 3

    @pytest.mark.parametrize("layer", ["conv2d", "depthwise_conv2d"])
    def test_flat_engine_never_searches_a_path(self, layer, monkeypatch):
        """A conv layer's forward and backward under the flat engine makes no
        ``einsum_path`` call, and the profiler still sees one ``einsum`` call
        per contraction: 3 per layer."""
        from repro.nn.layers import Parameter
        from repro.obs import profile_kernels

        def forbidden(*args, **kwargs):
            raise AssertionError("einsum_path called on the flat engine")

        # np.einsum resolves einsum_path in its own module, so patch it there too.
        monkeypatch.setattr(np, "einsum_path", forbidden)
        monkeypatch.setattr("numpy._core.einsumfunc.einsum_path", forbidden)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        w = Parameter(rng.normal(size=(4, 1 if layer == "depthwise_conv2d" else 4, 3, 3)))
        with profile_kernels() as profiler:
            profiler.drain()
            getattr(F, layer)(x, w, padding=1).sum().backward()
            counts = profiler.drain()
        assert counts["einsum"][0] == 3
        assert x.grad is not None and w.grad is not None
