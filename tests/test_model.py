import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (closure_arrays, measured_receptive_field, mul_const,
                      naive_causal_conv, reference_forward,
                      stdout_on_blas_threads, tiny_config)

from tcnbind import autodiff as ad
from tcnbind import model as tcn_model
from tcnbind.autodiff import Tensor
from tcnbind.attribution import integrated_gradients, make_shuffled_baselines
from tcnbind.data import SyntheticSpec, generate_synthetic, one_hot
from tcnbind.model import (Conv1dParams, ModelConfig, TcnBlockParams, TcnModel,
                           parameter_shapes,
                           conv1d_causal, init_parameters, receptive_field,
                           tcn_block)
from tcnbind.training import (ModelCheckpoint, TrainConfig, _sigmoid_stable,
                              bce_multilabel_loss, build_model,
                              predict_scores, train)


def conv_params(seed, out_ch, in_ch, k, dilation=1, scale=0.5):
    rng = np.random.default_rng(seed)
    return Conv1dParams(
        weights=Tensor(rng.uniform(-scale, scale, (out_ch, in_ch, k)).astype(np.float32),
                       requires_grad=True),
        bias=Tensor(rng.uniform(-scale, scale, out_ch).astype(np.float32),
                    requires_grad=True),
        dilation=dilation)


class TestConv1dCausal:
    def test_identity_filter(self):
        p = Conv1dParams(Tensor(np.ones((1, 1, 1), dtype=np.float32)),
                         Tensor(np.zeros(1, dtype=np.float32)), dilation=1)
        x = np.random.default_rng(0).uniform(-1, 1, (1, 10, 1)).astype(np.float32)
        np.testing.assert_array_equal(conv1d_causal(Tensor(x), p).data, x)

    def test_channel_mismatch(self):
        p = conv_params(1, out_ch=2, in_ch=3, k=2)
        with pytest.raises(ValueError):
            conv1d_causal(Tensor(np.zeros((1, 5, 4), dtype=np.float32)), p)

    @pytest.mark.parametrize("shape", [(5, 3), (5,), (1, 1, 5, 3)])
    def test_only_batched_input_accepted(self, shape):
        p = conv_params(1, out_ch=2, in_ch=3, k=2)
        with pytest.raises(ValueError, match=r"\[B, L, 3\]"):
            conv1d_causal(Tensor(np.zeros(shape, dtype=np.float32)), p)

    def test_length_preserved_across_dilations(self):
        for d in (1, 2, 4, 8):
            p = conv_params(d, out_ch=3, in_ch=2, k=4, dilation=d)
            out = conv1d_causal(Tensor(np.zeros((1, 19, 2), dtype=np.float32)), p)
            assert out.shape == (1, 19, 3)

    def test_acgt_hand_case_matches_oracle(self):
        x = one_hot("ACGT")
        p = conv_params(2, out_ch=2, in_ch=4, k=2, dilation=2)
        got = conv1d_causal(Tensor(x[None]), p).data[0]
        want = naive_causal_conv(x, p.weights.data, p.bias.data, 2)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_d1_equals_direct_convolution(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(4, 24))
        in_ch = int(rng.integers(1, 5))
        out_ch = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        x = rng.uniform(-0.5, 0.5, (length, in_ch)).astype(np.float32)
        p = conv_params(seed + 100, out_ch, in_ch, k, dilation=1)
        got = conv1d_causal(Tensor(x[None]), p).data[0]
        want = naive_causal_conv(x, p.weights.data, p.bias.data, 1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("dilation", [1, 2, 3, 4])
    def test_dilated_matches_oracle(self, dilation):
        rng = np.random.default_rng(dilation)
        x = rng.uniform(-0.5, 0.5, (17, 3)).astype(np.float32)
        p = conv_params(dilation + 50, out_ch=2, in_ch=3, k=3, dilation=dilation)
        got = conv1d_causal(Tensor(x[None]), p).data[0]
        want = naive_causal_conv(x, p.weights.data, p.bias.data, dilation)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (4, 12, 3)).astype(np.float32)
        p = conv_params(10, out_ch=5, in_ch=3, k=3, dilation=2)
        batched = conv1d_causal(Tensor(x), p).data
        for i in range(4):
            single = conv1d_causal(Tensor(x[i:i + 1]), p).data
            np.testing.assert_array_equal(batched[i:i + 1], single)

    def test_gradients_match_finite_differences(self):
        p = conv_params(11, out_ch=3, in_ch=2, k=3, dilation=2)
        x = Tensor(np.random.default_rng(12).uniform(-1, 1, (1, 8, 2)).astype(np.float32))

        err_x = ad.finite_difference_check(
            lambda t: ad.reduce_sum(mul_const(conv1d_causal(t, p),
                                              Tensor(np.random.default_rng(13)
                                                     .uniform(-1, 1, (1, 8, 3))
                                                     .astype(np.float32)))),
            x, eps=1e-3)
        assert err_x < 1e-3

        def loss_of_weights(w):
            params = Conv1dParams(w, p.bias, p.dilation)
            return ad.reduce_sum(conv1d_causal(x, params))

        err_w = ad.finite_difference_check(loss_of_weights, p.weights, eps=1e-3)
        assert err_w < 1e-3

        def loss_of_bias(b):
            params = Conv1dParams(p.weights, b, p.dilation)
            return ad.reduce_sum(ad.relu(conv1d_causal(x, params)))

        err_b = ad.finite_difference_check(loss_of_bias, p.bias, eps=1e-3)
        assert err_b < 1e-3

    def test_pad_amount_preserves_length_under_valid_conv(self):
        # left padding by (k-1)*d then a valid convolution keeps length L
        k, d, length = 3, 2, 11
        x = np.random.default_rng(14).uniform(-1, 1, (length, 1)).astype(np.float32)
        padded = np.pad(x, (((k - 1) * d, 0), (0, 0)))
        w = np.random.default_rng(15).uniform(-1, 1, (1, 1, k)).astype(np.float32)
        valid = [sum(w[0, 0, i] * padded[t + (k - 1 - i) * d, 0] for i in range(k))
                 for t in range(length)]
        p = Conv1dParams(Tensor(w), Tensor(np.zeros(1, dtype=np.float32)), d)
        np.testing.assert_allclose(conv1d_causal(Tensor(x[None]), p).data[0, :, 0],
                                   valid, atol=1e-5)


class TestConvStride:
    """A conv of stride s emits the stride-1 output at t = L-1 (mod s),
    ending at the last position, and back-propagates the same dx."""

    @staticmethod
    def pair(length, stride, dilation, needs_x_grad=True):
        p = conv_params(40 + length, out_ch=3, in_ch=2, k=4, dilation=dilation)
        rng = np.random.default_rng(41 + length)
        x = Tensor(rng.uniform(-1, 1, (3, length, 2)).astype(np.float32),
                   requires_grad=needs_x_grad)
        keep = slice((length - 1) % stride, None, stride)
        return x, p, replace(p, stride=stride), keep, rng

    @staticmethod
    def gradients(got, full, keep, rng):
        """(dx, dW, db) of the strided op for a random g, and of the
        stride-1 op for g at the emitted positions and zeros elsewhere."""
        g = rng.uniform(-1, 1, got.shape).astype(np.float32)
        g_full = np.zeros(full.shape, dtype=np.float32)
        g_full[:, keep] = g
        return got.node.backward_fn(g), full.node.backward_fn(g_full)

    @staticmethod
    def assert_close(got, want):
        # dW and db sum only the emitted positions, where stride 1 sums
        # zeros too: float32 rounding of the shorter sums
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("length,stride,dilation", [
        (16, 2, 1), (17, 2, 1), (17, 2, 3), (23, 3, 2), (1, 2, 1), (3, 4, 2)])
    def test_equals_stride_one_read_at_the_emitted_positions(self, length,
                                                             stride, dilation):
        x, p, strided, keep, rng = self.pair(length, stride, dilation)
        full, got = conv1d_causal(x, p), conv1d_causal(x, strided)
        assert got.shape == (3, math.ceil(length / stride), 3)
        np.testing.assert_array_equal(got.data, full.data[:, keep])

        (dx, dw, db), (want_dx, want_dw, want_db) = self.gradients(
            got, full, keep, rng)
        if got.shape[1] == 1 < full.shape[1]:
            # one emitted position: numpy's matmul makes each per-tap dx
            # product a BLAS matrix-vector call, which rounds otherwise than
            # the stride-1 matrix-matrix call on the same row (as where the
            # decimated grid shrinks to one position, below)
            self.assert_close(dx, want_dx)
        else:
            np.testing.assert_array_equal(dx, want_dx)
        self.assert_close(dw, want_dw)
        self.assert_close(db, want_db)

    @pytest.mark.parametrize("length,stride,dilation", [
        (17, 2, 1), (23, 3, 2), (3, 4, 2)])
    def test_frozen_conv_takes_the_stride_too(self, length, stride, dilation):
        # an op that records no gradient: a constant input through frozen
        # parameters, with grad mode on
        x, p, _, keep, _ = self.pair(length, stride, dilation,
                                     needs_x_grad=False)
        p = TestConvGradientNeeds.frozen(p)
        full = conv1d_causal(x, p)
        got = conv1d_causal(x, replace(p, stride=stride))
        assert full.node is None and got.node is None
        np.testing.assert_array_equal(got.data, full.data[:, keep])


class TestTapLoopRecordBlocks:
    """The conv's forward, per-tap or block-Toeplitz, and its backward's
    staging of G and dx run one block of records at a time. Each record's
    per-tap GEMMs are the same calls, and each row of the block form's 2-D
    GEMMs, the forward's and dx's, gets the bits it gets in a taller
    product, so y and dx keep their bits however the batch is cut. dW sums
    its per-block GEMMs, so it keeps them only to float32 rounding."""

    # 5 records of 13 (stride 1) or 7 (stride 2) output rows, 4 channels:
    # forward blocks of one record, and of 2-4 records with a shorter last
    # block; dW blocks of one record, and of two at 48 rows; per-tap dx
    # blocks of 1-3 records
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 26, 30, 48])
    def test_blocks_keep_the_bits(self, monkeypatch, stride, block_rows):
        self.check(monkeypatch, 2, stride, block_rows)

    @pytest.mark.parametrize("dilation", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 48])
    def test_blocks_keep_the_bits_at_other_dilations(self, monkeypatch,
                                                     dilation, stride,
                                                     block_rows):
        self.check(monkeypatch, dilation, stride, block_rows)

    # k=32 runs the block-Toeplitz forward, whose blocks of records count
    # block rows of 4 positions x 32 channels: 12 rows a record at dilation
    # 1, so blocks of 1, 2, 3 and all 5 records; 30 at dilation 3, so
    # blocks of 1 and 2. A record's GEMMs at stride 2 are small enough that
    # OpenBLAS would round them otherwise with a transposed band.
    @pytest.mark.parametrize("dilation", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 100, 150, 250])
    def test_wide_kernel_blocks_keep_the_bits(self, monkeypatch, dilation,
                                              stride, block_rows):
        self.check(monkeypatch, dilation, stride, block_rows, k=32,
                   in_ch=32, out_ch=32)

    @staticmethod
    def check(monkeypatch, dilation, stride, block_rows, k=3, in_ch=3,
              out_ch=4):
        p = replace(conv_params(50, out_ch=out_ch, in_ch=in_ch, k=k,
                                dilation=dilation), stride=stride)
        rng = np.random.default_rng(51)
        x = Tensor(rng.uniform(-1, 1, (5, 13, in_ch)).astype(np.float32),
                   requires_grad=True)

        def run():
            y = conv1d_causal(x, p)
            g = np.random.default_rng(52).uniform(-1, 1, y.shape)
            return (y.data, *y.node.backward_fn(g.astype(np.float32)))

        whole_y, whole_dx, whole_dw, whole_db = run()
        # one block by default: 5 records of at most 30 block rows of 4
        # positions, or 13 output rows
        assert 5 * 30 * 4 * out_ch <= tcn_model._TAPLOOP_BLOCK_ELEMENTS
        monkeypatch.setattr(tcn_model, "_TAPLOOP_BLOCK_ELEMENTS",
                            out_ch * block_rows)
        y, dx, dw, db = run()
        np.testing.assert_array_equal(y, whole_y)
        np.testing.assert_array_equal(dx, whole_dx)
        np.testing.assert_allclose(dw, whole_dw, rtol=0,
                                   atol=1e-6 * np.abs(whole_dw).max())
        np.testing.assert_array_equal(db, whole_db)


def direct_conv_backward(x, w, dilation, stride, g):
    """float64 (dx, dW, db) of y[b, t, o] = sum W[o, c, i] x[b, t - d*i, c]
    at the emitted positions t = L-1 (mod stride), by direct sums."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    length, k = x.shape[1], w.shape[2]
    emitted = np.arange((length - 1) % stride, length, stride)
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for i in range(k):
        src = emitted - dilation * i
        ok = src >= 0
        dx[:, src[ok]] += g[:, ok] @ w[:, :, i]
        dw[:, :, i] = np.einsum("bto,btc->oc", g[:, ok], x[:, src[ok]])
    return dx, dw, g.sum(axis=(0, 1))


# Kernel widths on both sides of ``_TOEPLITZ_FORWARD_MIN_K``, for the
# conv's forward and backward oracles
CONV_WIDTHS = [1, 2, 8, 16, 32]


class TestBlockToeplitzBackward:
    """The conv's backward against float64 direct sums, over kernel widths
    on both sides of ``_TOEPLITZ_FORWARD_MIN_K``, dilations and strides,
    with lengths below the block size (4) and the kernel width and lengths
    that are no block multiple. dW runs in the block-Toeplitz form at every
    width; dx runs per tap below the cutoff and in the block form from it.
    Both block forms run over the flat block rows of two records, so a
    record or phase that took a neighbour's G would show here. float32
    sums of at most k * C_in * ceil(L/s) products of terms in [-1, 1]:
    within 1e-5 of each array's largest entry."""

    @pytest.mark.parametrize("k", CONV_WIDTHS)
    @pytest.mark.parametrize("dilation", [1, 2, 3, 8])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_direct_sums(self, k, dilation, stride):
        for length, in_ch in [(1, 1), (3, 3), (7, 1), (37, 3)]:
            p = replace(conv_params(60 + k, out_ch=2, in_ch=in_ch, k=k,
                                    dilation=dilation, scale=1.0),
                        stride=stride)
            rng = np.random.default_rng(61 + length)
            x = Tensor(rng.uniform(-1, 1, (2, length, in_ch))
                       .astype(np.float32), requires_grad=True)
            y = conv1d_causal(x, p)
            g = rng.uniform(-1, 1, y.shape).astype(np.float32)
            got = y.node.backward_fn(g)
            want = direct_conv_backward(x.data, p.weights.data, dilation,
                                        stride, g)
            for name, a, b in zip(("dx", "dW", "db"), got, want):
                np.testing.assert_allclose(
                    a, b, rtol=0, atol=1e-5 * max(np.abs(b).max(), 1e-30),
                    err_msg=f"{name} at L={length}, C_in={in_ch}")

    def test_padded_input_holds_whole_blocks(self):
        # dW stages each chunk of records into the backward's block layout:
        # its rows hold the (k-1)*d zeros of the causal pad and all of x
        for k, d, s, length in [(32, 1, 1, 1000), (32, 1, 2, 1000),
                                (8, 4, 1, 200), (3, 2, 3, 23), (1, 5, 2, 7)]:
            g, step, phases, blocks = tcn_model._toeplitz_layout(k, d, s,
                                                                 length)
            assert g % step == 0 and s % step == 0
            assert phases * blocks * g >= (k - 1) * d + length


class TestBlockToeplitzForward:
    """The conv's forward against the float64 naive-convolution oracle,
    read at the emitted positions, over the grid of
    ``TestBlockToeplitzBackward``, at kernel widths on both sides of
    ``_TOEPLITZ_FORWARD_MIN_K``: the per-tap forward below it, the
    block-Toeplitz one from it. float32 sums of at most k * C_in + 1 terms
    in [-1, 1]: within 1e-5 of y's largest entry."""

    def test_widths_span_the_cutoff(self):
        assert (min(CONV_WIDTHS) < tcn_model._TOEPLITZ_FORWARD_MIN_K
                <= max(CONV_WIDTHS))

    @pytest.mark.parametrize("k", CONV_WIDTHS)
    @pytest.mark.parametrize("dilation", [1, 2, 3, 8])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_the_naive_oracle(self, k, dilation, stride):
        for length, in_ch in [(1, 1), (3, 3), (7, 1), (37, 3)]:
            p = replace(conv_params(60 + k, out_ch=2, in_ch=in_ch, k=k,
                                    dilation=dilation, scale=1.0),
                        stride=stride)
            x = np.random.default_rng(61 + length).uniform(
                -1, 1, (2, length, in_ch)).astype(np.float32)
            y = conv1d_causal(Tensor(x), p).data
            want = np.stack([
                naive_causal_conv(r, p.weights.data, p.bias.data, dilation)
                for r in x])[:, (length - 1) % stride::stride]
            assert y.shape == want.shape
            np.testing.assert_allclose(
                y, want, rtol=0, atol=1e-5 * np.abs(want).max(),
                err_msg=f"y at L={length}, C_in={in_ch}")


class TestDilationPastTheLength:
    """Once d >= L every tap past the first reads only the causal zeros, so
    the conv is the d = L one. Its kernels must see d = L, or they stage
    (k-1)*d pad rows and d phases: 2^19 of them here, for a 10-position
    input. The spies fail at the call, before any staging."""

    @pytest.mark.parametrize("k", [3, 32])  # per-tap and block-Toeplitz
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_the_oracles_with_bounded_staging(self, monkeypatch, k,
                                                      stride):
        length, dilation = 10, 2 ** 19
        for name, at in (("_taploop_forward", 3), ("_toeplitz_forward", 3),
                         ("_taploop_input_grad", 2), ("_toeplitz_layout", 1)):
            def spy(*args, _fn=getattr(tcn_model, name), _at=at):
                assert args[_at] <= length, f"staged at d={args[_at]}"
                return _fn(*args)
            monkeypatch.setattr(tcn_model, name, spy)
        p = replace(conv_params(70 + k, out_ch=2, in_ch=3, k=k,
                                dilation=dilation, scale=1.0), stride=stride)
        rng = np.random.default_rng(71)
        x = Tensor(rng.uniform(-1, 1, (2, length, 3)).astype(np.float32),
                   requires_grad=True)
        y = conv1d_causal(x, p)
        want = np.stack([
            naive_causal_conv(r, p.weights.data, p.bias.data, dilation)
            for r in x.data])[:, (length - 1) % stride::stride]
        np.testing.assert_allclose(y.data, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())
        g = rng.uniform(-1, 1, y.shape).astype(np.float32)
        got = y.node.backward_fn(g)
        expected = direct_conv_backward(x.data, p.weights.data, dilation,
                                        stride, g)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=0,
                                       atol=1e-5 * np.abs(b).max())


class TestToeplitzBands:
    """``_toeplitz_bands`` against each entry filled from its definition:
    [m, (r, o), (q, c)] is W[o, c, k-1-j] for the tap
    j = m*g + q - lead - step*r, and 0 where no tap is; the forward's
    layout is the same matrices transposed, in C order. Over the layouts
    ``_toeplitz_layout`` gives, widths below the block (k < g) among
    them."""

    @staticmethod
    def oracle(weights, g, step, lead):
        out_ch, in_ch, k = weights.shape
        bands = np.zeros(((g + k - 2) // g + 1, g // step, out_ch, g, in_ch),
                         dtype=np.float32)
        for m, r, q in np.ndindex(bands.shape[0], g // step, g):
            j = m * g + q - lead - step * r
            if 0 <= j < k:
                bands[m, r, :, q, :] = weights[:, :, k - 1 - j]
        return bands.reshape(len(bands), (g // step) * out_ch, g * in_ch)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 32])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_matches_the_definition(self, k, stride, dilation):
        weights = np.random.default_rng(k).uniform(
            -1, 1, (2, 3, k)).astype(np.float32)
        for length in (1, 5, 17, 63):
            g, step, _, _ = tcn_model._toeplitz_layout(k, dilation, stride,
                                                       length)
            lead = (length - 1) % step
            want = self.oracle(weights, g, step, lead)
            backward = tcn_model._toeplitz_bands(weights, g, step, lead)
            forward = tcn_model._toeplitz_bands(weights, g, step, lead, True)
            assert forward.flags.c_contiguous
            np.testing.assert_array_equal(backward, want)
            np.testing.assert_array_equal(forward, want.transpose(0, 2, 1))


class TestConvGradientNeeds:
    """The conv's backward is sized by the gradients the op must
    produce."""

    @staticmethod
    def frozen(p):
        return Conv1dParams(Tensor(p.weights.data), Tensor(p.bias.data),
                            p.dilation)

    def test_frozen_parameters_give_input_gradient_only(self):
        p = conv_params(20, out_ch=3, in_ch=2, k=3, dilation=2)
        x = Tensor(np.random.default_rng(21).uniform(-1, 1, (2, 9, 2))
                   .astype(np.float32), requires_grad=True)
        g = np.random.default_rng(22).uniform(-1, 1, (2, 9, 3)).astype(np.float32)
        dx, dw, db = conv1d_causal(x, self.frozen(p)).node.backward_fn(g)
        assert dw is None and db is None
        want_dx, _, _ = conv1d_causal(x, p).node.backward_fn(g)
        np.testing.assert_array_equal(dx, want_dx)

    def test_constant_input_gives_parameter_gradients_only(self):
        p = conv_params(23, out_ch=3, in_ch=2, k=3, dilation=2)
        x = np.random.default_rng(24).uniform(-1, 1, (2, 9, 2)).astype(np.float32)
        g = np.random.default_rng(25).uniform(-1, 1, (2, 9, 3)).astype(np.float32)
        dx, dw, db = conv1d_causal(Tensor(x), p).node.backward_fn(g)
        assert dx is None
        _, want_dw, want_db = conv1d_causal(
            Tensor(x, requires_grad=True), p).node.backward_fn(g)
        np.testing.assert_array_equal(dw, want_dw)
        np.testing.assert_array_equal(db, want_db)


class TestConvCensus:
    """Whether the op of every conv of one training epoch and one IG map
    records a gradient."""

    def test_census_of_a_training_epoch_and_an_ig_map(self, monkeypatch):
        census = Counter()
        conv = tcn_model.conv1d_causal

        def recording(x, p):
            y = conv(x, p)
            census[y.node is not None] += 1
            return y
        monkeypatch.setattr(tcn_model, "conv1d_causal", recording)

        # 5 convs per forward: cnn.0, then conv1 and conv2 of two blocks
        ds = generate_synthetic(SyntheticSpec(6, 32, {"A": "CACGTG"}),
                                np.random.default_rng(0))
        model = TcnModel.initialize(tiny_config(num_labels=1),
                                    np.random.default_rng(1))
        ckpt, _ = train(model, ds, ds, TrainConfig(batch_size=6, epochs=1,
                                                   seed=2))
        # one training step records all 5, cnn.0 for dW and db only; the
        # validation pass records none
        assert census == {True: 5, False: 5}
        census.clear()
        baselines = make_shuffled_baselines(ds.sequences[0], 2,
                                            np.random.default_rng(3))
        integrated_gradients(build_model(ckpt), one_hot(ds.sequences[0]), 0,
                             baselines, steps=3)
        # one no-grad forward of F(x) and F(x'_b); one path forward per
        # baseline, which records dx
        assert census == {True: 10, False: 5}


class TestNarrowInputGradient:
    """An IG map differentiates a frozen model's input only. A conv
    narrower than ``_TOEPLITZ_FORWARD_MIN_K`` runs that dx per tap, as its
    forward, and stages nothing in the block-Toeplitz layout."""

    def test_narrow_ig_map_stages_nothing(self, monkeypatch):
        calls = Counter()
        for name in ("_phase_major", "_toeplitz_bands"):
            def counting(*args, _name=name, _fn=getattr(tcn_model, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tcn_model, name, counting)

        def ig_map(kernel_size):
            config = tiny_config(num_labels=1, kernel_size=kernel_size,
                                 classifier_input="mean")
            model = build_model(ModelCheckpoint(
                config, ["A"], TcnModel.initialize(
                    config, np.random.default_rng(8)).parameter_arrays()))
            seq = "ACGGTCAT" * 4
            integrated_gradients(model, one_hot(seq), 0,
                                 make_shuffled_baselines(
                                     seq, 2, np.random.default_rng(9)),
                                 steps=3)

        assert tcn_model._TOEPLITZ_FORWARD_MIN_K > 8
        ig_map(8)
        assert calls == {}
        # the counters see the block form where it runs
        ig_map(tcn_model._TOEPLITZ_FORWARD_MIN_K)
        assert calls["_phase_major"] > 0 and calls["_toeplitz_bands"] > 0


class TestTcnBlock:
    def test_zero_weights_reduce_to_relu_identity(self):
        zero = lambda o, i, k, d: Conv1dParams(
            Tensor(np.zeros((o, i, k), dtype=np.float32)),
            Tensor(np.zeros(o, dtype=np.float32)), d)
        block = TcnBlockParams(zero(3, 3, 2, 1), zero(3, 3, 2, 1), None, 0.0)
        x = np.random.default_rng(16).uniform(-1, 1, (1, 9, 3)).astype(np.float32)
        np.testing.assert_array_equal(tcn_block(Tensor(x), block).data,
                                      np.maximum(x, 0))

    def test_projection_only_path(self):
        zero = lambda o, i, k: Conv1dParams(
            Tensor(np.zeros((o, i, k), dtype=np.float32)),
            Tensor(np.zeros(o, dtype=np.float32)), 1)
        proj = conv_params(17, out_ch=5, in_ch=3, k=1)
        block = TcnBlockParams(zero(5, 3, 2), zero(5, 5, 2), proj, 0.0)
        x = np.random.default_rng(18).uniform(-1, 1, (7, 3)).astype(np.float32)
        want = np.maximum(naive_causal_conv(x, proj.weights.data, proj.bias.data, 1), 0)
        np.testing.assert_allclose(tcn_block(Tensor(x[None]), block).data[0], want,
                                   atol=1e-6)

    def test_block_output_causal(self):
        block = TcnBlockParams(conv_params(19, 4, 4, 3, dilation=2),
                               conv_params(20, 4, 4, 3, dilation=2), None, 0.0)
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (16, 4)).astype(np.float32)
        t = 6
        out_a = tcn_block(Tensor(x[None]), block).data[0]
        mutated = x.copy()
        mutated[t + 1:] = rng.uniform(-1, 1, (16 - t - 1, 4)).astype(np.float32)
        out_b = tcn_block(Tensor(mutated[None]), block).data[0]
        np.testing.assert_array_equal(out_a[:t + 1], out_b[:t + 1])


class TestModelForward:
    def test_four_label_logit_shape(self):
        cfg = tiny_config(num_labels=4)
        model = TcnModel.initialize(cfg, np.random.default_rng(0))
        out = model.forward(Tensor(one_hot("ACGT" * 8)[None]))
        assert out.shape == (1, 4)

    def test_binary_101bp_shape(self):
        cfg = ModelConfig(input_length=101, num_labels=1, cnn_layers=1,
                          cnn_kernels=8, tcn_blocks=3, tcn_channels=8,
                          kernel_size=5, mlp_hidden=16, dropout=0.0)
        model = TcnModel.initialize(cfg, np.random.default_rng(1))
        seq = "".join("ACGT"[i % 4] for i in range(101))
        assert model.forward(Tensor(one_hot(seq)[None])).shape == (1, 1)

    def test_seeded_dropout_is_deterministic(self):
        cfg = tiny_config(dropout=0.5)
        model = TcnModel.initialize(cfg, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 32, 4)).astype(np.float32))
        a = model.forward(x, training=True, rng=np.random.default_rng(42)).data
        b = model.forward(x, training=True, rng=np.random.default_rng(42)).data
        assert a.tobytes() == b.tobytes()

    def test_training_dropout_changes_output(self):
        cfg = tiny_config(dropout=0.5)
        model = TcnModel.initialize(cfg, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 32, 4)).astype(np.float32))
        eval_out = model.forward(x).data
        train_out = model.forward(x, training=True, rng=np.random.default_rng(7)).data
        assert not np.array_equal(eval_out, train_out)

    @pytest.mark.parametrize("readout", ["last", "mean"])
    def test_scoring_gives_the_bits_of_a_recorded_forward(self, readout):
        # every conv runs one kernel, whether or not its op records a
        # gradient: no-grad scoring and a forward that records the graph
        # give the same logits, not merely close ones
        cfg = tiny_config(input_length=64, cnn_kernels=16, tcn_channels=16,
                          kernel_size=8, classifier_input=readout)
        model = TcnModel.initialize(cfg, np.random.default_rng(6))
        x = np.random.default_rng(7).uniform(0, 1, (16, 64, 4)).astype(
            np.float32)
        recorded = model.forward(Tensor(x))
        assert recorded.node is not None
        with ad.no_grad():
            scored = model.forward(Tensor(x))
        assert scored.node is None
        np.testing.assert_array_equal(scored.data, recorded.data)
        np.testing.assert_array_equal(predict_scores(model, x),
                                      _sigmoid_stable(recorded.data))

    def test_wrong_length_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward(Tensor(np.zeros((1, 31, 4), dtype=np.float32)))

    @pytest.mark.parametrize("shape", [(32, 4), (1, 1, 32, 4)])
    def test_only_batched_input_accepted(self, tiny_model, shape):
        with pytest.raises(ValueError, match=r"\[B, 32, 4\]"):
            tiny_model.forward(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_causality_of_full_model(self, tiny_model):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (1, 32, 4)).astype(np.float32)
        for t in (3, 15, 30):
            cap_a: dict = {}
            tiny_model.forward(Tensor(x), capture=cap_a)
            mutated = x.copy()
            mutated[:, t + 1:] = rng.uniform(0, 1, (1, 31 - t, 4)).astype(np.float32)
            cap_b: dict = {}
            tiny_model.forward(Tensor(mutated), capture=cap_b)
            for key, value in cap_a.items():
                if key == "features":
                    continue
                assert np.array_equal(value[:, :t + 1], cap_b[key][:, :t + 1]), \
                    f"{key} changed before position {t}"

    def test_gradient_reaches_every_parameter(self, tiny_model):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0, 1, (2, 32, 4)).astype(np.float32))
        y = rng.integers(0, 2, (2, 3)).astype(np.float32)
        y[:, 0] = 1
        tiny_model.zero_grad()
        loss = bce_multilabel_loss(tiny_model.forward(x, training=False), y)
        ad.backward(loss)
        for name, p in tiny_model.params.items():
            assert p.grad is not None, f"{name} has no gradient"
        assert any(np.abs(p.grad).max() > 0 for p in tiny_model.params.values())


# One no-grad forward at the paper shape (L=1000, k=32, 6 blocks, 32
# channels, `last` readout) of 16 records: its block-Toeplitz convs run 2-D
# GEMMs of hundreds of rows. Prints the logits' bytes as hex.
PAPER_FORWARD = """
import numpy as np
from tcnbind import autodiff as ad
from tcnbind.autodiff import Tensor
from tcnbind.model import ModelConfig, TcnModel
model = TcnModel.initialize(ModelConfig(input_length=1000, num_labels=4),
                            np.random.default_rng(1))
x = np.random.default_rng(2).uniform(0, 1, (16, 1000, 4)).astype(np.float32)
with ad.no_grad():
    print(model.forward(Tensor(x)).data.tobytes().hex())
"""


class TestBlasThreadCount:
    """Scores depend on the seed only, not on how many threads OpenBLAS
    runs."""

    def test_paper_forward_keeps_its_bits_on_one_and_two_threads(self):
        one = stdout_on_blas_threads(PAPER_FORWARD, 1)
        assert len(one) == 2 * 16 * 4 * 4  # 16 x 4 float32 logits
        assert stdout_on_blas_threads(PAPER_FORWARD, 2) == one

    def test_block_dx_keeps_its_bits_on_one_and_two_threads(self):
        one = stdout_on_blas_threads(BLOCK_DX, 1)
        assert len(one.split()) == 4
        assert stdout_on_blas_threads(BLOCK_DX, 2) == one


# The input gradient of a frozen-weight k=32 conv, which runs in the
# block-Toeplitz form: 16 records of 32 channels, at (L, stride, dilation)
# with one phase, with a stride and a shorter grid, and with 8 phases.
# Prints the sha256 of each dx's bytes.
BLOCK_DX = """
import hashlib
import numpy as np
from tcnbind.autodiff import Tensor
from tcnbind.model import Conv1dParams, conv1d_causal
rng = np.random.default_rng(3)
for length, stride, dilation in [(1000, 1, 1), (1000, 2, 1), (250, 2, 1),
                                 (1000, 1, 8)]:
    p = Conv1dParams(
        Tensor(rng.uniform(-0.2, 0.2, (32, 32, 32)).astype(np.float32)),
        Tensor(rng.uniform(-0.2, 0.2, 32).astype(np.float32)),
        dilation=dilation, stride=stride)
    x = Tensor(rng.uniform(-1, 1, (16, length, 32)).astype(np.float32),
               requires_grad=True)
    y = conv1d_causal(x, p)
    g = rng.uniform(-1, 1, y.shape).astype(np.float32)
    dx, dw, db = y.node.backward_fn(g)
    assert dw is None and db is None
    print(hashlib.sha256(dx.tobytes()).hexdigest())
"""


# Shapes for the decimated `last` forward (receptive field, then length):
DECIMATION_SHAPES = {
    "odd_length_rf_below_length": dict(input_length=33),         # rf 15
    "rf_above_length": dict(input_length=10, tcn_blocks=3),      # rf 31
    "grid_shrinks_to_one": dict(input_length=5, tcn_blocks=4),   # 5, 3, 2, 1
    "projection_block": dict(input_length=12, cnn_kernels=4, tcn_blocks=3),
    "no_cnn_layers": dict(input_length=9, cnn_layers=0, tcn_blocks=3),
    "no_tcn_blocks": dict(input_length=7, tcn_blocks=0),
    "length_one": dict(input_length=1, tcn_blocks=3),
}


def decimation_case(overrides, seed=0, batch=3):
    cfg = tiny_config(dropout=0.3, **overrides)
    model = TcnModel.initialize(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0, 1, (batch, cfg.input_length, 4)).astype(np.float32)
    weights = rng.uniform(-1, 1, (batch, cfg.num_labels)).astype(np.float32)
    return model, x, weights


def logits_and_grads(model, x, weights, capture=None):
    """Training-mode logits (dropout seeded) and the gradients of
    sum(weights * logits) with respect to the input and every parameter."""
    model.zero_grad()
    xt = Tensor(x, requires_grad=True)
    logits = model.forward(xt, training=True, rng=np.random.default_rng(9),
                           capture=capture)
    ad.backward(ad.reduce_sum(mul_const(logits, Tensor(weights))))
    return logits.data, xt.grad, {n: p.grad for n, p in model.params.items()}


class TestDecimatedForward:
    """The `last` readout runs block b at dilation 1 on the positions
    t = L-1 (mod 2^b). It must give the logits and gradients of the
    full-resolution forward, which ``capture`` still runs."""

    @pytest.mark.parametrize("case", list(DECIMATION_SHAPES))
    def test_bit_identical_to_full_resolution(self, case):
        # The input needs a gradient, so both paths take the tap-loop kernel
        # and every sum they share adds the same terms: equal bits, not a
        # tolerance. One exception: where the decimated grid shrinks to one
        # position, numpy's matmul makes the per-tap dx product a BLAS
        # matrix-vector call, which rounds otherwise than the full path's
        # matrix-matrix call on the same nonzero row. The logits keep their
        # bits; the gradients there differ by at most 1.6e-7 of each array's
        # largest entry, asserted within 1e-6.
        model, x, weights = decimation_case(DECIMATION_SHAPES[case])
        logits, dx, grads = logits_and_grads(model, x, weights)
        full_logits, full_dx, full_grads = logits_and_grads(
            model, x, weights, capture={})
        np.testing.assert_array_equal(logits, full_logits)
        pairs = [("dx", dx, full_dx)] + [
            (name, grad, full_grads[name]) for name, grad in grads.items()]
        for name, got, want in pairs:
            if case == "grid_shrinks_to_one":
                np.testing.assert_allclose(got, want, rtol=0, err_msg=name,
                                           atol=1e-6 * np.abs(want).max())
            else:
                np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("case", list(DECIMATION_SHAPES))
    def test_matches_float64_reference(self, case):
        model, x, weights = decimation_case(DECIMATION_SHAPES[case])
        logits, _, _ = logits_and_grads(model, x, weights)
        want = reference_forward(model, x, rng=np.random.default_rng(9))
        np.testing.assert_allclose(logits, want, rtol=1e-5, atol=1e-6)
        with ad.no_grad():
            eval_logits = model.forward(Tensor(x)).data
        np.testing.assert_allclose(eval_logits, reference_forward(model, x),
                                   rtol=1e-5, atol=1e-6)

    def test_larger_shape_across_conv_kernels(self):
        self.check_larger_shape(kernel_size=16)

    def test_larger_shape_at_the_paper_kernel_width(self):
        self.check_larger_shape(kernel_size=32)

    @staticmethod
    def check_larger_shape(kernel_size):
        # The decimated blocks run shorter GEMMs that BLAS may block and
        # sum in another order: agreement to float32 rounding, stated as
        # rtol 1e-4. Both widths run the block-Toeplitz forward.
        cfg = ModelConfig(input_length=1000, num_labels=2, cnn_layers=1,
                          cnn_kernels=32, tcn_blocks=3, tcn_channels=32,
                          kernel_size=kernel_size, mlp_hidden=8, dropout=0.3)
        model = TcnModel.initialize(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, (8, 1000, 4)).astype(np.float32)
        weights = rng.uniform(-1, 1, (8, 2)).astype(np.float32)
        logits, dx, grads = logits_and_grads(model, x, weights)
        full_logits, full_dx, full_grads = logits_and_grads(
            model, x, weights, capture={})
        scale = lambda a: 1e-4 * np.abs(a).max()
        np.testing.assert_allclose(logits, full_logits, rtol=1e-4,
                                   atol=scale(full_logits))
        np.testing.assert_allclose(dx, full_dx, rtol=1e-4, atol=scale(full_dx))
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, full_grads[name], rtol=1e-4,
                                       atol=scale(full_grads[name]),
                                       err_msg=name)

    def test_input_gradient_matches_finite_differences(self):
        model, x, weights = decimation_case(
            dict(input_length=9, tcn_blocks=3), batch=1)

        def loss(t):
            logits = model.forward(t, training=True,
                                   rng=np.random.default_rng(9))
            return ad.reduce_sum(mul_const(logits, Tensor(weights)))

        # float32 forward: a smaller step drowns in rounding (6% at 3e-4),
        # a larger one crosses ReLU kinks (35% at 1e-2); 3e-3 gives 0.3%
        assert ad.finite_difference_check(loss, Tensor(x), eps=3e-3) < 1e-2


def graph_arrays(t):
    """Every array the closures of the graph reachable from ``t`` hold."""
    found, seen, stack = [], set(), [t]
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen or tensor.node is None:
            continue
        seen.add(id(tensor))
        if tensor.node.backward_fn is not None:
            found.extend(closure_arrays(tensor.node.backward_fn))
        stack.extend(tensor.node.parents)
    return found


class TestWhatATrainingStepKeeps:
    """A training step's graph keeps only what each backward reads. A node
    keeps a parent an op produced as a data-less handle, so an activation
    that no backward reads (a conv output, a relu output) is freed in the
    forward. A block-output relu keeps a bool mask, a training
    ``relu_dropout`` its output's signs packed to bits, a conv the input
    array its dW reads, a matmul the operands of the other one's gradient.
    The backward frees each op's arrays once it has run it, and a tensor
    the caller still holds then reaches none."""

    @pytest.mark.parametrize("stride", [1, 3])
    def test_relu_dropout_node_keeps_only_the_output_bits(self, stride):
        rng = np.random.default_rng(70)
        data = rng.uniform(-1, 1, (3, 5, 3)).astype(np.float32)
        data[0, 0, :2] = 0.0, -0.0  # zero signs must come out the same
        x = Tensor(data, requires_grad=True)
        y = tcn_model.relu_dropout(x, 0.3, True, np.random.default_rng(71),
                                   length=13, stride=stride)
        assert len(y.node.parents) == 1 and y.node.parents[0] is x
        # relu, then dropout with the masks of rng.random at full resolution
        draws = np.random.default_rng(71).random(
            (3, 5 if stride == 1 else 13, 3), dtype=np.float32)[:, ::stride]
        keep = (draws >= 0.3).astype(np.float32) / np.float32(0.7)
        relu = np.maximum(data, np.float32(0))
        g = rng.uniform(-1, 1, x.shape).astype(np.float32)
        want_y = relu * keep
        want_g = (relu > 0).astype(np.float32) * (g * keep)
        # 45 values in ceil(45/8) = 6 bytes
        [bits] = closure_arrays(y.node.backward_fn)
        assert bits.dtype == np.uint8 and bits.nbytes == 6
        np.testing.assert_array_equal(bits, np.packbits(y.data > 0))
        assert np.any((g < 0) & (y.data == 0))  # a -0.0 in the gradient
        np.testing.assert_array_equal(y.data.view(np.uint32),
                                      want_y.view(np.uint32))
        np.testing.assert_array_equal(
            y.node.backward_fn(g)[0].view(np.uint32), want_g.view(np.uint32))

    @pytest.mark.parametrize("dilation,stride", [(1, 1), (1, 2), (3, 1)])
    @pytest.mark.parametrize("needs_x_grad", [True, False])
    def test_conv_node_keeps_no_padded_copy(self, dilation, stride,
                                            needs_x_grad):
        self.check_conv_node(3, dilation, stride, needs_x_grad)

    # k=32 runs the block-Toeplitz forward, whose bands the backward
    # rebuilds rather than keeps
    @pytest.mark.parametrize("dilation,stride", [(1, 1), (1, 2), (3, 1)])
    @pytest.mark.parametrize("needs_x_grad", [True, False])
    def test_wide_conv_node_keeps_no_bands(self, dilation, stride,
                                           needs_x_grad):
        self.check_conv_node(32, dilation, stride, needs_x_grad)

    @staticmethod
    def check_conv_node(k, dilation, stride, needs_x_grad):
        p = replace(conv_params(72, out_ch=4, in_ch=3, k=k,
                                dilation=dilation), stride=stride)
        x = Tensor(np.random.default_rng(73).uniform(-1, 1, (2, 11, 3))
                   .astype(np.float32), requires_grad=needs_x_grad)
        node = conv1d_causal(x, p).node
        held = closure_arrays(node.backward_fn)
        assert any(a is x.data for a in held)  # dW reads the input
        assert all(any(a is t.data for t in node.parents) for a in held)

    def test_forward_frees_what_no_backward_reads(self, monkeypatch):
        conv, relu, matmul = tcn_model.conv1d_causal, ad.relu, ad.matmul
        relu_dropout = tcn_model.relu_dropout
        conv_inputs, conv_outputs, relu_outputs, operands = [], [], [], []
        dropped = []  # outputs of relu_dropout

        def spy_conv(x, p):
            y = conv(x, p)
            conv_inputs.append(weakref.ref(x.data))
            conv_outputs.append(weakref.ref(y.data))
            return y

        def spy_relu(x):
            y = relu(x)
            relu_outputs.append(weakref.ref(y.data))
            return y

        def spy_matmul(a, b):
            operands.extend((weakref.ref(a.data), weakref.ref(b.data)))
            return matmul(a, b)

        def spy_relu_dropout(x, *args, **kwargs):
            y = relu_dropout(x, *args, **kwargs)
            dropped.append((y.data.size, weakref.ref(y.data)))
            return y
        monkeypatch.setattr(tcn_model, "conv1d_causal", spy_conv)
        monkeypatch.setattr(tcn_model, "relu_dropout", spy_relu_dropout)
        monkeypatch.setattr(ad, "relu", spy_relu)
        monkeypatch.setattr(ad, "matmul", spy_matmul)

        cfg = tiny_config(dropout=0.3)
        model = TcnModel.initialize(cfg, np.random.default_rng(76))
        rng = np.random.default_rng(77)
        x = Tensor(rng.uniform(0, 1, (3, 32, 4)).astype(np.float32))
        logits = model.forward(x, training=True, rng=rng)

        kept = [ref() for ref in conv_inputs + operands]
        kept += [p.data for p in model.params.values()]
        assert all(ref() is None for ref in conv_outputs)
        # in training only the block outputs take ad.relu; a block's output
        # is the next block's conv input, kept for dW, and the last one's
        # is freed
        assert len(relu_outputs) == cfg.tcn_blocks
        live = [ref() for ref in relu_outputs if ref() is not None]
        assert len(live) == cfg.tcn_blocks - 1
        # each cnn layer, both convs of each block and the hidden layer
        # take relu_dropout; a conv2's output feeds only the residual add
        # and is freed, the others are conv inputs or a matmul operand
        assert len(dropped) == cfg.cnn_layers + 2 * cfg.tcn_blocks + 1
        live_dropped = [ref() for _, ref in dropped if ref() is not None]
        assert len(live_dropped) == cfg.cnn_layers + cfg.tcn_blocks + 1
        assert all(any(a is b for b in kept) for a in live + live_dropped)
        held = graph_arrays(logits)
        # bool masks only from the block-output relus
        assert sum(a.dtype == bool for a in held) == cfg.tcn_blocks
        # relu_dropout keeps n values' signs as ceil(n/8) bytes
        bits = [a.nbytes for a in held if a.dtype == np.uint8]
        assert sorted(bits) == sorted(-(-n // 8) for n, _ in dropped)
        assert all(any(a is b for b in kept)
                   for a in held if a.dtype not in (bool, np.uint8))
        del kept, live, live_dropped, held

        loss = bce_multilabel_loss(logits, rng.integers(0, 2, (3, 3)))
        ad.backward(loss)
        assert graph_arrays(logits) == []
        # the batch is the test's and the weights the model's; nothing
        # else the forward saved lives on
        assert all(ref() is None for ref in conv_inputs[1:] + operands[::2])

    def test_activations_freed_as_the_backward_passes_them(self, monkeypatch):
        conv = tcn_model.conv1d_causal
        refs, alive = [], []

        def recording(x, p):
            y = conv(x, p)
            if refs:  # cnn.0's input is the test's batch
                refs.append(weakref.ref(x.data))  # kept for dW
            refs.append(weakref.ref(y.data))
            if len(refs) == 1:
                # cnn.0: every other conv output descends from it, so its
                # backward runs after all of theirs
                inner = y.node.backward_fn

                def spied(g):
                    alive.extend(ref() is not None for ref in refs[1:])
                    return inner(g)
                y.node.backward_fn = spied
            return y
        monkeypatch.setattr(tcn_model, "conv1d_causal", recording)

        model = TcnModel.initialize(tiny_config(dropout=0.3),
                                    np.random.default_rng(74))
        rng = np.random.default_rng(75)
        x = Tensor(rng.uniform(0, 1, (3, 32, 4)).astype(np.float32),
                   requires_grad=True)
        logits = model.forward(x, training=True, rng=rng)
        loss = bce_multilabel_loss(logits, rng.integers(0, 2, (3, 3)))
        ad.backward(loss)
        assert len(alive) == 8 and not any(alive)
        assert loss.grad.tolist() == 1.0 and logits.grad is None
        assert x.grad.shape == x.shape
        for name, param in model.params.items():
            assert param.grad.shape == param.shape, name
        del logits, loss
        assert all(ref() is None for ref in refs)


class TestReluDropoutDraws:
    """Training ``relu_dropout`` draws its masks from the generator's raw
    words, a chunk of records at a time. The masks, and the stream after
    them, must be those of ``rng.random(dtype=float32) >= ratio`` over the
    full-resolution shape, with no array of that size allocated."""

    @pytest.mark.parametrize("ratio", [0.1, 0.25, 0.3, 0.5])
    @pytest.mark.parametrize("channels", [3, 2])  # odd, even draws per record
    @pytest.mark.parametrize("stride", [1, 3])
    def test_masks_and_stream_match_rng_random(self, monkeypatch, ratio,
                                               channels, stride):
        length = 11  # at stride 3, the positions 1, 4, 7 and 10
        positions = -(-length // stride)
        data = np.random.default_rng(80).uniform(
            0.5, 1, (4, positions, channels)).astype(np.float32)
        for buffered in (False, True):
            for block in (tcn_model._TAPLOOP_BLOCK_ELEMENTS, 1):
                # 1: every record is its own chunk
                monkeypatch.setattr(tcn_model, "_TAPLOOP_BLOCK_ELEMENTS",
                                    block)
                ours, theirs = (np.random.default_rng(81) for _ in range(2))
                if buffered:  # enter with the high half of a word buffered
                    ours.random(dtype=np.float32)
                    theirs.random(dtype=np.float32)
                y = tcn_model.relu_dropout(
                    Tensor(data, requires_grad=True), ratio, True, ours,
                    length=length, stride=stride)
                draws = theirs.random((4, length, channels), dtype=np.float32)
                want = draws[:, (length - 1) % stride::stride] >= ratio
                np.testing.assert_array_equal(y.data > 0, want)
                for _ in range(2):  # an odd count, then the next word
                    np.testing.assert_array_equal(
                        ours.random(3, dtype=np.float32),
                        theirs.random(3, dtype=np.float32))
                np.testing.assert_array_equal(ours.random(2),
                                              theirs.random(2))

    def test_decimated_draw_allocates_no_full_resolution_array(self):
        nb, length, channels, stride = 16, 1000, 32, 64
        x = Tensor(np.random.default_rng(82).uniform(
            -1, 1, (nb, -(-length // stride), channels)).astype(np.float32),
            requires_grad=True)
        tracemalloc.start()
        try:
            tcn_model.relu_dropout(x, 0.5, True, np.random.default_rng(83),
                                   length=length, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float32 draw per full-resolution value would be 2 MB
        assert peak < nb * length * channels * 4


class TestDecimatedWorkShape:
    """How many positions each convolution reads and emits: catches the
    decimated path, or conv2's stride, silently turning off, without
    timing anything."""

    def conv_lengths(self, monkeypatch, config, capture=None):
        seen = []
        conv = tcn_model.conv1d_causal

        def recording(x, p):
            y = conv(x, p)
            seen.append((x.shape[-2], y.shape[-2]))
            return y

        monkeypatch.setattr(tcn_model, "conv1d_causal", recording)
        model = TcnModel.initialize(config, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(
            0, 1, (2, config.input_length, 4)).astype(np.float32)
        model.forward(Tensor(x), capture=capture)
        return seen

    @staticmethod
    def per_block(config, conv1_length, conv2_length):
        """(input, output) length of every conv in call order: the CNN
        layers, then per block conv1, conv2 and block 0's projection, which
        reads the positions conv2 emits."""
        lengths = [(config.input_length, config.input_length)] * config.cnn_layers
        for b in range(config.tcn_blocks):
            n, m = conv1_length(b), conv2_length(b)
            lengths += [(n, n), (n, m)]
            if b == 0 and config.cnn_kernels != config.tcn_channels:
                lengths.append((m, m))
        return lengths

    @pytest.mark.parametrize("length", [1, 24, 33, 100])
    def test_last_runs_block_b_on_ceil_length_over_2_to_the_b(self, monkeypatch,
                                                              length):
        # conv1 of block b maps ceil(L/2^b) positions to as many; conv2
        # emits every second one of them, ending at the last
        cfg = tiny_config(input_length=length, cnn_kernels=4, tcn_blocks=4)
        n = lambda b: math.ceil(length / 2 ** b)
        want = self.per_block(cfg, n, lambda b: math.ceil(n(b) / 2))
        assert self.conv_lengths(monkeypatch, cfg) == want

    def test_mean_runs_every_conv_on_all_positions(self, monkeypatch):
        cfg = tiny_config(input_length=33, cnn_kernels=4, tcn_blocks=4,
                          classifier_input="mean")
        assert self.conv_lengths(monkeypatch, cfg) == self.per_block(
            cfg, lambda b: 33, lambda b: 33)

    def test_capture_runs_every_conv_on_all_positions(self, monkeypatch):
        cfg = tiny_config(input_length=33, cnn_kernels=4, tcn_blocks=4)
        assert self.conv_lengths(monkeypatch, cfg, capture={}) == \
            self.per_block(cfg, lambda b: 33, lambda b: 33)


class TestReceptiveField:
    def test_no_convolution(self):
        cfg = tiny_config(cnn_layers=0, tcn_blocks=0)
        assert receptive_field(cfg) == 1

    def test_single_block_k3(self):
        cfg = tiny_config(cnn_layers=0, tcn_blocks=1, kernel_size=3)
        assert receptive_field(cfg) == 5

    def test_paper_scale_covers_window(self):
        cfg = ModelConfig(input_length=1000, num_labels=4, tcn_blocks=6,
                          kernel_size=32)
        assert receptive_field(cfg) >= 1000

    def test_separate_cnn_kernel_size(self):
        cfg = tiny_config(cnn_layers=2, cnn_kernel_size=9, kernel_size=3,
                          tcn_blocks=1)
        assert receptive_field(cfg) == 1 + 2 * 8 + 2 * 2 * 1

    @pytest.mark.parametrize("blocks,k,cnn_layers", [
        (0, 2, 0), (1, 2, 1), (1, 3, 0), (2, 3, 1), (2, 5, 2),
        (3, 2, 2), (3, 4, 0), (4, 2, 0), (4, 3, 1),
    ])
    def test_formula_matches_perturbation_oracle(self, blocks, k, cnn_layers):
        cfg = tiny_config(input_length=128, cnn_layers=cnn_layers,
                          cnn_kernels=6, tcn_blocks=blocks, tcn_channels=6,
                          kernel_size=k, mlp_hidden=8)
        expected = min(receptive_field(cfg), cfg.input_length)
        assert measured_receptive_field(cfg) == expected

    def test_mean_pool_classifier_sees_every_position(self):
        cfg = tiny_config(input_length=128, cnn_layers=1, cnn_kernels=6,
                          tcn_blocks=2, tcn_channels=6, kernel_size=3,
                          mlp_hidden=8, classifier_input="mean")
        assert measured_receptive_field(cfg) == 128


class TestInitParameters:
    def test_same_seed_bit_identical(self):
        cfg = tiny_config()
        a = init_parameters(cfg, np.random.default_rng(11))
        b = init_parameters(cfg, np.random.default_rng(11))
        assert set(a) == set(b)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_biases_zero(self):
        params = init_parameters(tiny_config(), np.random.default_rng(12))
        for name, p in params.items():
            if name.endswith(".bias"):
                assert not p.data.any()

    def test_weight_spread_matches_uniform_moments(self):
        cfg = ModelConfig(input_length=64, num_labels=2, cnn_layers=1,
                          cnn_kernels=32, tcn_blocks=1, tcn_channels=32,
                          kernel_size=32, mlp_hidden=8, dropout=0.0)
        params = init_parameters(cfg, np.random.default_rng(13))
        w = params["cnn.0.weight"].data  # 32 x 4 x 32
        fan_in, fan_out = 4 * 32, 32 * 32
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        expected_std = bound / np.sqrt(3.0)
        assert abs(w.std() - expected_std) / expected_std < 0.2

    def test_projection_present_iff_channel_change(self):
        with_change = init_parameters(tiny_config(cnn_kernels=4, tcn_channels=8),
                                      np.random.default_rng(14))
        assert "tcn.0.projection.weight" in with_change
        assert "tcn.1.projection.weight" not in with_change
        no_change = init_parameters(tiny_config(cnn_kernels=8, tcn_channels=8),
                                    np.random.default_rng(15))
        assert "tcn.0.projection.weight" not in no_change

    @pytest.mark.parametrize("overrides", [{}, {"cnn_kernels": 4},
                                           {"cnn_layers": 0, "tcn_blocks": 0}])
    def test_registry_follows_the_layout_table(self, overrides):
        cfg = tiny_config(**overrides)
        params = init_parameters(cfg, np.random.default_rng(16))
        assert [(n, p.shape) for n, p in params.items()] == list(
            parameter_shapes(cfg).items())


class TestParameterLayoutCheck:
    def params(self):
        return init_parameters(tiny_config(), np.random.default_rng(17))

    def test_wrong_shape_names_tensor_and_both_shapes(self):
        params = self.params()
        params["tcn.1.conv2.weight"] = Tensor(np.zeros((8, 8, 5)))
        with pytest.raises(ValueError, match=r"'tcn\.1\.conv2\.weight' has "
                           r"shape \(8, 8, 5\), the config expects \(8, 8, 3\)"):
            TcnModel(tiny_config(), params)

    def test_extra_parameter(self):
        params = self.params()
        params["tcn.0.projection.weight"] = Tensor(np.zeros((8, 8, 1)))
        with pytest.raises(ValueError, match="unexpected parameter"):
            TcnModel(tiny_config(), params)

    def test_missing_parameter(self):
        params = self.params()
        del params["cnn.0.bias"]
        with pytest.raises(ValueError, match="missing parameter 'cnn.0.bias'"):
            TcnModel(tiny_config(), params)

    def test_load_arrays_checks_the_same_layout(self, tiny_model):
        arrays = tiny_model.parameter_arrays()
        arrays["mlp.out.weight"] = np.zeros((16, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="mlp.out.weight"):
            tiny_model.load_arrays(arrays)
