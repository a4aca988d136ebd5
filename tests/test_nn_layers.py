"""Tests for NN IR operators: shapes, accounting, forward semantics."""

import numpy as np
import pytest

from repro.nn.layers import (
    Activation,
    Concat,
    Conv2D,
    Dense,
    Dot,
    Elementwise,
    Flatten,
    Input,
    ScoreHead,
    OP_REGISTRY,
)


class TestInput:
    def test_shape(self):
        op = Input((3, 4))
        assert op.output_shape() == (3, 4)
        assert op.size == 12

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Input(())
        with pytest.raises(ValueError):
            Input((0, 4))

    def test_cannot_execute(self):
        with pytest.raises(RuntimeError):
            Input((2,)).forward({})


class TestDense:
    def test_shape_and_accounting(self):
        op = Dense(128, 64)
        assert op.output_shape((128,)) == (64,)
        assert op.macs((128,)) == 128 * 64
        assert op.flops((128,)) == 2 * 128 * 64
        assert op.weight_params() == 128 * 64 + 64
        assert op.weight_bytes() == 4 * (128 * 64 + 64)

    def test_no_bias_accounting(self):
        assert Dense(10, 5, bias=False).weight_params() == 50

    def test_flattens_structured_input(self):
        assert Dense(24, 4).output_shape((2, 3, 4)) == (4,)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dense(10, 5).output_shape((11,))

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        op = Dense(6, 3)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (4, 6)).astype(np.float32)
        np.testing.assert_allclose(
            op.forward(params, x), x @ params["W"] + params["b"], rtol=1e-6
        )

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 5)


class TestConv2D:
    def test_output_shape_same_padding(self):
        op = Conv2D(3, 8, kernel=3, padding=1)
        assert op.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_output_shape_stride(self):
        op = Conv2D(3, 8, kernel=3, stride=2, padding=1)
        assert op.output_shape((3, 16, 16)) == (8, 8, 8)

    def test_macs(self):
        op = Conv2D(3, 8, kernel=3, padding=1)
        # 16*16 pixels * 8 out channels * 3*3*3 reduction
        assert op.macs((3, 16, 16)) == 16 * 16 * 8 * 27
        assert op.flops((3, 16, 16)) == 2 * op.macs((3, 16, 16))

    def test_weight_params(self):
        assert Conv2D(3, 8, kernel=3).weight_params() == 8 * 3 * 9 + 8

    def test_forward_matches_direct_convolution(self):
        rng = np.random.default_rng(1)
        op = Conv2D(2, 3, kernel=3, stride=1, padding=1)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (2, 2, 5, 5)).astype(np.float32)
        y = op.forward(params, x)
        # direct computation at one output location
        n, oc, i, j = 1, 2, 2, 3
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        patch = xp[n, :, i : i + 3, j : j + 3]
        expected = float(np.sum(patch * params["W"][oc]) + params["b"][oc])
        assert y[n, oc, i, j] == pytest.approx(expected, rel=1e-5)

    def test_bad_channel_count(self):
        with pytest.raises(ValueError):
            Conv2D(3, 8, kernel=3).output_shape((4, 8, 8))

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, kernel=9).output_shape((1, 4, 4))


class TestSizeValidation:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Conv2D(3, 8, kernel=2.7), "Conv2D kernel"),
            (lambda: Conv2D(3, 8, kernel=3, stride=1.9), "Conv2D stride"),
            (lambda: Conv2D(3, 8, kernel=3, padding=0.5), "Conv2D padding"),
            (lambda: Conv2D(3, True, kernel=3), "Conv2D out_channels"),
            (lambda: Conv2D(3, 8, kernel=float("nan")), "Conv2D kernel"),
            (lambda: Conv2D(float("inf"), 8, kernel=3), "Conv2D in_channels"),
            (lambda: Dense(2.5, 3), "Dense in_features"),
            (lambda: Dense(4, np.float64(3.0)), "Dense out_features"),
            (lambda: Dense(True, 3), "Dense in_features"),
            (lambda: Input((2.5,)), r"Input shape\[0\]"),
            (lambda: Input((4, float("nan"))), r"Input shape\[1\]"),
            (lambda: Input((False,)), r"Input shape\[0\]"),
        ],
    )
    def test_rejects_non_integral_sizes(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    def test_accepts_numpy_integers(self):
        op = Conv2D(np.int64(3), np.int32(8), kernel=np.int8(3), stride=np.int64(2))
        assert op.config()["kernel"] == 3 and type(op.config()["kernel"]) is int
        assert Dense(np.int64(6), 3).in_features == 6
        assert Input(np.array([2, 3])).shape == (2, 3)


class TestActivation:
    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "identity"])
    def test_shape_preserved(self, kind):
        assert Activation(kind).output_shape((3, 4)) == (3, 4)

    def test_relu(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(
            Activation("relu").forward({}, x), [[0.0, 2.0]]
        )

    def test_sigmoid_bounds(self):
        x = np.array([[-100.0, 0.0, 100.0]], dtype=np.float32)
        y = Activation("sigmoid").forward({}, x)
        assert 0.0 <= y.min() and y.max() <= 1.0
        assert y[0, 1] == pytest.approx(0.5)

    def test_identity_free(self):
        assert Activation("identity").flops((100,)) == 0
        assert Activation("relu").flops((100,)) == 100

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("swish")


class TestElementwise:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("add", [[3.0, -1.0]]),
            ("sub", [[-1.0, 5.0]]),
            ("mul", [[2.0, -6.0]]),
            ("absdiff", [[1.0, 5.0]]),
        ],
    )
    def test_semantics(self, kind, expected):
        a = np.array([[1.0, 2.0]], dtype=np.float32)
        b = np.array([[2.0, -3.0]], dtype=np.float32)
        np.testing.assert_allclose(Elementwise(kind).forward({}, a, b), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Elementwise("add").output_shape((3,), (4,))

    def test_flops_one_per_element(self):
        assert Elementwise("mul").flops((4, 5), (4, 5)) == 20


class TestDot:
    def test_scalar_output(self):
        a = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        b = np.array([[4.0, 5.0, 6.0]], dtype=np.float32)
        assert Dot().forward({}, a, b)[0, 0] == pytest.approx(32.0)

    def test_shape(self):
        assert Dot().output_shape((6,), (2, 3)) == (1,)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Dot().output_shape((3,), (4,))

    def test_macs(self):
        assert Dot().macs((8,), (8,)) == 8


class TestConcatFlatten:
    def test_concat(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.zeros((2, 2), dtype=np.float32)
        out = Concat().forward({}, a, b)
        assert out.shape == (2, 5)
        assert Concat().output_shape((3,), (2,)) == (5,)

    def test_flatten(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        out = Flatten().forward({}, x)
        assert out.shape == (2, 12)
        assert Flatten().output_shape((3, 4)) == (12,)


class TestScoreHead:
    def test_sigmoid_diff_is_match_probability(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=np.float32)
        y = ScoreHead("sigmoid_diff").forward({}, x)
        assert y.shape == (2, 1)
        assert y[0, 0] > 0.5 > y[1, 0]

    def test_sigmoid(self):
        x = np.array([[0.0]], dtype=np.float32)
        assert ScoreHead("sigmoid").forward({}, x)[0, 0] == pytest.approx(0.5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScoreHead("sigmoid_diff").output_shape((3,))
        with pytest.raises(ValueError):
            ScoreHead("sigmoid").output_shape((2,))
        assert ScoreHead("sigmoid_diff").output_shape((2,)) == (1,)

    def test_no_parameters(self):
        assert ScoreHead("sigmoid").weight_params() == 0


def test_registry_covers_all_ops():
    for name in (
        "Input", "Dense", "Conv2D", "Activation", "Elementwise", "Dot",
        "Concat", "Flatten", "ScoreHead",
    ):
        assert name in OP_REGISTRY
