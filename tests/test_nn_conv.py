"""Conv2D's per-offset GEMM lowering against an im2col/col2im reference.

The reference below is the patch-matrix formulation Conv2D used before it
was lowered to one GEMM per kernel offset: forward materialises every
``(C, k, k)`` window as a row of an im2col matrix, backward reduces over
that matrix for ``grad_W`` and scatters the patch gradients back with
col2im.  The two compute the same sums in a different order, so they
agree to float32 rounding, not bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.nn.layers import Conv2D


def im2col(x, k, s, p):
    """Lower ``(N, C, H, W)`` to ``(N, out_h*out_w, C*k*k)`` patches."""
    n, c, h, w = x.shape
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    st_n, st_c, st_h, st_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, k, k),
        strides=(st_n, st_c, st_h * s, st_w * s, st_h, st_w),
        writeable=False,
    )
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * k * k)


def reference_forward(op, params, x):
    n = x.shape[0]
    out_c, out_h, out_w = op.output_shape(x.shape[1:])
    cols = im2col(x, op.kernel, op.stride, op.padding)
    y = cols @ params["W"].reshape(out_c, -1).T + params["b"]
    return y.transpose(0, 2, 1).reshape(n, out_c, out_h, out_w)


def reference_backward(op, params, x, grad_out):
    n, c, h, w = x.shape
    out_c, out_h, out_w = grad_out.shape[1:]
    k, s, p = op.kernel, op.stride, op.padding
    cols = im2col(x, k, s, p)
    g = grad_out.reshape(n, out_c, out_h * out_w).transpose(0, 2, 1)
    grad_w = np.einsum("npk,npo->ko", cols, g).T.reshape(params["W"].shape)
    grad_b = g.sum(axis=(0, 1))
    gcols = (g @ params["W"].reshape(out_c, -1)).reshape(n, out_h, out_w, c, k, k)
    grad_x = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            grad_x[:, :, i : i + out_h * s : s, j : j + out_w * s : s] += (
                gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    return grad_w, grad_b, grad_x[:, :, p : p + h, p : p + w]


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 5))
    s = draw(st.integers(1, 3))
    p = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, k - 2 * p), 9))
    w = draw(st.integers(max(1, k - 2 * p), 9))
    return (
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)),
        h, w, k, s, p, draw(st.integers(0, 2**32 - 1)),
    )


def assert_close(actual, expected):
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5 * scale)


class TestConvMatchesIm2col:
    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    # (H + 2p - k) % s != 0: the last input rows or columns are never read
    @example((2, 3, 2, 7, 7, 2, 2, 0, 0))
    @example((1, 2, 3, 9, 6, 5, 3, 2, 1))
    @example((2, 1, 2, 8, 5, 3, 3, 0, 2))
    # padding alone covers the only window row: no input row is read
    @example((2, 2, 2, 1, 1, 1, 3, 1, 3))
    def test_forward_and_backward(self, case):
        n, c, oc, h, w, k, s, p, seed = case
        rng = np.random.default_rng(seed)
        op = Conv2D(c, oc, kernel=k, stride=s, padding=p)
        params = op.init_params(rng)
        params["b"] = rng.normal(0, 1, oc).astype(np.float32)
        x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)

        y = op.forward(params, x)
        assert y.shape == (n, *op.output_shape((c, h, w)))
        assert y.dtype == np.float32
        assert_close(y, reference_forward(op, params, x))

        grad_out = rng.normal(0, 1, y.shape).astype(np.float32)
        grads, (grad_x,) = op.backward(params, (x,), y, grad_out)
        ref_w, ref_b, ref_x = reference_backward(op, params, x, grad_out)
        assert grads["W"].shape == params["W"].shape
        assert grad_x.shape == x.shape
        assert grads["W"].dtype == grad_x.dtype == np.float32
        assert_close(grads["W"], ref_w)
        assert_close(grads["b"], ref_b)
        assert_close(grad_x, ref_x)

    def test_unread_input_has_zero_gradient(self):
        rng = np.random.default_rng(0)
        op = Conv2D(1, 1, kernel=2, stride=2, padding=0)
        params = op.init_params(rng)
        x = rng.normal(0, 1, (1, 1, 7, 7)).astype(np.float32)
        y = op.forward(params, x)
        _, (grad_x,) = op.backward(params, (x,), y, np.ones_like(y))
        assert np.all(grad_x[:, :, 6, :] == 0) and np.all(grad_x[:, :, :, 6] == 0)
        assert np.all(grad_x[:, :, :6, :6] != 0)

