"""Operator definitions for the NN IR.

Every op is a stateless descriptor: it knows its output shape, its
per-sample FLOP and MAC counts, its parameter tensors, and how to run
forward/backward in numpy.  Parameter values live in the owning
:class:`repro.nn.graph.Graph`, keyed by node id, so a single op instance
can be reused.

Accounting conventions (used consistently by Table-1 calibration, the
systolic model, and the energy model):

* shapes exclude the batch dimension; images are ``(C, H, W)``;
* one multiply-accumulate (MAC) counts as **2 FLOPs**, matching how the
  paper's Table 1 reports FLOPs for its fully-connected models
  (``FLOPs = 2 x weights`` for MIR/ESTP/TextQA);
* element-wise ops count 1 FLOP per output element.
"""

from __future__ import annotations

import abc
import math
import operator
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

Shape = Tuple[int, ...]
Params = Dict[str, np.ndarray]

_EW_KINDS = ("add", "sub", "mul", "absdiff")
_ACT_KINDS = ("relu", "sigmoid", "tanh", "identity")


def _as_f32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _size(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int`` of at least ``minimum``, else ``ValueError``.

    Python and numpy integers pass; bools, floats (even integral or
    non-finite ones) and other types are rejected rather than truncated.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        size = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if size < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {size}")
    return size


class Op(abc.ABC):
    """Base class for IR operators."""

    #: number of graph inputs the op consumes
    arity: int = 1

    @abc.abstractmethod
    def output_shape(self, *in_shapes: Shape) -> Shape:
        """Per-sample output shape given per-sample input shapes."""

    @abc.abstractmethod
    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        """Run the op on batched inputs ``(batch, *shape)``."""

    def backward(
        self,
        params: Params,
        inputs: Sequence[np.ndarray],
        output: np.ndarray,
        grad_out: np.ndarray,
    ) -> Tuple[Params, Tuple[np.ndarray, ...]]:
        """Return (parameter gradients, input gradients).

        Ops with parameters also take ``input_grads``: when it is false
        the graph needs only their parameter gradients, and the input
        gradients come back empty.
        """
        raise NotImplementedError(f"{type(self).__name__} has no backward")

    def flops(self, *in_shapes: Shape) -> int:
        """Per-sample FLOPs (MAC = 2 FLOPs)."""
        return 0

    def macs(self, *in_shapes: Shape) -> int:
        """Per-sample multiply-accumulates (for systolic mapping)."""
        return 0

    def weight_params(self) -> int:
        """Number of trainable scalars."""
        return 0

    def weight_bytes(self, dtype_bytes: int = 4) -> int:
        """Parameter bytes at the given scalar width."""
        return self.weight_params() * dtype_bytes

    def init_params(self, rng: np.random.Generator) -> Params:
        """Freshly initialized parameter tensors (may be empty)."""
        return {}

    def config(self) -> dict:
        """JSON-serializable constructor arguments (for onnx_lite)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v}" for k, v in self.config().items())
        return f"{type(self).__name__}({args})"


class Input(Op):
    """Graph input placeholder with a fixed per-sample shape."""

    arity = 0

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(_size(f"Input shape[{i}]", s) for i, s in enumerate(shape))
        if not self.shape:
            raise ValueError(f"invalid input shape {shape}")

    def output_shape(self, *in_shapes: Shape) -> Shape:
        return self.shape

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        raise RuntimeError("Input nodes are fed, not executed")

    def config(self) -> dict:
        return {"shape": list(self.shape)}

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class Dense(Op):
    """Fully connected layer ``y = x @ W + b`` over flattened input."""

    arity = 1

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        self.in_features = _size("Dense in_features", in_features)
        self.out_features = _size("Dense out_features", out_features)
        self.bias = bool(bias)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        if int(np.prod(shape)) != self.in_features:
            raise ValueError(
                f"Dense expects {self.in_features} features, got shape {shape}"
            )
        return (self.out_features,)

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * self.in_features * self.out_features

    def macs(self, *in_shapes: Shape) -> int:
        return self.in_features * self.out_features

    def weight_params(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0
        )

    def init_params(self, rng: np.random.Generator) -> Params:
        scale = math.sqrt(2.0 / self.in_features)
        params = {
            "W": _as_f32(rng.normal(0.0, scale, (self.in_features, self.out_features)))
        }
        if self.bias:
            params["b"] = np.zeros(self.out_features, dtype=np.float32)
        return params

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        # BLAS wants unit strides: a stride-0 (broadcast) batch would
        # fall back to numpy's own loop and sum in another order
        x2 = np.ascontiguousarray(x.reshape(x.shape[0], -1))
        y = x2 @ params["W"]
        if self.bias:
            y += params["b"]
        return y

    def backward(self, params, inputs, output, grad_out, input_grads=True):
        (x,) = inputs
        x2 = x.reshape(x.shape[0], -1)
        grads: Params = {"W": x2.T @ grad_out}
        if self.bias:
            grads["b"] = grad_out.sum(axis=0)
        if not input_grads:
            return grads, ()
        grad_x = (grad_out @ params["W"].T).reshape(x.shape)
        return grads, (grad_x,)

    def config(self) -> dict:
        return {
            "in_features": self.in_features,
            "out_features": self.out_features,
            "bias": self.bias,
        }


def _conv_out_dim(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError("convolution output dimension is non-positive")
    return out


class Conv2D(Op):
    """2-D convolution over ``(C, H, W)`` inputs, one GEMM per kernel offset.

    The batch is copied once into a channel-major, zero-padded canvas
    ``(C, N, ph_h*s, ph_w*s)`` with ``ph_h = out_h + d``,
    ``ph_w = out_w + d`` and ``d = (k-1)//s``, and split into its ``s*s``
    stride phases, each flattened to ``(C, N*P)`` with ``P = ph_h*ph_w``.
    Kernel offset ``(i, j)`` reads phase ``(i%s, j%s)`` shifted by
    ``off = (i//s)*ph_w + j//s``, so output position ``q`` of the flat
    ``(OC, N*P)`` canvas accumulates ``W[:, :, i, j] @ X[:, q + off]``.  A
    valid output ``(oy, ox)`` reads ``(oy + i//s, ox + j//s)``, which stays
    inside its own sample's ``ph_h x ph_w`` tile, so one GEMM over the
    first ``M = N*P - d*(ph_w+1)`` positions serves the whole batch; the
    other positions are cropped in forward and carry zero gradient in
    backward.  The canvas copy also hands the GEMMs unit-stride data
    whatever the input's strides, a broadcast batch included.
    """

    arity = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        self.in_channels = _size("Conv2D in_channels", in_channels)
        self.out_channels = _size("Conv2D out_channels", out_channels)
        self.kernel = _size("Conv2D kernel", kernel)
        self.stride = _size("Conv2D stride", stride)
        self.padding = _size("Conv2D padding", padding, minimum=0)
        self.bias = bool(bias)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ValueError(f"Conv2D expects (C={self.in_channels},H,W), got {shape}")
        _, h, w = shape
        out_h = _conv_out_dim(h, self.kernel, self.stride, self.padding)
        out_w = _conv_out_dim(w, self.kernel, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def macs(self, *in_shapes: Shape) -> int:
        _, out_h, out_w = self.output_shape(*in_shapes)
        return (
            out_h * out_w * self.out_channels
            * self.in_channels * self.kernel * self.kernel
        )

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * self.macs(*in_shapes)

    def weight_params(self) -> int:
        return (
            self.out_channels * self.in_channels * self.kernel * self.kernel
            + (self.out_channels if self.bias else 0)
        )

    def init_params(self, rng: np.random.Generator) -> Params:
        fan_in = self.in_channels * self.kernel * self.kernel
        scale = math.sqrt(2.0 / fan_in)
        params = {
            "W": _as_f32(
                rng.normal(
                    0.0, scale,
                    (self.out_channels, self.in_channels, self.kernel, self.kernel),
                )
            )
        }
        if self.bias:
            params["b"] = np.zeros(self.out_channels, dtype=np.float32)
        return params

    def _canvas(
        self, x_shape: Shape, out_h: int, out_w: int
    ) -> Tuple[int, int, int, int, int]:
        """Phase tile ``ph_h x ph_w``, input rows and columns read, GEMM width.

        Only the input rows and columns some window reads are copied in:
        when ``(H + 2p - k) % s != 0`` the last ones are never read.
        """
        n, _, h, w = x_shape
        k, s, p = self.kernel, self.stride, self.padding
        d = (k - 1) // s
        ph_h, ph_w = out_h + d, out_w + d
        rows = max(0, min(h, (out_h - 1) * s + k - p))
        cols = max(0, min(w, (out_w - 1) * s + k - p))
        return ph_h, ph_w, rows, cols, n * ph_h * ph_w - d * (ph_w + 1)

    def _phases(
        self, x: np.ndarray, ph_h: int, ph_w: int, rows: int, cols: int
    ) -> np.ndarray:
        """Stride phases ``(s*s, C, N*P)`` of the zero-padded batch."""
        n, c = x.shape[:2]
        s, p = self.stride, self.padding
        xp = np.zeros((c, n, ph_h * s, ph_w * s), dtype=x.dtype)
        xp[:, :, p : p + rows, p : p + cols] = x[:, :, :rows, :cols].transpose(1, 0, 2, 3)
        phases = xp.reshape(c, n, ph_h, s, ph_w, s).transpose(3, 5, 0, 1, 2, 4)
        return phases.reshape(s * s, c, n * ph_h * ph_w)

    def _offsets(self, ph_w: int) -> Iterator[Tuple[int, int, int, int]]:
        """``(i, j, phase, flat offset)`` for every kernel offset."""
        s = self.stride
        for i in range(self.kernel):
            for j in range(self.kernel):
                yield i, j, (i % s) * s + j % s, (i // s) * ph_w + j // s

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        n = x.shape[0]
        out_c, out_h, out_w = self.output_shape(x.shape[1:])
        ph_h, ph_w, rows, cols, m = self._canvas(x.shape, out_h, out_w)
        phases = self._phases(x, ph_h, ph_w, rows, cols)
        w = params["W"]
        y = np.zeros((out_c, phases.shape[2]), dtype=np.result_type(x, w))
        for i, j, phase, off in self._offsets(ph_w):
            y[:, :m] += w[:, :, i, j] @ phases[phase, :, off : off + m]
        y = y.reshape(out_c, n, ph_h, ph_w)[:, :, :out_h, :out_w].transpose(1, 0, 2, 3)
        if self.bias:
            y = y + params["b"][:, None, None]
        return y

    def backward(self, params, inputs, output, grad_out, input_grads=True):
        (x,) = inputs
        n, c = x.shape[:2]
        out_c, out_h, out_w = output.shape[1:]
        s, p = self.stride, self.padding
        ph_h, ph_w, rows, cols, m = self._canvas(x.shape, out_h, out_w)
        phases = self._phases(x, ph_h, ph_w, rows, cols)
        g = np.zeros((out_c, n, ph_h, ph_w), dtype=grad_out.dtype)
        g[:, :, :out_h, :out_w] = grad_out.transpose(1, 0, 2, 3)
        g = g.reshape(out_c, -1)[:, :m]
        w = params["W"]
        grad_w = np.empty(w.shape, dtype=np.result_type(x, grad_out))
        grad_phases = np.zeros_like(phases) if input_grads else None
        for i, j, phase, off in self._offsets(ph_w):
            grad_w[:, :, i, j] = g @ phases[phase, :, off : off + m].T
            if grad_phases is not None:
                grad_phases[phase, :, off : off + m] += w[:, :, i, j].T @ g
        grads: Params = {"W": grad_w}
        if self.bias:
            grads["b"] = grad_out.sum(axis=(0, 2, 3))
        if grad_phases is None:
            return grads, ()
        gxp = grad_phases.reshape(s, s, c, n, ph_h, ph_w).transpose(2, 3, 4, 0, 5, 1)
        gxp = gxp.reshape(c, n, ph_h * s, ph_w * s)[:, :, p : p + rows, p : p + cols]
        grad_x = np.zeros_like(x)
        grad_x[:, :, :rows, :cols] = gxp.transpose(1, 0, 2, 3)
        return grads, (grad_x,)

    def config(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
            "bias": self.bias,
        }


class Activation(Op):
    """Pointwise nonlinearity."""

    arity = 1

    def __init__(self, kind: str = "relu"):
        if kind not in _ACT_KINDS:
            raise ValueError(f"unknown activation {kind!r}; choose from {_ACT_KINDS}")
        self.kind = kind

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        return shape

    def flops(self, *in_shapes: Shape) -> int:
        (shape,) = in_shapes
        return 0 if self.kind == "identity" else int(np.prod(shape))

    def forward(
        self, params: Params, *inputs: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Apply the nonlinearity; ``out`` (may be the input) takes the result.

        The in-place steps are the same float operations as
        ``1 / (1 + exp(-clip(x)))``, so ``out`` never changes a value.
        """
        (x,) = inputs
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.kind == "sigmoid":
            z = np.clip(x, -60.0, 60.0, out=out)
            np.negative(z, out=z)
            np.exp(z, out=z)
            np.add(z, 1.0, out=z)
            return np.divide(1.0, z, out=z)
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        return x

    def backward(self, params, inputs, output, grad_out):
        if self.kind == "relu":
            grad = grad_out * (output > 0)
        elif self.kind == "sigmoid":
            grad = grad_out * output * (1.0 - output)
        elif self.kind == "tanh":
            grad = grad_out * (1.0 - output * output)
        else:
            grad = grad_out
        return {}, (grad,)

    def config(self) -> dict:
        return {"kind": self.kind}


class Elementwise(Op):
    """Binary element-wise op between two same-shaped tensors.

    These are the "element-wise layers" of paper Table 1 (e.g. the
    cross-feature difference in ReId and the gating ops in TIR/TextQA).
    """

    arity = 2

    def __init__(self, kind: str = "absdiff"):
        if kind not in _EW_KINDS:
            raise ValueError(f"unknown elementwise kind {kind!r}")
        self.kind = kind

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        if a != b:
            raise ValueError(f"elementwise shape mismatch: {a} vs {b}")
        return a

    def flops(self, *in_shapes: Shape) -> int:
        return int(np.prod(in_shapes[0]))

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        if self.kind == "add":
            return a + b
        if self.kind == "sub":
            return a - b
        if self.kind == "mul":
            return a * b
        return np.abs(a - b)

    def backward(self, params, inputs, output, grad_out):
        a, b = inputs
        if self.kind == "add":
            return {}, (grad_out, grad_out)
        if self.kind == "sub":
            return {}, (grad_out, -grad_out)
        if self.kind == "mul":
            return {}, (grad_out * b, grad_out * a)
        sign = np.sign(a - b)
        return {}, (grad_out * sign, -grad_out * sign)

    def config(self) -> dict:
        return {"kind": self.kind}


class Dot(Op):
    """Batched inner product of two flattened inputs -> shape ``(1,)``."""

    arity = 2

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        if int(np.prod(a)) != int(np.prod(b)):
            raise ValueError(f"dot size mismatch: {a} vs {b}")
        return (1,)

    def flops(self, *in_shapes: Shape) -> int:
        return 2 * int(np.prod(in_shapes[0]))

    def macs(self, *in_shapes: Shape) -> int:
        return int(np.prod(in_shapes[0]))

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        a2 = a.reshape(a.shape[0], -1)
        b2 = b.reshape(b.shape[0], -1)
        return np.sum(a2 * b2, axis=1, keepdims=True)

    def backward(self, params, inputs, output, grad_out):
        a, b = inputs
        a2 = a.reshape(a.shape[0], -1)
        b2 = b.reshape(b.shape[0], -1)
        return {}, (
            (grad_out * b2).reshape(a.shape),
            (grad_out * a2).reshape(b.shape),
        )


class Concat(Op):
    """Concatenate two flattened inputs along the feature axis."""

    arity = 2

    def output_shape(self, *in_shapes: Shape) -> Shape:
        a, b = in_shapes
        return (int(np.prod(a)) + int(np.prod(b)),)

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        a, b = inputs
        return np.concatenate(
            [a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)], axis=1
        )

    def backward(self, params, inputs, output, grad_out):
        a, b = inputs
        na = int(np.prod(a.shape[1:]))
        return {}, (
            grad_out[:, :na].reshape(a.shape),
            grad_out[:, na:].reshape(b.shape),
        )


class Flatten(Op):
    """Reshape any input to a flat feature vector."""

    arity = 1

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        return (int(np.prod(shape)),)

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return x.reshape(x.shape[0], -1)

    def backward(self, params, inputs, output, grad_out):
        (x,) = inputs
        return {}, (grad_out.reshape(x.shape),)


class ScoreHead(Op):
    """Parameter-free similarity-score head.

    Two-branch SCNs in the source applications end in a 2-logit classifier
    (match / no-match).  This head reduces the final layer to the scalar
    similarity score the query engine sorts on:

    * ``sigmoid_diff`` — ``sigmoid(z[1] - z[0])`` over a 2-logit output,
      equivalent to the softmax match probability;
    * ``sigmoid`` — plain sigmoid over a 1-dim output (e.g. TextQA's
      bilinear ``q^T M d`` score).

    With ``affine=True`` the head applies ``sigmoid(scale * z - shift)``
    with a fixed ``scale`` and a *learnable* ``shift`` — needed when the
    upstream score has no threshold of its own (TextQA's bias-free
    bilinear form centers negatives at z = 0, which a plain sigmoid
    cannot separate).  The scale stays fixed because the upstream weights
    already control magnitude; learning it double-parameterizes the
    logit and destabilizes training.

    It is a *score extraction*, not a network layer: it is excluded from
    Table-1 layer counts and its single calibration scalar is negligible.
    """

    arity = 1

    def __init__(self, kind: str = "sigmoid", affine: bool = False,
                 scale: float = 0.05):
        if kind not in ("sigmoid", "sigmoid_diff"):
            raise ValueError(f"unknown score head {kind!r}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.kind = kind
        self.affine = bool(affine)
        self.scale = float(scale)

    def output_shape(self, *in_shapes: Shape) -> Shape:
        (shape,) = in_shapes
        expected = 2 if self.kind == "sigmoid_diff" else 1
        if shape != (expected,):
            raise ValueError(f"{self.kind} score head expects ({expected},), got {shape}")
        return (1,)

    def weight_params(self) -> int:
        return 1 if self.affine else 0

    def init_params(self, rng: np.random.Generator) -> Params:
        if not self.affine:
            return {}
        return {"shift": np.array([0.0], dtype=np.float32)}

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    def _logit(self, params: Params, x: np.ndarray) -> np.ndarray:
        z = x[:, 1:2] - x[:, 0:1] if self.kind == "sigmoid_diff" else x
        if self.affine:
            z = self.scale * z - params["shift"]
        return z

    def forward(self, params: Params, *inputs: np.ndarray) -> np.ndarray:
        (x,) = inputs
        return self._sigmoid(self._logit(params, x))

    def backward(self, params, inputs, output, grad_out, input_grads=True):
        local = grad_out * output * (1.0 - output)  # dL/dz
        grads: Params = {}
        if self.affine:
            grads["shift"] = np.array([float(-local.sum())], dtype=np.float32)
            local = local * self.scale
        if not input_grads:
            return grads, ()
        if self.kind == "sigmoid_diff":
            grad = np.concatenate([-local, local], axis=1)
        else:
            grad = local
        return grads, (grad,)

    def config(self) -> dict:
        return {"kind": self.kind, "affine": self.affine, "scale": self.scale}


#: registry used by onnx_lite deserialization
OP_REGISTRY = {
    cls.__name__: cls
    for cls in (
        Input, Dense, Conv2D, Activation, Elementwise, Dot, Concat, Flatten, ScoreHead,
    )
}
