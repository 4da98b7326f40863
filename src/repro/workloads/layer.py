"""Layer-granularity workload IR.

SCAR schedules at the layer granularity (Definition 1): every model in a
multi-model scenario is a topologically-sorted sequence of layers.  A layer
is described by the seven canonical loop dimensions used by MAESTRO-style
cost models:

====  ========================================================
dim   meaning
====  ========================================================
``n`` batch
``k`` output channels (conv) / output features (GEMM ``N``)
``c`` input channels (conv) / reduction dim (GEMM ``K``)
``y`` output rows (conv) / sequence length (GEMM ``M``)
``x`` output cols (conv) / 1 for GEMM
``r`` kernel height (1 for GEMM)
``s`` kernel width  (1 for GEMM)
====  ========================================================

The IR is deliberately dataflow-agnostic: the same :class:`Layer` is costed
under every dataflow class by :mod:`repro.dataflow.cost`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import WorkloadError


class LayerOp(enum.Enum):
    """Operator classes distinguished by the cost model.

    ``CONV``    dense 2D convolution (also used for transposed convs).
    ``DWCONV``  depthwise convolution (``k == c``, per-channel kernels).
    ``GEMM``    fully-connected / matmul (attention projections, FFNs).
    ``POOL``    pooling; modelled as a weight-less depthwise op.
    ``ELEMWISE`` element-wise op (residual add, activation); near-free
                compute but real data movement.
    """

    CONV = "conv"
    DWCONV = "dwconv"
    GEMM = "gemm"
    POOL = "pool"
    ELEMWISE = "elemwise"


_POSITIVE_DIMS = ("n", "k", "c", "y", "x", "r", "s", "stride",
                  "bytes_per_element")

#: Largest value of any :class:`Layer` dimension.  The zoo's largest is
#: 5,120; a layer with every dimension here, at the largest batch, still
#: costs to finite floats, where a dimension of hundreds of digits
#: overflows the cost model's float arithmetic.
MAX_LAYER_DIM = 1 << 31


@dataclass(frozen=True)
class Layer:
    """One schedulable layer of a DNN model.

    Dimensions follow the convention in the module docstring.  ``stride``
    relates output spatial size to input spatial size (``y_in ~= y * stride``)
    and only affects operand-size estimates, not MAC counts (which are defined
    over output elements).

    ``bytes_per_element`` defaults to 1 (int8, as in Simba-class chiplets).
    """

    name: str
    op: LayerOp
    n: int = 1
    k: int = 1
    c: int = 1
    y: int = 1
    x: int = 1
    r: int = 1
    s: int = 1
    stride: int = 1
    bytes_per_element: int = 1

    def __post_init__(self) -> None:
        for dim in _POSITIVE_DIMS:
            value = getattr(self, dim)
            # bool is an int subclass: ``True`` would pass as 1.
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not 1 <= value <= MAX_LAYER_DIM:
                raise WorkloadError(
                    f"layer {self.name!r}: dimension {dim}={value!r} must be "
                    f"an integer in [1, {MAX_LAYER_DIM}]"
                )
        if self.op is LayerOp.DWCONV and self.k != self.c:
            raise WorkloadError(
                f"depthwise layer {self.name!r} requires k == c "
                f"(got k={self.k}, c={self.c})"
            )

    # -- derived counts ------------------------------------------------

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the layer.

        Depthwise ops reduce over a single channel; element-wise ops touch
        each output element once.
        """
        if self.op in (LayerOp.DWCONV, LayerOp.POOL):
            return self.n * self.c * self.y * self.x * self.r * self.s
        if self.op is LayerOp.ELEMWISE:
            return self.n * self.k * self.y * self.x
        return self.n * self.k * self.c * self.y * self.x * self.r * self.s

    @property
    def weight_bytes(self) -> int:
        """Size of the layer's weights (zero for pooling/element-wise)."""
        if self.op in (LayerOp.POOL, LayerOp.ELEMWISE):
            return 0
        if self.op is LayerOp.DWCONV:
            return self.c * self.r * self.s * self.bytes_per_element
        return self.k * self.c * self.r * self.s * self.bytes_per_element

    @property
    def input_bytes(self) -> int:
        """Size of the input activation tensor (per full batch ``n``)."""
        y_in = self.y * self.stride + max(self.r - self.stride, 0)
        x_in = self.x * self.stride + max(self.s - self.stride, 0)
        if self.op is LayerOp.GEMM:
            # GEMM input is (M=y) x (K=c); x/r/s are 1 by convention.
            return self.n * self.y * self.c * self.bytes_per_element
        return self.n * self.c * y_in * x_in * self.bytes_per_element

    @property
    def output_bytes(self) -> int:
        """Size of the output activation tensor (per full batch ``n``)."""
        return self.n * self.k * self.y * self.x * self.bytes_per_element

    @property
    def footprint_bytes(self) -> int:
        """Working-set estimate: weights + input + output."""
        return self.weight_bytes + self.input_bytes + self.output_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """MACs per byte of operand traffic; drives dataflow affinity."""
        traffic = max(self.footprint_bytes, 1)
        return self.macs / traffic

    # -- manipulation ---------------------------------------------------

    def with_batch(self, batch: int) -> "Layer":
        """Return a copy of this layer with the batch dimension replaced."""
        if batch < 1:
            raise WorkloadError(f"batch must be >= 1, got {batch}")
        return replace(self, n=batch)

    def scaled(self, name: str, *, y: int | None = None, x: int | None = None) -> "Layer":
        """Return a renamed copy with optionally overridden spatial dims."""
        return replace(self, name=name, y=y if y is not None else self.y,
                       x=x if x is not None else self.x)

    def dims(self) -> Mapping[str, int]:
        """Dimension mapping used by the dataflow mappers."""
        return {
            "N": self.n, "K": self.k, "C": self.c,
            "Y": self.y, "X": self.x, "R": self.r, "S": self.s,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        gmacs = self.macs / 1e9
        return (
            f"{self.name}[{self.op.value} n{self.n} k{self.k} c{self.c} "
            f"y{self.y} x{self.x} r{self.r} s{self.s} | {gmacs:.3f} GMACs]"
        )


def conv(name: str, c: int, k: int, y: int, x: int, r: int = 3, s: int | None = None,
         stride: int = 1, n: int = 1) -> Layer:
    """Convenience constructor for a dense convolution layer."""
    return Layer(name=name, op=LayerOp.CONV, n=n, k=k, c=c, y=y, x=x,
                 r=r, s=s if s is not None else r, stride=stride)


def dwconv(name: str, c: int, y: int, x: int, r: int = 3, s: int | None = None,
           stride: int = 1, n: int = 1) -> Layer:
    """Convenience constructor for a depthwise convolution layer."""
    return Layer(name=name, op=LayerOp.DWCONV, n=n, k=c, c=c, y=y, x=x,
                 r=r, s=s if s is not None else r, stride=stride)


def gemm(name: str, m: int, n_out: int, k_in: int, batch: int = 1) -> Layer:
    """Convenience constructor for a GEMM (``M x K_in`` times ``K_in x N``).

    ``m`` maps to ``y`` (sequence length / rows), ``n_out`` to ``k`` and
    ``k_in`` to ``c``.
    """
    return Layer(name=name, op=LayerOp.GEMM, n=batch, k=n_out, c=k_in,
                 y=m, x=1, r=1, s=1)


def pool(name: str, c: int, y: int, x: int, r: int = 2, stride: int = 2,
         n: int = 1) -> Layer:
    """Convenience constructor for a pooling layer."""
    return Layer(name=name, op=LayerOp.POOL, n=n, k=c, c=c, y=y, x=x,
                 r=r, s=r, stride=stride)


def elemwise(name: str, k: int, y: int, x: int, n: int = 1) -> Layer:
    """Convenience constructor for an element-wise layer (residual add)."""
    return Layer(name=name, op=LayerOp.ELEMWISE, n=n, k=k, c=k, y=y, x=x)
