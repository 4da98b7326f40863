"""Unit tests for the layer IR."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.layer import (
    MAX_LAYER_DIM,
    Layer,
    LayerOp,
    conv,
    dwconv,
    elemwise,
    gemm,
    pool,
)


class TestLayerConstruction:
    def test_conv_constructor_maps_dims(self):
        layer = conv("c", c=3, k=64, y=112, x=112, r=7, stride=2)
        assert layer.op is LayerOp.CONV
        assert (layer.c, layer.k, layer.y, layer.x) == (3, 64, 112, 112)
        assert layer.r == layer.s == 7
        assert layer.stride == 2

    def test_gemm_constructor_convention(self):
        layer = gemm("g", m=128, n_out=512, k_in=256)
        assert layer.op is LayerOp.GEMM
        assert layer.y == 128      # M
        assert layer.k == 512      # N
        assert layer.c == 256      # K_in
        assert layer.x == layer.r == layer.s == 1

    def test_rectangular_kernel(self):
        layer = conv("c", c=8, k=8, y=4, x=4, r=1, s=3)
        assert (layer.r, layer.s) == (1, 3)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(WorkloadError, match="k=0"):
            Layer(name="bad", op=LayerOp.CONV, k=0)

    def test_non_integer_dim_rejected(self):
        with pytest.raises(WorkloadError):
            Layer(name="bad", op=LayerOp.CONV, k=2.5)  # type: ignore

    @pytest.mark.parametrize("dim", ["n", "k", "c", "y", "x", "r", "s",
                                     "stride", "bytes_per_element"])
    @pytest.mark.parametrize("value", [True, MAX_LAYER_DIM + 1, 1.5])
    def test_bool_oversized_and_float_dims_rejected(self, dim, value):
        with pytest.raises(WorkloadError, match=f"{dim}={value!r}"):
            Layer(name="bad", op=LayerOp.CONV, **{dim: value})

    def test_every_dim_at_the_cap_is_accepted(self):
        dims = dict.fromkeys(("n", "k", "c", "y", "x", "r", "s", "stride",
                              "bytes_per_element"), MAX_LAYER_DIM)
        assert Layer(name="cap", op=LayerOp.CONV, **dims).k == MAX_LAYER_DIM

    def test_depthwise_requires_k_equals_c(self):
        with pytest.raises(WorkloadError, match="k == c"):
            Layer(name="bad", op=LayerOp.DWCONV, k=8, c=16)

    def test_dwconv_constructor_sets_k(self):
        layer = dwconv("d", c=32, y=8, x=8)
        assert layer.k == layer.c == 32


class TestDerivedCounts:
    def test_conv_macs(self):
        layer = conv("c", c=4, k=8, y=6, x=5, r=3)
        assert layer.macs == 8 * 4 * 6 * 5 * 9

    def test_gemm_macs(self):
        layer = gemm("g", m=10, n_out=20, k_in=30)
        assert layer.macs == 10 * 20 * 30

    def test_dwconv_macs_reduce_single_channel(self):
        layer = dwconv("d", c=16, y=4, x=4, r=3)
        assert layer.macs == 16 * 4 * 4 * 9

    def test_elemwise_macs(self):
        layer = elemwise("e", k=16, y=4, x=4)
        assert layer.macs == 16 * 16

    def test_weight_bytes(self):
        layer = conv("c", c=4, k=8, y=6, x=5, r=3)
        assert layer.weight_bytes == 8 * 4 * 9

    def test_pool_has_no_weights(self):
        assert pool("p", c=16, y=4, x=4).weight_bytes == 0

    def test_elemwise_has_no_weights(self):
        assert elemwise("e", k=16, y=4, x=4).weight_bytes == 0

    def test_output_bytes_scale_with_batch(self):
        layer = conv("c", c=4, k=8, y=6, x=5, r=3)
        assert layer.with_batch(3).output_bytes == 3 * layer.output_bytes

    def test_gemm_input_bytes(self):
        layer = gemm("g", m=10, n_out=20, k_in=30)
        assert layer.input_bytes == 10 * 30

    def test_conv_input_bytes_account_stride_and_kernel(self):
        layer = conv("c", c=2, k=2, y=4, x=4, r=3, stride=2)
        # y_in = 4*2 + (3-2) = 9
        assert layer.input_bytes == 2 * 9 * 9

    def test_footprint_is_sum(self):
        layer = conv("c", c=4, k=8, y=6, x=5, r=3)
        assert layer.footprint_bytes == (layer.weight_bytes
                                         + layer.input_bytes
                                         + layer.output_bytes)

    def test_arithmetic_intensity_positive(self):
        assert conv("c", c=4, k=8, y=6, x=5).arithmetic_intensity > 0


class TestManipulation:
    def test_with_batch_preserves_other_dims(self):
        layer = conv("c", c=4, k=8, y=6, x=5)
        batched = layer.with_batch(7)
        assert batched.n == 7
        assert batched.k == layer.k
        assert batched.name == layer.name

    def test_with_batch_rejects_zero(self):
        with pytest.raises(WorkloadError):
            conv("c", c=4, k=8, y=6, x=5).with_batch(0)

    def test_scaled_renames_and_overrides(self):
        layer = conv("c", c=4, k=8, y=6, x=5)
        scaled = layer.scaled("c2", y=12)
        assert scaled.name == "c2"
        assert scaled.y == 12 and scaled.x == 5

    def test_dims_mapping(self):
        layer = conv("c", c=4, k=8, y=6, x=5, r=3)
        dims = layer.dims()
        assert dims == {"N": 1, "K": 8, "C": 4, "Y": 6, "X": 5,
                        "R": 3, "S": 3}

    def test_layer_is_hashable_and_frozen(self):
        layer = conv("c", c=4, k=8, y=6, x=5)
        assert hash(layer) == hash(conv("c", c=4, k=8, y=6, x=5))
        with pytest.raises(AttributeError):
            layer.k = 9  # type: ignore
