"""Unit tests for the DNN graph and segment extraction."""

import pytest

from repro.dnn.graph import DNNGraph, GraphBuilder, GraphError
from repro.dnn.layers import Add, Conv2D, Dense, Flatten, GlobalAvgPool, Input, Pool2D, Softmax
from repro.dnn.tensors import image


def _chain(side=16):
    builder = GraphBuilder("chain", image(side, 3))
    builder.add(Conv2D(name="c1", filters=4, kernel_size=3, strides=1, pad="same"))
    builder.add(Conv2D(name="c2", filters=8, kernel_size=3, strides=2, pad="same"))
    builder.add(GlobalAvgPool(name="gap"))
    builder.add(Dense(name="fc", units=10))
    return builder.build()


class TestConstruction:
    def test_builds_and_propagates(self):
        graph = _chain()
        assert graph.spec("c1").channels == 4
        assert graph.spec("c2").height == 8
        assert graph.output_spec.channels == 10

    def test_duplicate_names_rejected(self):
        builder = GraphBuilder("g", image(8, 3))
        builder.add(Conv2D(name="c", filters=4))
        with pytest.raises(GraphError):
            builder.add(Conv2D(name="c", filters=4))

    def test_unknown_producer_rejected(self):
        with pytest.raises(GraphError):
            DNNGraph(
                "g",
                [
                    Input(name="input", spec=image(8, 3)),
                    Conv2D(name="c", filters=4, inputs=("missing",)),
                ],
            )

    def test_forward_reference_rejected(self):
        with pytest.raises(GraphError):
            DNNGraph(
                "g",
                [
                    Input(name="input", spec=image(8, 3)),
                    Add(name="a", inputs=("c",)),
                    Conv2D(name="c", filters=3, inputs=("input",)),
                ],
            )

    def test_first_layer_must_be_input(self):
        with pytest.raises(GraphError):
            DNNGraph("g", [Conv2D(name="c", filters=4)])

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            DNNGraph("g", [])

    def test_orphan_layer_rejected(self):
        with pytest.raises(GraphError):
            DNNGraph(
                "g",
                [Input(name="input", spec=image(8, 3)), Conv2D(name="c", filters=4)],
            )

    def test_shape_error_includes_layer_name(self):
        builder = GraphBuilder("g", image(2, 3))
        builder.add(Conv2D(name="too_big", filters=4, kernel_size=5, pad="valid"))
        with pytest.raises(GraphError, match="too_big"):
            builder.build()


class TestAccounting:
    def test_total_flops_is_sum(self):
        graph = _chain()
        assert graph.total_flops == sum(
            graph.layer_flops(layer.name) for layer in graph.layers
        )

    def test_flops_by_class_partitions_total(self):
        graph = _chain()
        assert sum(graph.flops_by_class().values()) == graph.total_flops

    def test_consumers(self):
        graph = _chain()
        assert graph.consumers("c1") == ("c2",)
        assert graph.consumers("fc") == ()

    def test_weight_bytes_positive(self):
        assert _chain().total_weight_bytes > 0


class TestCutPoints:
    def test_chain_every_layer_is_cut(self):
        graph = _chain()
        cuts = graph.cut_points()
        # input, c1, c2, gap are all single-tensor frontiers; the last
        # layer is included by convention.
        assert cuts == [0, 1, 2, 3, 4]

    def test_residual_has_no_cut_inside(self, tiny_residual):
        cuts = tiny_residual.cut_points()
        names = [tiny_residual.layers[idx].name for idx in cuts]
        # The residual body (res_conv1/res_conv2) must not be cut points:
        # the entry tensor stays live until the Add.
        assert "res_conv1" not in names
        assert "res_conv2" not in names
        assert "res_add" in names

    def test_branchy_has_no_cut_inside_module(self, tiny_branchy):
        cuts = tiny_branchy.cut_points()
        names = [tiny_branchy.layers[idx].name for idx in cuts]
        assert "branch1" not in names
        assert "branch2" not in names
        assert "concat" in names


class TestSegments:
    def test_segments_cover_all_layers(self, tiny_branchy):
        segments = tiny_branchy.segments()
        covered = [name for seg in segments for name in seg.layer_names]
        expected = [layer.name for layer in tiny_branchy.layers[1:]]
        assert covered == expected

    def test_segment_flops_sum_to_total(self, tiny_residual):
        segments = tiny_residual.segments()
        assert sum(seg.flops for seg in segments) == tiny_residual.total_flops

    def test_segment_boundaries_chain(self, tiny_cnn):
        segments = tiny_cnn.segments()
        for prev, cur in zip(segments, segments[1:]):
            assert prev.out_spec == cur.in_spec

    def test_spatial_flags(self, tiny_cnn):
        segments = tiny_cnn.segments()
        # flatten/fc segments are not spatial
        assert not segments[-1].spatial
        assert segments[0].spatial

    def test_num_ops_counts_layers(self, tiny_cnn):
        segments = tiny_cnn.segments()
        assert sum(seg.num_ops for seg in segments) == tiny_cnn.num_layers - 1


class TestDemandRows:
    def test_full_range_demand(self, tiny_cnn):
        lo, hi = tiny_cnn.required_input_rows(0, tiny_cnn.spec("pool2").height)
        assert (lo, hi) == (0, tiny_cnn.input_spec.height)

    def test_band_demand_is_superset(self, tiny_cnn):
        demands = tiny_cnn.demand_rows("pool2", 2, 4)
        in_lo, in_hi = tiny_cnn.clamp_rows("input", demands["input"])
        # pool2 rows [2,4) need input rows covering at least [8,16)
        assert in_lo <= 8 and in_hi >= 16

    def test_demand_monotone_in_band(self, tiny_cnn):
        small = tiny_cnn.demand_rows("pool2", 2, 3)["input"]
        large = tiny_cnn.demand_rows("pool2", 1, 5)["input"]
        assert large[0] <= small[0] and large[1] >= small[1]

    def test_stop_layer_bounds_walk(self, tiny_cnn):
        demands = tiny_cnn.demand_rows("conv2", 0, 4, stop_layer="pool1")
        assert "pool1" in demands
        assert "conv1" not in demands
        assert "input" not in demands

    def test_unknown_layer_raises(self, tiny_cnn):
        with pytest.raises(GraphError):
            tiny_cnn.demand_rows("nope", 0, 1)

    @pytest.mark.parametrize("band", [(5, 2), (3, 3)])
    def test_inverted_or_empty_band_raises(self, tiny_cnn, band):
        with pytest.raises(GraphError):
            tiny_cnn.demand_rows("predictions", *band)

    def test_clamp_rows(self, tiny_cnn):
        assert tiny_cnn.clamp_rows("input", (-3, 100)) == (0, 32)


class TestBuilderHelpers:
    def test_unique_names(self):
        builder = GraphBuilder("g", image(8, 3))
        assert builder.unique("conv") == "conv"
        assert builder.unique("conv") == "conv_1"
        assert builder.unique("conv") == "conv_2"

    def test_after_wiring(self):
        builder = GraphBuilder("g", image(8, 3))
        first = builder.add(Conv2D(name="a", filters=4))
        builder.add(Conv2D(name="b", filters=4))
        builder.add(Conv2D(name="c", filters=4), after=first)
        graph = builder.build()
        assert graph.layer("c").inputs == ("a",)
