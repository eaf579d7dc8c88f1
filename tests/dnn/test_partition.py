"""Unit tests for model/data partition semantics."""

import pytest

from repro.dnn.partition import (
    DataPartition,
    PartitionError,
    aggregate_block,
    even_shares,
    make_data_partition,
    make_data_partition_from_shares,
    make_model_partition,
    max_useful_tiles,
    rows_from_shares,
    spatial_prefix,
)


class TestRowsFromShares:
    def test_even_split(self):
        assert rows_from_shares(8, [0.5, 0.5]) == [(0, 4), (4, 8)]

    def test_uneven_split(self):
        bands = rows_from_shares(10, [0.7, 0.3])
        assert bands == [(0, 7), (7, 10)]

    def test_bands_cover_and_are_disjoint(self):
        bands = rows_from_shares(17, [0.2, 0.5, 0.3])
        assert bands[0][0] == 0
        assert bands[-1][1] == 17
        for prev, cur in zip(bands, bands[1:]):
            assert prev[1] == cur[0]

    def test_zero_row_bands_dropped(self):
        bands = rows_from_shares(3, [0.01, 0.99])
        assert len(bands) in (1, 2)
        assert bands[-1][1] == 3

    def test_unnormalised_shares_ok(self):
        assert rows_from_shares(8, [1, 1]) == [(0, 4), (4, 8)]

    def test_invalid_inputs(self):
        with pytest.raises(PartitionError):
            rows_from_shares(0, [1.0])
        with pytest.raises(PartitionError):
            rows_from_shares(8, [])
        with pytest.raises(PartitionError):
            rows_from_shares(8, [-0.1, 1.1])
        with pytest.raises(PartitionError):
            rows_from_shares(8, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_share_is_a_partition_error_naming_it(self, bad):
        with pytest.raises(PartitionError, match=repr(bad)):
            rows_from_shares(10, [bad, 1.0])

    def test_non_finite_share_stays_inside_the_partition_guards(self, tiny_cnn):
        with pytest.raises(PartitionError):
            make_data_partition_from_shares(tiny_cnn, [float("nan"), 1.0])

    def test_even_shares(self):
        assert even_shares(4) == (0.25, 0.25, 0.25, 0.25)
        with pytest.raises(PartitionError):
            even_shares(0)


class TestModelPartition:
    def test_single_block(self, tiny_cnn):
        partition = make_model_partition(tiny_cnn, [])
        assert partition.num_blocks == 1
        assert partition.total_flops == tiny_cnn.total_flops

    def test_two_blocks(self, tiny_cnn):
        segments = tiny_cnn.segments()
        partition = make_model_partition(tiny_cnn, [1])
        assert partition.num_blocks == 2
        assert partition.blocks[0].seg_hi == 1
        assert partition.blocks[1].seg_lo == 2
        assert partition.total_flops == tiny_cnn.total_flops

    def test_block_boundary_tensors_chain(self, tiny_cnn):
        partition = make_model_partition(tiny_cnn, [0, 2])
        for prev, cur in zip(partition.blocks, partition.blocks[1:]):
            assert prev.out_spec == cur.in_spec

    def test_cut_out_of_range_rejected(self, tiny_cnn):
        last = len(tiny_cnn.segments()) - 1
        with pytest.raises(PartitionError):
            make_model_partition(tiny_cnn, [last])

    def test_aggregate_block_sums(self, tiny_cnn):
        segments = tiny_cnn.segments()
        block = aggregate_block(segments, 0, 2)
        assert block.flops == sum(seg.flops for seg in segments[:3])
        assert block.weight_bytes == sum(seg.weight_bytes for seg in segments[:3])

    def test_aggregate_block_bad_range(self, tiny_cnn):
        with pytest.raises(PartitionError):
            aggregate_block(tiny_cnn.segments(), 2, 1)


class TestSpatialPrefix:
    def test_prefix_of_cnn(self, tiny_cnn):
        segments = tiny_cnn.segments()
        lo, hi = spatial_prefix(tiny_cnn, segments)
        assert lo == 0
        assert segments[hi].spatial
        if hi + 1 < len(segments):
            assert not segments[hi + 1].spatial

    def test_nonspatial_range(self, tiny_cnn):
        segments = tiny_cnn.segments()
        last = len(segments) - 1
        lo, hi = spatial_prefix(tiny_cnn, segments, (last, last))
        assert hi < lo


class TestDataPartition:
    def test_tiles_cover_output(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        partition = make_data_partition(tiny_cnn, 4, seg_range=(0, prefix_hi))
        height = partition.prefix_out_spec.height
        assert partition.tiles[0].out_lo == 0
        assert partition.tiles[-1].out_hi == height
        for prev, cur in zip(partition.tiles, partition.tiles[1:]):
            assert prev.out_hi == cur.out_lo

    def test_halo_inflates_flops(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        partition = make_data_partition(tiny_cnn, 4, seg_range=(0, prefix_hi))
        assert partition.total_flops >= partition.base_flops
        assert partition.halo_overhead_flops >= 0

    def test_single_tile_no_inflation(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        partition = make_data_partition(tiny_cnn, 1, seg_range=(0, prefix_hi))
        assert partition.num_tiles == 1
        assert partition.halo_overhead_flops == 0

    def test_tail_included_for_full_range(self, tiny_cnn):
        partition = make_data_partition(tiny_cnn, 2)
        assert partition.tail_flops > 0  # dense head

    def test_band_excludes_tail(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        height = tiny_cnn.spec(segments[prefix_hi].layer_names[-1]).height
        partition = make_data_partition_from_shares(
            tiny_cnn, [0.5, 0.5], seg_range=(0, prefix_hi), band=(0, height // 2)
        )
        assert partition.tail_flops == 0
        assert partition.tiles[-1].out_hi == height // 2

    def test_band_validation(self, tiny_cnn):
        with pytest.raises(PartitionError):
            make_data_partition_from_shares(tiny_cnn, [0.5, 0.5], band=(5, 5))

    def test_no_spatial_prefix_raises(self, tiny_cnn):
        segments = tiny_cnn.segments()
        last = len(segments) - 1
        with pytest.raises(PartitionError):
            make_data_partition(tiny_cnn, 2, seg_range=(last, last))

    def test_tile_input_bytes_match_rows(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        partition = make_data_partition(tiny_cnn, 2, seg_range=(0, prefix_hi))
        for tile in partition.tiles:
            expected = tiny_cnn.input_spec.rows_bytes(tile.in_rows)
            assert tile.input_bytes == expected

    def test_max_useful_tiles(self, tiny_cnn):
        assert max_useful_tiles(tiny_cnn) >= 2

    def test_weighted_shares_shift_rows(self, tiny_cnn):
        segments = tiny_cnn.segments()
        _, prefix_hi = spatial_prefix(tiny_cnn, segments)
        partition = make_data_partition_from_shares(
            tiny_cnn, [0.75, 0.25], seg_range=(0, prefix_hi)
        )
        assert partition.tiles[0].out_rows > partition.tiles[1].out_rows


class TestMidGraphPartition:
    def test_chunk_partition_stays_in_range(self, resnet152):
        segments = resnet152.segments()
        partition = make_data_partition_from_shares(
            resnet152, [0.5, 0.5], segments=segments, seg_range=(10, 15)
        )
        assert partition.num_tiles == 2
        covered = {
            name for seg in segments[10:16] for name in seg.layer_names
        } | {partition.entry_layer}
        # all demand stayed inside the range (would raise otherwise)
        assert partition.entry_layer == segments[9].layer_names[-1]
