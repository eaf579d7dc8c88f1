"""Halo tables: the closed-form demand walk behind tile pricing.

``DNNGraph.halo_table`` answers every band of one (end layer, stop
layer) pair from a single array walk; ``DNNGraph.demand_rows`` stays the
plain per-band walk and is the oracle here.  The fast partition arm
prices bands from the tables, the ``REPRO_DSE_FASTPATH=0`` arm walks per
band; both must build the same ``DataPartition``.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnn.graph import GraphError
from repro.dnn.models import MODEL_NAMES, available_models, build_model
from repro.dnn.partition import (
    _entry_layer,
    _make_data_partition_from_shares,
    spatial_prefix,
)


@lru_cache(maxsize=None)
def _reachable(name):
    """Every ``(seg_lo, prefix_hi)`` of a spatial prefix the DSE can
    tile: a segment range starting at ``seg_lo`` ends its prefix at one
    of these."""
    graph = build_model(name)
    segs = graph.segments()
    last = len(segs) - 1
    return [
        (lo, p)
        for lo in range(len(segs))
        for p in range(lo, spatial_prefix(graph, segs, (lo, last))[1] + 1)
    ]


def _partition(graph, shares, seg_range, band, fastpath):
    """The partition assembled on one arm of ``REPRO_DSE_FASTPATH``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_DSE_FASTPATH", fastpath)
        return _make_data_partition_from_shares(graph, shares, None, seg_range, band)


def _draw_band(data, height):
    out_lo = data.draw(st.integers(0, height - 1))
    return out_lo, data.draw(st.integers(out_lo + 1, height))


@pytest.mark.parametrize("name", available_models())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_rows_equal_the_demand_walk(name, data):
    graph = build_model(name)
    segs = graph.segments()
    lo, p = data.draw(st.sampled_from(_reachable(name)))
    end, stop = segs[p].layer_names[-1], _entry_layer(graph, segs, lo)
    table = graph.halo_table(end, stop)
    count = data.draw(st.integers(1, 6))
    bands = [_draw_band(data, graph.spec(end).height) for _ in range(count)]
    rows_lo, rows_hi = table.rows(bands)
    for b, (out_lo, out_hi) in enumerate(bands):
        walk = graph.demand_rows(end, out_lo, out_hi, stop_layer=stop)
        assert set(walk) == set(table.names)
        for k, layer in enumerate(table.names):
            assert graph.clamp_rows(layer, walk[layer]) == (rows_lo[b, k], rows_hi[b, k])


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fast_partition_equals_the_reference_partition(name, data):
    graph = build_model(name)
    segs = graph.segments()
    lo = data.draw(st.sampled_from(sorted({lo for lo, _ in _reachable(name)})))
    hi = data.draw(st.integers(lo, len(segs) - 1))
    shares = data.draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6).filter(
            lambda s: sum(s) > 0
        )
    )
    prefix_hi = spatial_prefix(graph, segs, (lo, hi))[1]
    height = graph.spec(segs[prefix_hi].layer_names[-1]).height
    band = _draw_band(data, height) if data.draw(st.booleans()) else None
    fast = _partition(graph, shares, (lo, hi), band, fastpath="1")
    reference = _partition(graph, shares, (lo, hi), band, fastpath="0")
    assert fast == reference  # tiles: rows, halo rows, flops, flops_by_class
    for mine, theirs in zip(fast.tiles, reference.tiles):
        assert list(mine.flops_by_class) == list(theirs.flops_by_class)


def test_pricing_many_bands_keeps_one_table_per_prefix_and_no_band_state(monkeypatch):
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    graph = build_model("resnet152", fresh=True)
    graph.segment_table()
    before = {key: _size(value) for key, value in vars(graph).items()}
    segs = graph.segments()
    rng = random.Random(17)
    ranges = rng.sample(_reachable("resnet152"), 10)
    prefixes = set()
    for _ in range(500):
        lo, p = rng.choice(ranges)
        height = graph.spec(segs[p].layer_names[-1]).height
        out_lo = rng.randrange(height)
        band = (out_lo, rng.randrange(out_lo + 1, height + 1))
        shares = [rng.random() + 0.01 for _ in range(rng.randrange(1, 5))]
        _make_data_partition_from_shares(graph, shares, None, (lo, p), band)
        prefixes.add((segs[p].layer_names[-1], _entry_layer(graph, segs, lo)))
    assert set(graph._halo_tables) == prefixes and len(prefixes) == 10
    after = {key: _size(value) for key, value in vars(graph).items()}
    assert set(after) == set(before)
    assert {key: size for key, size in after.items() if key != "_halo_tables"} == {
        key: size for key, size in before.items() if key != "_halo_tables"
    }


def _size(value):
    return len(value) if hasattr(value, "__len__") else None


class TestRowLookups:
    def test_rows_reject_negative_and_past_the_end_rows(self, tiny_cnn):
        table = tiny_cnn.halo_table("pool2", "input")
        height = tiny_cnn.spec("pool2").height
        for band in ((-1, 2), (0, height + 1), (height, height + 1)):
            with pytest.raises(GraphError):
                table.rows([band])

    def test_rows_reject_empty_and_inverted_bands(self, tiny_cnn):
        table = tiny_cnn.halo_table("pool2", "input")
        for band in ((2, 2), (3, 1)):
            with pytest.raises(GraphError):
                table.rows([(0, 1), band])

    def test_tables_are_memoised_and_read_only(self, tiny_cnn):
        table = tiny_cnn.halo_table("pool2", "input")
        assert tiny_cnn.halo_table("pool2", "input") is table
        with pytest.raises(ValueError):
            table.lo[0, 0] = 99

    def test_unknown_layer_raises(self, tiny_cnn):
        with pytest.raises(GraphError):
            tiny_cnn.halo_table("nope")
