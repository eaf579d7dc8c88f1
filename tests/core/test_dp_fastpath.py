"""Equivalence tests: the vectorized DSE fast path must reproduce the
pure-Python reference implementations *exactly* -- same floats, same
tie-breaks, same plans -- across randomized executors, quanta, and
coarsening levels.  ``REPRO_DSE_FASTPATH=0`` must route the public API
to the reference code."""

import importlib
import math
import pkgutil
import random
import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

import repro.core
import repro.core.dp as dp_module
import repro.core.local_partitioner as local_module
import repro.core.memo as memo_module
import repro.dnn
import repro.dnn.partition as partition_module
from repro.core.dp import (
    ExecutorModel,
    _coarsen,
    _coarsen_reference,
    _data_shares_dp_numpy_batch,
    _pipeline_cuts_dp_numpy,
    _relax_cuts,
    clear_result_memos,
    data_shares_dp,
    data_shares_dp_batch,
    data_shares_dp_reference,
    fastpath_enabled,
    pipeline_cuts_dp,
    pipeline_cuts_dp_reference,
)
from repro.core.hidp import HiDPStrategy
from repro.core.memo import Memo
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.models import build_model
from repro.platform.cluster import build_cluster

#: Stand-in segment: the fields the pipeline DP and its coarsening read.
Span = namedtuple("Span", "index flops_by_class in_bytes out_bytes num_ops")


def _random_executor(rng, ident):
    rates = {cls: rng.uniform(0.5, 50.0) * 1e9 for cls in LAYER_CLASSES}
    return ExecutorModel(
        ident=ident,
        rates=rates,
        comm_bytes_s=rng.choice([1e6, 1e7, 1e8, 1e18]),
        fixed_s=rng.choice([0.0, 0.0005, 0.001, 0.01]),
        dispatch_s=rng.choice([0.0, 1e-5, 1e-4]),
    )


def _random_flops(rng):
    classes = rng.sample(LAYER_CLASSES, rng.randint(1, len(LAYER_CLASSES)))
    return {cls: rng.randint(0, 10**10) for cls in classes}


class TestDataSharesEquivalence:
    def test_randomized_exact_match(self):
        rng = random.Random(1234)
        for trial in range(200):
            executors = [
                _random_executor(rng, f"e{i}") for i in range(rng.randint(1, 6))
            ]
            flops = _random_flops(rng)
            quanta = rng.choice([1, 2, 5, 10, 20, 40])
            num_ops = rng.randint(0, 300)
            input_bytes = rng.randint(0, 10**7)
            inflation = (
                (lambda share: 1.0)
                if trial % 2 == 0
                else (lambda share: 1.0 + 0.3 * share)
            )
            reference = data_shares_dp_reference(
                flops, input_bytes, executors, quanta, num_ops, inflation
            )
            (fast,) = _data_shares_dp_numpy_batch(
                [(flops, input_bytes, num_ops)], executors, quanta, inflation
            )
            assert fast == reference  # exact: shares tuple and makespan float

    def test_batch_matches_per_item_calls(self):
        rng = random.Random(77)
        executors = [_random_executor(rng, f"e{i}") for i in range(4)]
        items = [
            (_random_flops(rng), rng.randint(0, 10**7), rng.randint(0, 100))
            for _ in range(12)
        ]
        batched = data_shares_dp_batch(items, executors, quanta=15)
        singles = [
            data_shares_dp(flops, in_bytes, executors, quanta=15, num_ops=num_ops)
            for flops, in_bytes, num_ops in items
        ]
        assert batched == singles

    def test_batch_empty(self):
        assert data_shares_dp_batch([], [], quanta=10) == []

    def test_validation_matches_reference(self):
        executor = _random_executor(random.Random(0), "e")
        with pytest.raises(ValueError):
            _data_shares_dp_numpy_batch([({"conv": 1}, 0, 0)], [], 10, lambda s: 1.0)
        with pytest.raises(ValueError):
            _data_shares_dp_numpy_batch([({"conv": 1}, 0, 0)], [executor], 0, lambda s: 1.0)


class TestPipelineCutsEquivalence:
    @pytest.fixture(scope="class")
    def model_segments(self):
        return {
            name: build_model(name).segments()
            for name in ("tiny_cnn", "tiny_branchy", "mobilenet_v2", "resnet152")
        }

    def test_randomized_exact_match(self, model_segments):
        rng = random.Random(4321)
        for _ in range(80):
            segments = model_segments[rng.choice(list(model_segments))]
            executors = [
                _random_executor(rng, f"e{i}") for i in range(rng.randint(1, 5))
            ]
            source = rng.randrange(len(executors))
            max_segments = rng.choice([4, 8, 16, 48])
            weight = rng.choice([0.0, 0.5, 1.0])
            reference = pipeline_cuts_dp_reference(
                segments, executors, source, weight, max_segments
            )
            fast = _pipeline_cuts_dp_numpy(
                segments, executors, source, weight, max_segments
            )
            assert fast == reference  # exact: blocks, latency, bottleneck

    def test_validation_matches_reference(self, model_segments):
        executor = _random_executor(random.Random(0), "e")
        with pytest.raises(ValueError):
            _pipeline_cuts_dp_numpy([], [executor], 0, 1.0, 48)
        with pytest.raises(ValueError):
            _pipeline_cuts_dp_numpy(model_segments["tiny_cnn"], [], 0, 1.0, 48)
        with pytest.raises(ValueError):
            _pipeline_cuts_dp_numpy(model_segments["tiny_cnn"], [executor], 3, 1.0, 48)


def _integer_executor(rng, ident):
    """Small integer rates and costs: many candidates tie exactly or
    round to the same float."""
    rates = {cls: float(rng.choice([1, 2, 4, 8])) for cls in LAYER_CLASSES}
    return ExecutorModel(
        ident=ident,
        rates=rates,
        comm_bytes_s=rng.choice([1.0, 2.0, 4.0, math.inf]),
        fixed_s=float(rng.randint(0, 3)),
        dispatch_s=float(rng.randint(0, 2)),
    )


def _random_chain(rng, n, integer):
    top = 8 if integer else 10**10
    return tuple(
        Span(
            index=k,
            flops_by_class={
                cls: rng.randint(0, top)
                for cls in LAYER_CLASSES
                if rng.random() < 0.6 or cls == "conv"
            },
            in_bytes=rng.randint(0, 8 if integer else 10**7),
            out_bytes=rng.randint(0, 8 if integer else 10**7),
            num_ops=rng.randint(0, 3),
        )
        for k in range(n)
    )


def _with_twin(rng, executors):
    """Copy executor 0's values into a second slot: identical rates give
    exact ties between the twins at every cell."""
    if len(executors) < 2:
        return executors
    slot = rng.randrange(1, len(executors))
    twin = replace(executors[0], ident=f"twin{slot}")
    return executors[:slot] + [twin] + executors[slot + 1 :]


class TestRelaxationRounds:
    """The relaxation-round kernel against the sequential reference on
    the cases where a wrong tie-break or fold order would show."""

    @pytest.mark.parametrize("integer", [False, True], ids=["real", "integer"])
    def test_randomized_differential(self, integer):
        rng = random.Random(2020 + integer)
        for trial in range(300):
            n = rng.choice([1, 2, 3, 5, 9, 20, 60])
            m = rng.choice([1, 2, 3, 5])
            make = _integer_executor if integer else _random_executor
            executors = [make(rng, f"e{i}") for i in range(m)]
            if trial % 3:
                executors = _with_twin(rng, executors)
            if trial % 5 == 0:
                executors[rng.randrange(m)] = replace(
                    executors[rng.randrange(m)], comm_bytes_s=math.inf
                )
            chain = _random_chain(rng, n, integer)
            source = rng.randrange(m)
            weight = rng.choice([0.0, 0.5, 1.0])
            max_segments = rng.choice([4, 16, 48])
            reference = pipeline_cuts_dp_reference(chain, executors, source, weight, max_segments)
            fast = _pipeline_cuts_dp_numpy(chain, executors, source, weight, max_segments)
            assert fast == reference, (trial, n, m, source)

    def test_single_span_and_single_executor(self):
        rng = random.Random(5)
        executors = [_random_executor(rng, f"e{i}") for i in range(4)]
        chain = _random_chain(rng, 1, False)
        for source in range(4):
            assert _pipeline_cuts_dp_numpy(chain, executors, source, 1.0, 48) == (
                pipeline_cuts_dp_reference(chain, executors, source, 1.0, 48)
            )
        long_chain = _random_chain(rng, 30, False)
        solo = executors[:1]
        plan = _pipeline_cuts_dp_numpy(long_chain, solo, 0, 1.0, 48)
        assert plan == pipeline_cuts_dp_reference(long_chain, solo, 0, 1.0, 48)
        assert plan.blocks == ((0, 29, 0),)

    def test_overflowed_compute_matches_reference(self):
        # A near-zero rate overflows span costs to +inf, so block costs
        # hit inf - inf; the reference skips those NaN candidates.
        rng = random.Random(8)
        chain = _random_chain(rng, 12, False)
        slow = ExecutorModel("slow", {cls: 1e-310 for cls in LAYER_CLASSES}, 1e6)
        cases = [[slow] + [_random_executor(rng, f"e{i}") for i in range(m - 1)] for m in (2, 3)]
        # Nothing finite at all: the plan is one infinite block whose
        # stage time the reference never set (0.0).
        cases += [[slow], [slow, replace(slow, ident="slow2")]]
        for executors in cases:
            for source in range(len(executors)):
                with np.errstate(over="ignore"):
                    fast = _pipeline_cuts_dp_numpy(chain, executors, source, 1.0, 48)
                    reference = pipeline_cuts_dp_reference(chain, executors, source, 1.0, 48)
                assert fast == reference

    def test_rounds_reach_the_fixed_point_within_n(self):
        rng = random.Random(11)
        for _ in range(50):
            n, m = rng.randint(2, 30), rng.randint(2, 5)
            entry = np.array([[rng.uniform(0, 10) for _ in range(n)] for _ in range(m)])
            entry = np.cumsum(entry, axis=1)
            transfer = np.array([[rng.uniform(0, 3) for _ in range(n - 1)] for _ in range(m)])
            blk = np.full((n - 1, m, n), math.inf)
            for j in range(n - 1):
                blk[j, :, j + 1 :] = entry[:, j + 1 :] - entry[:, j : j + 1]
            table, rounds = _relax_cuts(entry, transfer, blk)
            assert 1 <= rounds <= n
            again, _ = _relax_cuts(table, transfer, blk)
            assert np.array_equal(again, table)  # a fixed point

    def test_nan_table_stops_after_n_rounds(self):
        n, m = 7, 3
        entry = np.ones((m, n))
        entry[1, 2] = math.nan  # NaN never equals itself: no round settles
        blk = np.zeros((n - 1, m, n))
        _, rounds = _relax_cuts(entry, np.zeros((m, n - 1)), blk)
        assert rounds == n

    @pytest.mark.parametrize("hatch", ["1", "0"])
    def test_nan_costs_raise(self, hatch, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", hatch)
        rng = random.Random(3)
        executors = [_random_executor(rng, f"e{i}") for i in range(3)]
        chain = list(_random_chain(rng, 6, False))
        nan_flops = list(chain)
        nan_flops[2] = nan_flops[2]._replace(flops_by_class={"conv": math.nan})
        with pytest.raises(ValueError, match="span 2: compute cost on executor e0 is NaN"):
            pipeline_cuts_dp(tuple(nan_flops), executors)
        nan_bytes = list(chain)
        nan_bytes[4] = nan_bytes[4]._replace(in_bytes=math.nan)
        with pytest.raises(ValueError, match="span 4: transfer cost on executor e0 is NaN"):
            pipeline_cuts_dp(tuple(nan_bytes), executors)
        # inf bytes at an infinite comm rate is inf / inf.
        inf_bytes = list(chain)
        inf_bytes[1] = inf_bytes[1]._replace(in_bytes=math.inf)
        free = [replace(executors[0], comm_bytes_s=math.inf)] + executors[1:]
        with pytest.raises(ValueError, match="span 1: transfer cost on executor e0 is NaN"):
            pipeline_cuts_dp(tuple(inf_bytes), free)


class TestPipelineGeometryMemo:
    def test_replans_under_new_loads_share_one_geometry(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        geometry = dp_module._PIPELINE_GEOMETRY
        clear_result_memos()
        segments = build_model("resnet152").segments()
        rng = random.Random(21)
        executors = [_random_executor(rng, f"e{i}") for i in range(4)]
        counts = (geometry.hits, geometry.misses)
        for _ in range(6):
            loaded = [
                replace(executor, fixed_s=executor.fixed_s + rng.uniform(0.0, 0.2))
                for executor in executors
            ]
            assert pipeline_cuts_dp(segments, loaded) == pipeline_cuts_dp_reference(
                segments, loaded
            )
        # One geometry built, reused by the five later loads.
        assert (geometry.hits - counts[0], geometry.misses - counts[1]) == (5, 1)
        assert len(geometry) == 1

    def test_memo_is_bounded_and_identity_checked(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        geometry = dp_module._PIPELINE_GEOMETRY
        clear_result_memos()
        rng = random.Random(22)
        executors = [_random_executor(rng, f"e{i}") for i in range(3)]
        chains = [_random_chain(rng, 10, False) for _ in range(geometry.max_entries + 5)]
        evictions = geometry.evictions
        for chain in chains:
            _pipeline_cuts_dp_numpy(chain, executors, 0, 1.0, 48)
        assert len(geometry) == geometry.max_entries
        assert geometry.evictions - evictions == 5
        # LRU order: the newest chain hits, the oldest was evicted.
        hits, misses = geometry.hits, geometry.misses
        _pipeline_cuts_dp_numpy(chains[-1], executors, 0, 1.0, 48)
        _pipeline_cuts_dp_numpy(chains[0], executors, 0, 1.0, 48)
        assert (geometry.hits - hits, geometry.misses - misses) == (1, 1)
        # An equal chain that is a different object misses too.
        copy = tuple(Span(*span) for span in chains[-1])
        assert copy == chains[-1]
        assert _pipeline_cuts_dp_numpy(copy, executors, 0, 1.0, 48) == (
            pipeline_cuts_dp_reference(copy, executors, 0, 1.0, 48)
        )
        assert (geometry.hits - hits, geometry.misses - misses) == (1, 2)


def _module_memos():
    """Every module-level :class:`Memo` in ``repro.core`` and
    ``repro.dnn``, by qualified name."""
    memos = {}
    for package in (repro.core, repro.dnn):
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if isinstance(value, Memo):
                    memos[f"{info.name}.{name}"] = value
    return memos


class TestClearResultMemos:
    def test_empties_every_result_memo(self, monkeypatch):
        """Memos are found by type, so a new module-level memo that is
        not registered -- one a cold benchmark run would not clear --
        fails here.  The inventory is pinned exactly: a memo comes back
        (or goes) only with an edit to this list."""
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        cluster = build_cluster()
        strategy = HiDPStrategy()
        graphs = [build_model(model) for model in ("resnet152", "mobilenet_v2")]
        for graph in graphs:
            strategy.plan(graph, cluster)
            strategy.plan(graph, cluster, load={cluster.devices[1].name: 0.3})
        memos = _module_memos()
        memos.update(
            (f"_PARTITIONS[{graph.name}]", partition_module._PARTITIONS[graph]) for graph in graphs
        )
        assert set(memos) == {
            "repro.core.dp._PIPELINE_GEOMETRY",
            "repro.core.hidp._LOCAL_PARTITIONERS",
            "repro.core.hidp._LOCAL_DECISIONS",
            "repro.core.hidp._PLANS",
            "_PARTITIONS[resnet152]",
            "_PARTITIONS[mobilenet_v2]",
        }
        # Planning filled every memo; other graphs' tables may be empty.
        assert all(len(memo) for memo in memos.values()), {
            name: len(memo) for name, memo in memos.items()
        }
        tables = list(partition_module._PARTITIONS.values())
        memos.update((f"_PARTITIONS[#{idx}]", table) for idx, table in enumerate(tables))
        assert all(isinstance(table, Memo) for table in tables)
        unregistered = [
            name for name, memo in memos.items() if memo not in memo_module._RESULT_MEMOS
        ]
        assert unregistered == []
        clear_result_memos()
        assert {name: len(memo) for name, memo in memos.items()} == dict.fromkeys(memos, 0)


class TestHatchReads:
    #: The functions that branch on ``REPRO_DSE_FASTPATH``.
    BRANCHES = {
        "data_shares_dp",
        "data_shares_dp_batch",
        "pipeline_cuts_dp",
        "make_data_partition_from_shares",
        "_make_data_partition_from_shares",
        "_staged",
        "_local_partitioner",
        "_plan_piece",
        "_fresh_plans",
    }

    def test_each_branch_reads_the_hatch_itself(self):
        """Planning reads the hatch only at the branches that use it,
        and that read alone picks the arm: with the environment saying
        the opposite, the reference arm fills no result memo and the
        fast arm fills all of them."""
        graph = build_model("mobilenet_v2")
        for enabled in (True, False):
            reads = []

            def stub():
                reads.append(sys._getframe(1).f_code.co_name)
                return enabled

            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("REPRO_DSE_FASTPATH", "0" if enabled else "1")
                for module in (dp_module, local_module, partition_module):
                    patch.setattr(module, "fastpath_enabled", stub)
                clear_result_memos()
                HiDPStrategy().plan(graph, build_cluster())
            assert reads and set(reads) <= self.BRANCHES
            memos = list(_module_memos().values())
            memos.append(partition_module._PARTITIONS.get(graph, ()))
            sizes = [len(memo) for memo in memos]
            assert all(bool(size) == enabled for size in sizes), (enabled, sizes)


class TestShareNanFinish:
    """A NaN finish time is a candidate the reference never takes."""

    INF_RATES = {cls: math.inf for cls in LAYER_CLASSES}

    @staticmethod
    def _thin_is_infinite(share):
        return math.inf if share < 0.5 else 1.0

    def test_infinite_inflation_times_zero_compute(self):
        free = ExecutorModel("free", self.INF_RATES, 1e9, fixed_s=1e-5)
        slow = ExecutorModel("slow", {cls: 1e9 for cls in LAYER_CLASSES}, 1e9, fixed_s=1e-5)
        for executors in ([free, slow], [slow, free]):
            reference = data_shares_dp_reference(
                {"conv": 10**9}, 0, executors, 4, 0, self._thin_is_infinite
            )
            with np.errstate(invalid="ignore"):
                (fast,) = _data_shares_dp_numpy_batch(
                    [({"conv": 10**9}, 0, 0)], executors, 4, self._thin_is_infinite
                )
            assert fast == reference
            assert reference.makespan_s == 1e-05

    def test_randomized_nan_finishes(self):
        rng = random.Random(31)
        for _ in range(100):
            executors = [_random_executor(rng, f"e{i}") for i in range(rng.randint(1, 4))]
            for slot in range(len(executors)):
                if rng.random() < 0.5:
                    executors[slot] = replace(executors[slot], rates=self.INF_RATES)
            cutoff = rng.choice([0.2, 0.5, 0.8])
            inflation = lambda share, cutoff=cutoff: math.inf if share < cutoff else 1.0
            flops = _random_flops(rng)
            quanta = rng.choice([1, 3, 4, 10])
            reference = data_shares_dp_reference(flops, 1000, executors, quanta, 2, inflation)
            with np.errstate(invalid="ignore"):
                (fast,) = _data_shares_dp_numpy_batch(
                    [(flops, 1000, 2)], executors, quanta, inflation
                )
            assert repr(fast) == repr(reference)


class TestCoarsenEquivalence:
    def test_heap_matches_reference_scan(self):
        segments = build_model("resnet152").segments()
        for max_segments in (1, 2, 5, 10, 24, 47, 48, len(segments), len(segments) + 9):
            reference = _coarsen_reference(segments, max_segments)
            fast = _coarsen(segments, max_segments)
            assert fast == reference
            # downstream kernels iterate the dicts, so key order matters too
            assert [list(span[0].items()) for span in fast] == [
                list(span[0].items()) for span in reference
            ]


class TestFastpathSwitch:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
        assert not fastpath_enabled()
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        assert fastpath_enabled()
        monkeypatch.delenv("REPRO_DSE_FASTPATH")
        assert fastpath_enabled()

    def test_public_api_identical_either_way(self, monkeypatch):
        rng = random.Random(9)
        executors = [_random_executor(rng, f"e{i}") for i in range(3)]
        segments = build_model("tiny_cnn").segments()
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        fast_shares = data_shares_dp({"conv": 10**9}, 10**5, executors, quanta=12)
        fast_pipe = pipeline_cuts_dp(segments, executors)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
        ref_shares = data_shares_dp({"conv": 10**9}, 10**5, executors, quanta=12)
        ref_pipe = pipeline_cuts_dp(segments, executors)
        assert fast_shares == ref_shares
        assert fast_pipe == ref_pipe


class TestEndToEndPlans:
    @pytest.mark.parametrize("model", ["tiny_cnn", "mobilenet_v2", "efficientnet_b0"])
    def test_hidp_plans_byte_identical(self, model, monkeypatch):
        graph = build_model(model)
        cluster = build_cluster()
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        fast = HiDPStrategy().plan(graph, cluster)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
        reference = HiDPStrategy().plan(graph, cluster)
        assert fast == reference
