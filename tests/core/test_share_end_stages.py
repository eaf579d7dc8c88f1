"""The share DP's closed-form end stages against the reference.

The numpy share kernel computes the last executor's stage in closed
form (it must take every remaining unit) and only the ``r = quanta``
row of the first executor's stage.  These cases sit on the edges of
both shortcuts: one executor (first and last at once), one quantum,
``+inf`` finish times, and inflation callbacks, each compared exactly
with :func:`~repro.core.dp.data_shares_dp_reference`."""

import random

import pytest

from repro.core.dp import (
    ExecutorModel,
    _data_shares_dp_numpy_batch,
    data_shares_dp_reference,
)
from repro.dnn.layers import LAYER_CLASSES

INF = float("inf")

INFLATIONS = {
    "linear": lambda share: 1.0 + 0.3 * share,
    "thin_is_dear": lambda share: 4.0 if share < 0.3 else 1.0,
    "thin_is_infinite": lambda share: INF if share < 0.5 else 1.0,
    "always_infinite": lambda share: INF,
    "negative": lambda share: -1.0,
}


def _executor(rng, ident):
    return ExecutorModel(
        ident=ident,
        rates={cls: rng.uniform(0.5, 50.0) * 1e9 for cls in LAYER_CLASSES},
        comm_bytes_s=rng.choice([1e6, 1e8, INF]),
        fixed_s=rng.choice([0.0, 0.001, 0.01]),
        dispatch_s=rng.choice([0.0, 1e-5]),
    )


def _items(rng, count):
    return [
        (
            {cls: rng.randint(1, 10**10) for cls in LAYER_CLASSES},
            rng.randint(0, 10**7),
            rng.randint(0, 200),
        )
        for _ in range(count)
    ]


def _assert_matches_reference(items, executors, quanta, inflation):
    fast = _data_shares_dp_numpy_batch(items, executors, quanta, inflation)
    reference = [
        data_shares_dp_reference(flops, in_bytes, executors, quanta, num_ops, inflation)
        for flops, in_bytes, num_ops in items
    ]
    assert fast == reference  # exact: shares tuples and makespan floats


def _default(share):
    return 1.0


@pytest.mark.parametrize("quanta", [1, 2, 7, 20])
def test_one_executor_takes_everything(quanta):
    rng = random.Random(quanta)
    executors = [_executor(rng, "solo")]
    items = _items(rng, 5)
    _assert_matches_reference(items, executors, quanta, _default)
    for plan in _data_shares_dp_numpy_batch(items, executors, quanta, _default):
        assert plan.shares == (1.0,)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_one_quantum(count):
    rng = random.Random(100 + count)
    executors = [_executor(rng, f"e{i}") for i in range(count)]
    _assert_matches_reference(_items(rng, 6), executors, 1, _default)


@pytest.mark.parametrize("name", sorted(INFLATIONS))
@pytest.mark.parametrize("count", [1, 2, 4])
def test_inflation_callbacks(name, count):
    rng = random.Random(f"{name}/{count}")
    executors = [_executor(rng, f"e{i}") for i in range(count)]
    for quanta in (1, 3, 10):
        _assert_matches_reference(_items(rng, 4), executors, quanta, INFLATIONS[name])


def test_infinite_finish_times_leave_no_plan():
    """Every non-empty share costs +inf: the reference keeps choice 0
    everywhere and an infinite makespan; so must the kernel."""
    rng = random.Random(7)
    executors = [_executor(rng, f"e{i}") for i in range(3)]
    items = _items(rng, 3)
    _assert_matches_reference(items, executors, 5, INFLATIONS["always_infinite"])
    for plan in _data_shares_dp_numpy_batch(items, executors, 5, INFLATIONS["always_infinite"]):
        assert plan.makespan_s == INF
        assert plan.shares == (0.0, 0.0, 0.0)


def test_randomized_small_instances():
    rng = random.Random(2026)
    for _ in range(60):
        executors = [_executor(rng, f"e{i}") for i in range(rng.randint(1, 6))]
        quanta = rng.choice([1, 2, 3, 5, 10, 20])
        inflation = rng.choice([_default, *INFLATIONS.values()])
        _assert_matches_reference(_items(rng, rng.randint(1, 5)), executors, quanta, inflation)
