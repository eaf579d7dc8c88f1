"""Engine snapshot/restore and hot-loop correctness guards (ISSUE 10).

Three contracts:

- ``Environment.snapshot()``/``restore()``: the pending set exports to
  parallel arrays in exact ``(time, seq)`` order, restore rewinds over
  merely-*scheduled* events byte-identically, and restore after
  *processing* is refused (generator frames cannot rewind).
- Crash context (satellite 1): an exception inside a process generator
  surfaces as :class:`ProcessCrashed` carrying ``env.now`` and the
  process, chains the original, and leaves the environment usable --
  with no leaked resource grants when the holder cleans up in
  ``finally``.
- Finite-delay validation (satellite 2): non-finite ``Timeout`` delays
  and ``run(until=)`` horizons are rejected on both paths before they
  can corrupt heap ordering (a NaN key poisons every later comparison).
"""

import math

import pytest

from repro.sim.engine import (
    Environment,
    ProcessCrashed,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.runtime import SimRuntime
from repro.platform.cluster import build_cluster

pytestmark = pytest.mark.smoke

BOTH_PATHS = pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))


class TestEngineSnapshot:
    @BOTH_PATHS
    def test_snapshot_exports_schedule_order(self, fast):
        env = Environment(fast=fast)
        env.timeout(3.0)
        env.timeout(1.0)
        env.timeout(2.0)
        snap = env.snapshot()
        assert snap.times.tolist() == [1.0, 2.0, 3.0]
        assert snap.seqs.tolist() == [1, 2, 0]
        assert snap.pending == 3
        assert snap.processed == 0
        assert [type(e) for e in snap.events] == [Timeout] * 3

    @BOTH_PATHS
    def test_restore_discards_later_scheduled_events(self, fast):
        """Events scheduled after the capture vanish on restore -- the
        resumed schedule continues as if they were never scheduled."""
        env = Environment(fast=fast)
        log = []

        def proc(tag, delay):
            yield env.timeout(delay)
            log.append((tag, env.now))

        env.process(proc("a", 1.0))
        env.process(proc("b", 2.0))
        snap = env.snapshot()
        seq_at_capture = env.scheduled_events
        env.process(proc("zombie", 0.5))  # scheduled, never processed
        env.restore(snap)
        assert env.scheduled_events == seq_at_capture
        env.run()
        assert log == [("a", 1.0), ("b", 2.0)]

    @BOTH_PATHS
    def test_restore_after_processing_is_refused(self, fast):
        env = Environment(fast=fast)
        env.timeout(1.0)
        snap = env.snapshot()
        env.timeout(2.0)
        env.run(until=1.5)  # processes the first timeout
        with pytest.raises(SimulationError, match="processed since"):
            env.restore(snap)

    @BOTH_PATHS
    def test_pause_snapshot_resume_is_byte_identical(self, fast):
        """run(until=S) + snapshot + restore + run() replays exactly the
        uninterrupted schedule, down to the event count."""

        def build(env):
            log = []

            def worker(tag, period):
                for _ in range(4):
                    yield env.timeout(period)
                    log.append((tag, env.now))

            env.process(worker("x", 0.7))
            env.process(worker("y", 1.1))
            return log

        plain_env = Environment(fast=fast)
        plain_log = build(plain_env)
        plain_env.run()

        env = Environment(fast=fast)
        log = build(env)
        env.run(until=1.5)
        env.restore(env.snapshot())
        env.run()
        assert log == plain_log
        assert env.scheduled_events == plain_env.scheduled_events
        assert env.now == plain_env.now


class TestRuntimeSnapshot:
    def test_runtime_restore_rewinds_load_version(self):
        runtime = SimRuntime(build_cluster())
        runtime.load_snapshot()
        snap = runtime.snapshot()
        assert snap.sim_time == 0.0
        runtime.restore(snap)
        assert runtime._load_version == snap.load_version


class TestProcessCrash:
    @BOTH_PATHS
    def test_crash_carries_time_and_process(self, fast):
        env = Environment(fast=fast)

        def boom():
            yield env.timeout(2.5)
            raise ValueError("payload exploded")

        proc = env.process(boom())
        with pytest.raises(ProcessCrashed) as info:
            env.run()
        assert info.value.sim_time == 2.5
        assert info.value.process is proc
        assert isinstance(info.value.__cause__, ValueError)
        assert isinstance(info.value, SimulationError)

    @BOTH_PATHS
    def test_environment_stays_usable_after_crash(self, fast):
        """The crashing event was popped before its callbacks ran, so
        the remaining schedule drains normally on the next run()."""
        env = Environment(fast=fast)
        log = []

        def boom():
            yield env.timeout(1.0)
            raise RuntimeError("nope")

        def survivor():
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(boom())
        env.process(survivor())
        with pytest.raises(ProcessCrashed):
            env.run()
        env.run()
        assert log == [2.0]
        assert env.pending_events == 0

    @BOTH_PATHS
    def test_no_grant_leaks_after_crash(self, fast):
        """A holder releasing in ``finally`` hands its slot back even
        when it crashes mid-hold, so waiters still get granted."""
        env = Environment(fast=fast)
        resource = Resource(env, capacity=1)
        log = []

        def crasher():
            request = resource.request()
            yield request
            try:
                yield env.timeout(1.0)
                raise RuntimeError("mid-hold crash")
            finally:
                resource.release(request)

        def waiter():
            request = resource.request()
            yield request
            log.append(("granted", env.now))
            resource.release(request)

        env.process(crasher())
        env.process(waiter())
        with pytest.raises(ProcessCrashed):
            env.run()
        env.run()
        assert log == [("granted", 1.0)]
        assert resource.in_use == 0
        assert resource.queue_length == 0


class TestFiniteValidation:
    @BOTH_PATHS
    @pytest.mark.parametrize("delay", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_timeout_rejected(self, fast, delay):
        env = Environment(fast=fast)
        with pytest.raises(SimulationError, match="non-finite timeout"):
            env.timeout(delay)

    @BOTH_PATHS
    def test_negative_timeout_still_rejected(self, fast):
        with pytest.raises(SimulationError):
            Environment(fast=fast).timeout(-1e-9)

    @BOTH_PATHS
    @pytest.mark.parametrize("until", (float("inf"), float("-inf"), float("nan")))
    def test_non_finite_run_horizon_rejected(self, fast, until):
        env = Environment(fast=fast)
        env.timeout(1.0)
        with pytest.raises(SimulationError, match="horizon"):
            env.run(until=until)

    @BOTH_PATHS
    def test_nan_never_reaches_the_heap(self, fast):
        """The regression the guard exists for: a NaN key would poison
        heap ordering for *every later* event, so the reject must fire
        before the push."""
        env = Environment(fast=fast)
        with pytest.raises(SimulationError):
            env.timeout(float("nan"))
        assert env.pending_events == 0
        env.timeout(1.0)
        env.timeout(2.0)
        env.run()
        assert env.now == 2.0

    def test_finite_guard_uses_isfinite(self):
        """Large-but-finite delays stay accepted (the guard is
        ``isfinite``, not a magnitude cap)."""
        env = Environment(fast=True)
        env.timeout(math.ldexp(1.0, 1000))
        assert env.pending_events == 1
