"""Fault injection and the serving recovery contract (ISSUE 6).

Units for :mod:`repro.faults` (seeded timelines, injector mechanics,
retry policy, trace levels) plus the scheduler-level recovery
behaviour: mid-plan losses are replanned-and-retried, bounded by
``max_retries``, and every counter reconciles.
"""

import pytest

from repro.faults import (
    DEGRADE_DOWNGRADE,
    DEGRADE_SHED,
    DEVICE_JOIN,
    DEVICE_LEAVE,
    DVFS_RESTORE,
    DVFS_THROTTLE,
    DeviceLostError,
    FaultEvent,
    FaultInjector,
    FaultTrace,
    LINK_DEGRADE,
    LINK_RESTORE,
    LINK_TARGET,
    PerturbationProcess,
    RetryPolicy,
)
from repro.platform.cluster import build_cluster
from repro.platform.power import BatteryModel
from repro.serving import ControlPolicy, OnlineScheduler, ShardedScheduler
from repro.sim.runtime import SimRuntime
from repro.sim.trace import TRACE_AGGREGATE, TraceLevelError
from repro.workloads.arrivals import poisson_stream

HEAVY = ("vgg19", "resnet152", "inception_v3")


def _cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


def _churny(seed=11, churn_rate=0.8, horizon_s=30.0):
    return PerturbationProcess(
        seed=seed,
        horizon_s=horizon_s,
        churn_rate=churn_rate,
        mean_outage_s=0.8,
        link_rate=0.1,
        dvfs_rate=0.1,
    )


class TestPerturbationProcess:
    def test_same_seed_same_timeline(self):
        cluster = _cluster()
        assert _churny(seed=3).events(cluster) == _churny(seed=3).events(cluster)

    def test_different_seed_different_timeline(self):
        cluster = _cluster()
        assert _churny(seed=3).events(cluster) != _churny(seed=4).events(cluster)

    def test_zero_rates_zero_events(self):
        assert PerturbationProcess(seed=5).events(_cluster()) == []

    def test_timeline_sorted(self):
        events = _churny().events(_cluster())
        times = [event.time_s for event in events]
        assert times == sorted(times)

    def test_protected_devices_never_leave(self):
        events = _churny().events(_cluster(), protected=("jetson_tx2",))
        leavers = {e.target for e in events if e.kind == DEVICE_LEAVE}
        assert "jetson_tx2" not in leavers
        assert leavers  # the unprotected boards still churn

    def test_every_leave_is_rejoined(self):
        """Outages always end: per device, leaves and joins alternate."""
        events = _churny().events(_cluster())
        state = {}
        for event in events:
            if event.kind == DEVICE_LEAVE:
                assert state.get(event.target, "up") == "up", event
                state[event.target] = "down"
            elif event.kind == DEVICE_JOIN:
                assert state.get(event.target) == "down", event
                state[event.target] = "up"
        assert all(value == "up" for value in state.values())

    def test_new_episodes_start_within_horizon(self):
        events = _churny(horizon_s=10.0).events(_cluster())
        starts = [
            e for e in events if e.kind in (DEVICE_LEAVE, LINK_DEGRADE, DVFS_THROTTLE)
        ]
        assert starts
        assert all(e.time_s < 10.0 for e in starts)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationProcess(horizon_s=0.0)
        with pytest.raises(ValueError):
            PerturbationProcess(churn_rate=-1.0)
        with pytest.raises(ValueError):
            PerturbationProcess(mean_outage_s=0.0)
        with pytest.raises(ValueError):
            PerturbationProcess(link_factor=0.5)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, DEVICE_LEAVE, "x")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor_strike", "x")
        with pytest.raises(ValueError):
            FaultEvent(0.0, LINK_DEGRADE, LINK_TARGET, factor=0.5)


class TestRetryPolicy:
    def test_backoff_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(degradation="panic")


class TestFaultInjector:
    def test_zero_events_arm_is_a_no_op(self):
        runtime = SimRuntime(_cluster())
        before = runtime.env.scheduled_events
        injector = FaultInjector(runtime, runtime.cluster, [])
        assert not injector.armed
        injector.arm()
        assert runtime.faults is None
        assert runtime.env.scheduled_events == before

    def test_timeline_applied_in_order(self):
        cluster = _cluster()
        runtime = SimRuntime(cluster)
        events = [
            FaultEvent(1.0, DEVICE_LEAVE, "jetson_nano"),
            FaultEvent(2.0, DVFS_THROTTLE, "jetson_orin_nx", factor=2.0),
            FaultEvent(3.0, DEVICE_JOIN, "jetson_nano"),
            FaultEvent(4.0, DVFS_RESTORE, "jetson_orin_nx", factor=2.0),
        ]
        injector = FaultInjector(runtime, cluster, events)
        assert injector.armed
        injector.arm()
        assert runtime.faults is injector

        env = runtime.env
        env.run(until=1.5)
        assert not cluster.is_available("jetson_nano")
        assert not injector.device_ok("jetson_nano")
        env.run(until=2.5)
        stations = runtime.stations_of("jetson_orin_nx")
        assert all(station.throttle.factor == 2.0 for station in stations)
        env.run()
        assert cluster.is_available("jetson_nano")
        assert all(station.throttle.factor == 1.0 for station in stations)
        assert injector.applied == 4
        assert injector.counts == {
            DEVICE_LEAVE: 1,
            DEVICE_JOIN: 1,
            DVFS_THROTTLE: 1,
            DVFS_RESTORE: 1,
        }

    def test_link_degrade_restores_exact_base(self):
        runtime = SimRuntime(_cluster())
        network = runtime.network
        base_bandwidth = network._bandwidth_bytes_s
        base_latency = network._latency_s
        injector = FaultInjector(
            runtime,
            runtime.cluster,
            [
                FaultEvent(0.5, LINK_DEGRADE, LINK_TARGET, factor=4.0),
                FaultEvent(1.0, LINK_DEGRADE, LINK_TARGET, factor=2.0),
                FaultEvent(1.5, LINK_RESTORE, LINK_TARGET, factor=4.0),
                FaultEvent(2.0, LINK_RESTORE, LINK_TARGET, factor=2.0),
            ],
        )
        injector.arm()
        env = runtime.env
        env.run(until=1.2)
        assert network._bandwidth_bytes_s == pytest.approx(base_bandwidth / 8.0)
        assert network._latency_s == pytest.approx(base_latency * 8.0)
        env.run()
        # exact restore, not approx: stacking must not accumulate drift
        assert network._bandwidth_bytes_s == base_bandwidth
        assert network._latency_s == base_latency


class TestFaultTrace:
    def _populate(self, trace):
        trace.record_failure(7, "jetson_nano", "tile", 1.5, attempt=1)
        trace.record_retry(7)
        trace.record_failure(8, "jetson_nano", "result", 2.0, attempt=1)
        trace.record_shed(8)
        trace.record_downgrade(9)
        trace.record_recovery(7, recovery_s=0.8, attempts=2)

    def test_full_level_counters_and_records(self):
        trace = FaultTrace()
        self._populate(trace)
        assert trace.failures == 2
        assert trace.retries == 1
        assert trace.shed == 1
        assert trace.downgraded == 1
        assert trace.recovered == 1
        segments = trace.failed_segments
        assert [seg.request_id for seg in segments] == [7, 8]
        assert segments[0].segment == "tile"
        assert trace.recovery_times == ((7, 0.8),)
        assert trace.mean_recovery_s == pytest.approx(0.8)
        assert trace.retries_per_recovery.mean == pytest.approx(1.0)

    def test_aggregate_level_streams_without_records(self):
        trace = FaultTrace(TRACE_AGGREGATE)
        self._populate(trace)
        # counters and streaming aggregates stay exact...
        assert trace.failures == 2
        assert trace.recovered == 1
        assert trace.mean_recovery_s == pytest.approx(0.8)
        assert trace.recovery_percentiles()["p50"] == pytest.approx(0.8)
        # ...but per-event views are gone
        with pytest.raises(TraceLevelError):
            trace.failed_segments
        with pytest.raises(TraceLevelError):
            trace.recovery_times


class TestSchedulerRecovery:
    """Mid-plan losses are recovered by replan-and-retry; counters
    reconcile; ``max_retries=0`` sheds on first failure."""

    def _run(self, retry=None, trace_level="full", num_requests=30, faults=None):
        requests = poisson_stream(HEAVY, rate_rps=1.5, num_requests=num_requests, seed=5)
        scheduler = OnlineScheduler(
            cluster=_cluster(),
            max_inflight=4,
            trace_level=trace_level,
            faults=faults if faults is not None else _churny(),
            retry=retry if retry is not None else RetryPolicy(max_retries=3),
        )
        return scheduler.run(requests)

    def test_churn_produces_recovered_failures(self):
        result = self._run()
        assert result.fault_events > 0
        assert result.failures > 0
        assert result.retries > 0
        trace = result.faults
        assert trace is not None
        assert trace.recovered > 0
        assert trace.mean_recovery_s > 0
        # a recovered request was dispatched more than once
        assert max(record.attempts for record in result.served) > 1

    def test_counters_reconcile(self):
        result = self._run(num_requests=40)
        assert result.failures == result.retries + result.shed
        assert result.count + result.shed == 40
        served_ids = {record.request.request_id for record in result.served}
        assert served_ids.isdisjoint(set(result.shed_requests))
        result.busy.assert_no_overlaps()

    def test_max_retries_zero_sheds_on_first_failure(self):
        result = self._run(retry=RetryPolicy(max_retries=0))
        assert result.failures > 0
        assert result.retries == 0
        assert result.shed == result.failures
        assert len(result.shed_requests) == result.shed

    def test_shed_counts_as_slo_miss(self):
        result = self._run(retry=RetryPolicy(max_retries=0))
        assert result.shed > 0
        generous = 10_000.0  # every completed request is inside this SLO
        assert result.slo_attainment(generous) == pytest.approx(
            result.count / (result.count + result.shed)
        )

    def test_failure_detail_respects_trace_level(self):
        full = self._run(trace_level="full")
        aggregate = self._run(trace_level="aggregate")
        # identical schedule and counters either way
        assert aggregate.failures == full.failures
        assert aggregate.retries == full.retries
        assert aggregate.makespan_s == full.makespan_s
        assert [seg.request_id for seg in full.faults.failed_segments]
        with pytest.raises(TraceLevelError):
            aggregate.faults.failed_segments
        assert full.shed_requests == aggregate.shed_requests or not aggregate.shed_requests

    def test_deterministic_replay(self):
        first = self._run()
        second = self._run()
        assert first.makespan_s == second.makespan_s
        assert first.latencies == second.latencies
        assert first.failures == second.failures
        assert first.fault_events == second.fault_events

    def test_sharded_recovery_reconciles_per_shard(self):
        requests = poisson_stream(HEAVY, rate_rps=1.5, num_requests=30, seed=5)
        result = ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=4,
            faults=_churny(),
            retry=RetryPolicy(max_retries=3),
        ).run(requests)
        # ``run`` checks the per-shard dispatch balance and
        # ``failures == retries + shed`` before returning.
        assert result.failures > 0
        assert result.count + result.shed == 30
        assert sum(result.readmitted_by_shard) == result.retries
        result.busy.assert_no_overlaps()


class TestCorrelatedOutages:
    """Correlated (spatial) outages (ISSUE 7 satellite): a named device
    group fails atomically, legacy seeded timelines stay byte-identical
    when the stream is disabled, and serving recovers exactly-once."""

    GROUP = ("jetson_orin_nx", "jetson_nano")

    def _correlated(self, seed=11, rate=0.5, **kwargs):
        return PerturbationProcess(
            seed=seed,
            horizon_s=20.0,
            correlated_rate=rate,
            correlated_group=self.GROUP,
            mean_correlated_outage_s=0.6,
            **kwargs,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationProcess(correlated_rate=-0.1)
        with pytest.raises(ValueError):
            PerturbationProcess(correlated_rate=0.5)  # no group named
        with pytest.raises(ValueError):
            PerturbationProcess(
                correlated_rate=0.5,
                correlated_group=("jetson_tx2",),
                mean_correlated_outage_s=0.0,
            )

    def test_unknown_group_devices_rejected_at_expansion(self):
        process = PerturbationProcess(
            correlated_rate=0.5, correlated_group=("submarine",)
        )
        with pytest.raises(ValueError, match="unknown devices"):
            process.events(_cluster())

    def test_group_fails_and_recovers_atomically(self):
        events = self._correlated().events(_cluster())
        assert events
        leaves = [e for e in events if e.kind == DEVICE_LEAVE]
        joins = [e for e in events if e.kind == DEVICE_JOIN]
        # every episode boundary carries the whole group at one instant
        for batch in (leaves, joins):
            by_time = {}
            for event in batch:
                by_time.setdefault(event.time_s, set()).add(event.target)
            assert all(members == set(self.GROUP) for members in by_time.values())
        assert len(leaves) == len(joins)

    def test_episodes_never_overlap(self):
        events = self._correlated(rate=5.0).events(_cluster())
        state = {}
        for event in events:
            if event.kind == DEVICE_LEAVE:
                assert state.get(event.target, "up") == "up", event
                state[event.target] = "down"
            elif event.kind == DEVICE_JOIN:
                state[event.target] = "up"
        assert all(value == "up" for value in state.values())

    def test_protected_members_are_shielded(self):
        events = self._correlated().events(
            _cluster(), protected=("jetson_orin_nx",)
        )
        leavers = {e.target for e in events if e.kind == DEVICE_LEAVE}
        assert "jetson_orin_nx" not in leavers
        assert leavers == {"jetson_nano"}  # the rest of the group still fails

    def test_fully_shielded_group_yields_no_events(self):
        events = self._correlated().events(_cluster(), protected=self.GROUP)
        assert events == []

    def test_same_seed_same_timeline(self):
        cluster = _cluster()
        assert self._correlated(seed=7).events(cluster) == self._correlated(
            seed=7
        ).events(cluster)
        assert self._correlated(seed=7).events(cluster) != self._correlated(
            seed=8
        ).events(cluster)

    def test_zero_rate_is_byte_identical_to_legacy_streams(self):
        """Enabling the field without the rate never perturbs an
        existing seed's churn/link/DVFS timeline."""
        cluster = _cluster()
        legacy = _churny(seed=11).events(cluster)
        with_group = PerturbationProcess(
            seed=11,
            horizon_s=30.0,
            churn_rate=0.8,
            mean_outage_s=0.8,
            link_rate=0.1,
            dvfs_rate=0.1,
            correlated_rate=0.0,
            correlated_group=("jetson_orin_nx", "jetson_nano"),
        ).events(cluster)
        assert with_group == legacy

    def test_correlated_stream_rides_after_legacy_streams(self):
        """Adding the correlated stream keeps every legacy event: the
        group episodes draw from the RNG strictly after churn/link/DVFS."""
        from collections import Counter

        cluster = _cluster()
        legacy = _churny(seed=11).events(cluster)
        combined = PerturbationProcess(
            seed=11,
            horizon_s=30.0,
            churn_rate=0.8,
            mean_outage_s=0.8,
            link_rate=0.1,
            dvfs_rate=0.1,
            correlated_rate=0.5,
            correlated_group=self.GROUP,
            mean_correlated_outage_s=0.6,
        ).events(cluster)
        legacy_counts = Counter(legacy)
        combined_counts = Counter(combined)
        assert all(
            combined_counts[event] >= count for event, count in legacy_counts.items()
        )
        extras = combined_counts - legacy_counts
        assert set(e.target for e in extras) <= set(self.GROUP)

    def test_serving_recovers_from_group_outage_exactly_once(self):
        requests = poisson_stream(HEAVY, rate_rps=1.5, num_requests=24, seed=5)
        result = ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=4,
            faults=self._correlated(rate=0.4),
            retry=RetryPolicy(max_retries=3),
        ).run(requests)
        assert result.fault_events > 0
        assert result.failures > 0
        assert result.failures == result.retries + result.shed
        assert result.count + result.shed == 24
        result.busy.assert_no_overlaps()


class TestRetryJitter:
    """Seeded retry jitter (ISSUE 9 satellite).

    A correlated-group outage fails its whole cohort around one
    instant; without jitter every victim of the same attempt number
    re-admits after the *identical* backoff -- a thundering herd that
    re-synchronises the very load spike that broke the group.  With
    ``jitter`` set, each ``(request, attempt)`` draws a deterministic
    stretch factor, so the cohort's re-admissions land on distinct
    event times while the run stays seeded-reproducible.
    """

    COHORT = tuple(range(10, 22))

    def _correlated(self, rate=0.4):
        return PerturbationProcess(
            seed=11,
            horizon_s=20.0,
            correlated_rate=rate,
            correlated_group=("jetson_orin_nx", "jetson_nano"),
            mean_correlated_outage_s=0.6,
        )

    def _run(self, retry):
        requests = poisson_stream(HEAVY, rate_rps=1.5, num_requests=24, seed=5)
        return ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=4,
            faults=self._correlated(),
            retry=retry,
            trace_level="full",
        ).run(requests)

    @staticmethod
    def _timeline(result):
        return [
            (r.request.request_id, r.dispatched_s, r.completed_s)
            for r in result.served
        ]

    def test_zero_jitter_is_a_thundering_herd(self):
        policy = RetryPolicy(jitter=0.0, jitter_seed=7)
        readmits = {policy.backoff_s(1, request_id=rid) for rid in self.COHORT}
        assert len(readmits) == 1

    def test_cohort_spreads_across_distinct_times(self):
        """Every member of a cohort failing at one instant re-admits at
        a distinct time, bounded by ``[delay, delay * (1 + jitter)]``."""
        policy = RetryPolicy(jitter=0.5, jitter_seed=7)
        base = RetryPolicy().backoff_s(1)
        outage_s = 8.25
        readmits = [
            outage_s + policy.backoff_s(1, request_id=rid) for rid in self.COHORT
        ]
        assert len(set(readmits)) == len(self.COHORT)
        for readmit in readmits:
            assert outage_s + base <= readmit <= outage_s + base * 1.5

    def test_draws_replay_deterministically(self):
        attempts = (1, 2, 3)
        first = RetryPolicy(jitter=0.3, jitter_seed=9)
        second = RetryPolicy(jitter=0.3, jitter_seed=9)
        assert [first.backoff_s(n, request_id=4) for n in attempts] == [
            second.backoff_s(n, request_id=4) for n in attempts
        ]
        reseeded = RetryPolicy(jitter=0.3, jitter_seed=10)
        assert first.backoff_s(1, request_id=4) != reseeded.backoff_s(
            1, request_id=4
        )

    def test_zero_jitter_serving_is_byte_identical_to_legacy(self):
        """``jitter=0`` (whatever the seed) never perturbs an existing
        run: the legacy exponential backoff is returned exactly."""
        legacy = self._run(RetryPolicy(max_retries=3))
        pinned = self._run(RetryPolicy(max_retries=3, jitter=0.0, jitter_seed=99))
        assert legacy.retries > 0  # the comparison exercises the retry path
        assert self._timeline(legacy) == self._timeline(pinned)
        assert legacy.faults.retry_times == pinned.faults.retry_times

    def test_jittered_serving_spreads_and_replays(self):
        """Jitter moves the recorded re-admission times (the herd
        spreads) yet the jittered run replays byte-identically."""
        plain = self._run(RetryPolicy(max_retries=3))
        jittered = self._run(RetryPolicy(max_retries=3, jitter=0.5, jitter_seed=7))
        replay = self._run(RetryPolicy(max_retries=3, jitter=0.5, jitter_seed=7))
        assert jittered.faults.retry_times != plain.faults.retry_times
        assert self._timeline(jittered) == self._timeline(replay)
        assert jittered.faults.retry_times == replay.faults.retry_times
        assert jittered.retries > 0  # the spread assertion above has teeth


class TestBatteryDrain:
    """Finite energy budgets (ISSUE 9 satellite): drain follows actual
    busy time under the actual DVFS factor, a floor crossing leaves
    through the same ``set_available`` path as churn and never rejoins,
    and the controller's ``battery_margin`` lookahead turns the
    surprise outage into a planned, failure-free migration."""

    def _requests(self, num=18):
        return poisson_stream(HEAVY, rate_rps=1.5, num_requests=num, seed=5)

    def _battery_faults(self, **model_kwargs):
        model = dict(capacity_j=6.0, floor_j=0.5, idle_w=0.2, busy_w=3.0)
        model.update(model_kwargs)
        return PerturbationProcess(
            seed=3,
            horizon_s=30.0,
            batteries=(("jetson_orin_nx", BatteryModel(**model)),),
        )

    @staticmethod
    def _timeline(result):
        return [
            (r.request.request_id, r.dispatched_s, r.completed_s)
            for r in result.served
        ]

    def test_model_validation(self):
        with pytest.raises(ValueError):
            BatteryModel(capacity_j=0.0)
        with pytest.raises(ValueError):
            BatteryModel(capacity_j=5.0, floor_j=5.0)  # floor must sit below
        with pytest.raises(ValueError):
            BatteryModel(capacity_j=5.0, busy_w=-1.0)
        with pytest.raises(ValueError):
            BatteryModel(capacity_j=5.0).drain_j(window_s=-1.0, busy_s=0.0)

    def test_drain_math(self):
        model = BatteryModel(capacity_j=10.0, idle_w=0.5, busy_w=2.0)
        assert model.drain_j(window_s=4.0, busy_s=1.0) == pytest.approx(4.0)
        assert model.drain_j(4.0, 1.0, dvfs_factor=3.0) == pytest.approx(8.0)

    def test_process_validation(self):
        with pytest.raises(ValueError, match="not a BatteryModel"):
            PerturbationProcess(batteries=(("jetson_nano", object()),))
        with pytest.raises(ValueError, match="duplicate battery"):
            PerturbationProcess(
                batteries=(
                    ("jetson_nano", BatteryModel(capacity_j=1.0)),
                    ("jetson_nano", BatteryModel(capacity_j=2.0)),
                )
            )
        with pytest.raises(ValueError, match="battery_sample_s"):
            PerturbationProcess(
                batteries=(("jetson_nano", BatteryModel(capacity_j=1.0)),),
                battery_sample_s=0.0,
            )
        with pytest.raises(ValueError, match="unknown device"):
            FaultInjector(
                SimRuntime(_cluster()),
                _cluster(),
                [],
                batteries={"submarine": BatteryModel(capacity_j=1.0)},
            )

    def test_floor_crossing_leaves_and_never_rejoins(self):
        """Idle draw alone crosses the floor; the device departs via
        ``set_available`` and stays down for the rest of the run."""
        runtime = SimRuntime(_cluster())
        injector = FaultInjector(
            runtime,
            runtime.cluster,
            [],
            batteries={"jetson_nano": BatteryModel(capacity_j=2.0, idle_w=1.0)},
            battery_sample_s=0.25,
            battery_horizon_s=10.0,
        )
        assert injector.armed
        injector.arm()
        env = runtime.env
        env.run(until=1.0)
        assert not injector.battery_drained("jetson_nano")
        assert runtime.cluster.is_available("jetson_nano")
        env.run()
        assert injector.battery_drained("jetson_nano")
        assert not runtime.cluster.is_available("jetson_nano")
        assert injector.battery_level("jetson_nano") <= 0.0
        assert injector.counts == {"battery_drain": 1}
        assert injector.applied == 1

    def test_busy_drain_scales_with_dvfs(self):
        """A throttled station runs longer per unit of work and bills
        the stretched seconds at full draw: factor 2 quadruples the
        busy drain of the same task."""

        def charge_after(throttled):
            runtime = SimRuntime(_cluster())
            events = (
                [FaultEvent(0.01, DVFS_THROTTLE, "jetson_nano", factor=2.0)]
                if throttled
                else []
            )
            injector = FaultInjector(
                runtime,
                runtime.cluster,
                events,
                batteries={
                    "jetson_nano": BatteryModel(capacity_j=100.0, busy_w=1.0)
                },
                battery_sample_s=0.5,
                battery_horizon_s=12.0,
            )
            injector.arm()
            station = runtime.stations_of("jetson_nano")[0]

            def work():
                yield runtime.env.timeout(0.02)  # after the throttle lands
                yield from station.run_overhead(1.0)

            runtime.env.process(work())
            runtime.env.run()
            return 100.0 - injector.battery_level("jetson_nano")

        assert charge_after(throttled=False) == pytest.approx(1.0)
        assert charge_after(throttled=True) == pytest.approx(4.0)

    def test_force_drain_requires_a_battery(self):
        runtime = SimRuntime(_cluster())
        injector = FaultInjector(runtime, runtime.cluster, [])
        with pytest.raises(ValueError, match="no battery"):
            injector.force_drain("jetson_nano")

    def test_surprise_crossing_fails_midplan_and_recovers(self):
        """Without lookahead the crossing lands mid-plan: the executor
        sees the lost device, retries elsewhere, and the ledger
        reconciles."""
        result = ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=4,
            faults=self._battery_faults(),
            retry=RetryPolicy(max_retries=3),
        ).run(self._requests())
        assert result.fault_events > 0
        assert result.failures > 0
        assert result.failures == result.retries + result.shed
        assert result.count + result.shed == 18
        result.busy.assert_no_overlaps()

    def test_planned_drain_preempts_the_outage(self):
        """With ``battery_margin`` lookahead the controller drains the
        device *before* the floor crossing: same departure, zero
        mid-plan failures."""
        policy = ControlPolicy(
            interval_s=0.25, concurrency=False, battery_margin=2.0
        )
        result = ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=4,
            faults=self._battery_faults(),
            retry=RetryPolicy(max_retries=3),
            control=policy,
            trace_level="full",
        ).run(self._requests())
        assert result.control.planned_drains == 1
        assert result.fault_events > 0  # the drain is a counted fault event
        assert result.failures == 0
        assert result.count == 18
        drains = [
            d for d in result.control.decisions if d.kind == "planned_drain"
        ]
        assert [d.target for d in drains] == ["jetson_orin_nx"]

    def test_unbatteried_runs_stay_byte_identical(self):
        """No battery entries -- or a battery that never crosses -- must
        not perturb the fault-free schedule."""
        def run(faults=None):
            return ShardedScheduler(
                cluster=_cluster(), num_shards=2, max_inflight=4, faults=faults
            ).run(self._requests())

        base = self._timeline(run())
        empty = self._timeline(run(PerturbationProcess(seed=3, batteries=())))
        ample = self._timeline(
            run(
                PerturbationProcess(
                    seed=3,
                    horizon_s=30.0,
                    batteries=(("jetson_orin_nx", BatteryModel(capacity_j=1e9)),),
                )
            )
        )
        assert base == empty
        assert base == ample
