"""The SLO-driven control plane (ISSUE 9): policy validation, the
breaker FSM, elastic resource capacity, the controller's actuations on
real serving runs, trace-level discipline, and the teeth tests --
a tripped breaker genuinely freezes dispatch to its shard, and the
deadline/pressure door genuinely rejects.

Marked ``control``: part of the quick pulse
(``pytest -m "smoke or matrix or chaos or routing or lint or control"``).
"""

import pytest

from repro.platform.cluster import build_cluster
from repro.serving import (
    ControlPolicy,
    OnlineScheduler,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.serving.control import (
    ADMISSION_REJECT,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DECISION_REOPEN,
    DECISION_RESTORE,
    DECISION_TRIP,
    ControlTrace,
    ShardBreaker,
)
from repro.sim.engine import Environment
from repro.sim.resources import PriorityResource, Resource, SimulationError
from repro.sim.trace import TraceLevelError
from repro.workloads.arrivals import bursty_stream, poisson_stream

pytestmark = pytest.mark.control

MODELS = ("vgg19", "resnet152", "tiny_cnn")


def _cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


def _stream(num=18, rate=2.0, seed=3):
    return poisson_stream(MODELS, rate_rps=rate, num_requests=num, seed=seed)


def _timeline(result):
    return [
        (record.request.request_id, record.dispatched_s, record.completed_s)
        for record in result.served
    ]


class TestControlPolicyValidation:
    def test_defaults_are_valid(self):
        ControlPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"slo_s": -1.0},
            {"min_inflight": 0},
            {"min_inflight": 8, "max_inflight": 4},
            {"widen_by": 0},
            {"narrow_factor": 1.0},
            {"narrow_factor": 0.0},
            {"headroom": 0.0},
            {"headroom": 1.5},
            {"min_shards": 0},
            {"scale_up_backlog": 1.0, "scale_down_backlog": 2.0},
            {"admission": "tarpit"},
            {"admission_pressure": -1},
            {"admission_downgrade_by": -1},
            {"breaker_failures": -1},
            {"breaker_window_s": 0.0},
            {"breaker_cooldown_s": -0.5},
            {"battery_margin": -1.0},
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControlPolicy(**kwargs)

    def test_noop_turns_every_actuator_off(self):
        policy = ControlPolicy.noop()
        assert not policy.concurrency
        assert not policy.elastic
        assert policy.admission == "none"
        assert not policy.deadline_shed
        assert policy.breaker_failures == 0
        assert policy.battery_margin == 0.0

    def test_min_shards_must_fit_num_shards(self):
        with pytest.raises(ValueError):
            ShardedScheduler(
                cluster=_cluster(),
                num_shards=2,
                control=ControlPolicy(elastic=True, min_shards=3),
            ).run(_stream(num=4))


class TestElasticCapacity:
    """``set_capacity`` on both resource flavours: widening grants
    queued waiters immediately, narrowing only lowers the ceiling."""

    @pytest.mark.parametrize("flavour", [Resource, PriorityResource])
    def test_widening_grants_waiters(self, flavour):
        env = Environment()
        resource = flavour(env, capacity=1)
        granted = []

        def holder(tag):
            request = resource.request()
            yield request
            granted.append(tag)

        env.process(holder("a"))
        env.process(holder("b"))
        env.run()
        assert granted == ["a"]  # one slot, b parked
        resource.set_capacity(2)
        env.run()
        assert granted == ["a", "b"]

    @pytest.mark.parametrize("flavour", [Resource, PriorityResource])
    def test_narrowing_never_revokes(self, flavour):
        env = Environment()
        resource = flavour(env, capacity=2)
        requests = []

        def holder():
            request = resource.request()
            yield request
            requests.append(request)

        env.process(holder())
        env.process(holder())
        env.run()
        assert len(requests) == 2
        resource.set_capacity(1)  # both holders keep their grants
        resource.release(requests[0])
        resource.release(requests[1])

    @pytest.mark.parametrize("flavour", [Resource, PriorityResource])
    def test_capacity_must_stay_positive(self, flavour):
        env = Environment()
        resource = flavour(env, capacity=1)
        with pytest.raises(SimulationError):
            resource.set_capacity(0)


class TestShardBreakerFSM:
    def test_burst_trips_and_slow_trickle_does_not(self):
        breaker = ShardBreaker(0, threshold=3, window_s=1.0, cooldown_s=1.0)
        # A slow trickle: each failure ages out before the next.
        assert breaker.record_failure(0.0) is None
        assert breaker.record_failure(2.0) is None
        assert breaker.record_failure(4.0) is None
        assert breaker.state == BREAKER_CLOSED
        # A burst inside the window trips.
        assert breaker.record_failure(10.0) is None
        assert breaker.record_failure(10.2) is None
        assert breaker.record_failure(10.4) == DECISION_TRIP
        assert breaker.state == BREAKER_OPEN
        assert breaker.open

    def test_half_open_probe_success_restores(self):
        breaker = ShardBreaker(0, threshold=1, window_s=1.0, cooldown_s=0.5)
        assert breaker.record_failure(1.0) == DECISION_TRIP
        assert not breaker.try_half_open(1.2)  # cooldown not elapsed
        assert breaker.try_half_open(1.6)
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.open  # router may probe it
        assert breaker.record_success(1.7) == DECISION_RESTORE
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = ShardBreaker(0, threshold=1, window_s=1.0, cooldown_s=0.5)
        breaker.record_failure(1.0)
        breaker.try_half_open(1.6)
        assert breaker.record_failure(1.7) == DECISION_REOPEN
        assert breaker.state == BREAKER_OPEN
        # The cooldown restarted at the re-open instant.
        assert not breaker.try_half_open(2.1)
        assert breaker.try_half_open(2.3)

    def test_open_breaker_absorbs_failures_silently(self):
        breaker = ShardBreaker(0, threshold=1, window_s=1.0, cooldown_s=5.0)
        breaker.record_failure(1.0)
        assert breaker.record_failure(1.1) is None
        assert breaker.state == BREAKER_OPEN


class TestControlTraceLevels:
    def test_full_level_keeps_decisions(self):
        trace = ControlTrace("full")
        trace.record(DECISION_TRIP, 1.0, target="shard0", value=7.0)
        assert trace.breaker_trips == 1
        [decision] = trace.decisions
        assert decision.kind == DECISION_TRIP
        assert decision.target == "shard0"
        assert decision.value == 7.0

    def test_aggregate_level_keeps_counters_only(self):
        trace = ControlTrace("aggregate")
        trace.record(DECISION_TRIP, 1.0, target="shard0")
        assert trace.breaker_trips == 1
        assert trace.actuations == 1
        with pytest.raises(TraceLevelError):
            trace.decisions

    def test_unknown_decision_kind_rejected(self):
        with pytest.raises(ValueError):
            ControlTrace("full").record("overclock", 0.0)

    def test_rejected_sums_both_door_verdicts(self):
        trace = ControlTrace("full")
        trace.record("reject_pressure", 0.0)
        trace.record("reject_deadline", 0.0)
        trace.record("reject_deadline", 0.0)
        assert trace.rejected == 3


class TestAdaptiveConcurrency:
    def test_saturating_burst_narrows_then_widens(self):
        """A heavy burst pushes windowed p99 over the SLO (narrow);
        the drain phase restores headroom with queued demand (widen)."""
        requests = bursty_stream(
            MODELS, burst_size=8, num_bursts=3, mean_gap_s=4.0, seed=7
        )
        policy = ControlPolicy(
            interval_s=0.25, slo_s=1.0, min_inflight=1, max_inflight=12,
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=4, control=policy,
            trace_level="full",
        ).run(requests)
        trace = result.control
        assert trace.narrowed > 0
        assert trace.widened > 0
        # Decisions carry the new capacity; it must respect the bounds.
        for decision in trace.decisions:
            if decision.kind in ("widen", "narrow"):
                assert policy.min_inflight <= decision.value <= policy.max_inflight

    def test_disabled_concurrency_never_touches_the_window(self):
        requests = _stream()
        policy = ControlPolicy(concurrency=False)
        result = OnlineScheduler(
            cluster=_cluster(), max_inflight=2, control=policy, trace_level="full"
        ).run(requests)
        assert result.control.widened == 0
        assert result.control.narrowed == 0
        assert result.control.wakeups > 0


class TestAdmissionControl:
    def test_pressure_rejections_reconcile(self):
        requests = bursty_stream(
            MODELS, burst_size=10, num_bursts=2, mean_gap_s=0.5, seed=5
        )
        policy = ControlPolicy(
            concurrency=False, admission=ADMISSION_REJECT, admission_pressure=3
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=2, control=policy,
            trace_level="full",
        ).run(requests)
        assert result.rejected > 0
        assert result.count + result.shed + result.rejected == len(requests)
        assert result.control.rejected == result.rejected
        # Rejected ids and served ids partition the admitted stream.
        served = {record.request.request_id for record in result.served}
        rejected = set(result.rejected_requests)
        assert served.isdisjoint(rejected)
        assert len(rejected) == result.rejected

    def test_downgrade_admits_at_worse_priority(self):
        requests = bursty_stream(
            MODELS, burst_size=10, num_bursts=2, mean_gap_s=0.5, seed=5,
            priority_weights={0: 1.0},
        )
        policy = ControlPolicy(
            concurrency=False, admission="downgrade", admission_pressure=3,
            admission_downgrade_by=2,
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=2, control=policy,
            trace_level="full",
        ).run(requests)
        assert result.rejected == 0
        assert result.count == len(requests)
        assert result.control.door_downgraded > 0
        downgraded = [
            record for record in result.served if record.request.priority > 0
        ]
        assert len(downgraded) == result.control.door_downgraded

    def test_deadline_shed_rejects_unmeetable_arrivals(self):
        """With the cluster's capacity-weighted committed backlog past
        the SLO, a new arrival provably cannot meet it and is rejected
        at the door.  (The stream has to keep arriving *while* work is
        committed to stations -- a single up-front burst queues at the
        scheduler before any station commits, and the door sees an
        empty cluster.)"""
        requests = poisson_stream(
            ("vgg19", "resnet152"), rate_rps=3.0, num_requests=24, seed=9
        )
        policy = ControlPolicy(concurrency=False, slo_s=0.2, deadline_shed=True)
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=4, control=policy,
            trace_level="full",
        ).run(requests)
        assert result.control.rejected_deadline > 0
        assert result.count + result.shed + result.rejected == len(requests)

    def test_slo_attainment_counts_rejections_as_misses(self):
        requests = bursty_stream(
            MODELS, burst_size=10, num_bursts=2, mean_gap_s=0.5, seed=5
        )
        policy = ControlPolicy(
            concurrency=False, admission=ADMISSION_REJECT, admission_pressure=3
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=2, control=policy
        ).run(requests)
        assert result.rejected > 0
        generous = 1e9  # every completion inside the SLO
        assert result.slo_attainment(generous) == pytest.approx(
            result.count / (result.count + result.rejected)
        )


class TestBreakerTeeth:
    """The teeth test: a tripped breaker genuinely freezes dispatch to
    its shard until the half-open probe restores it."""

    def _churn_run(self, **control_kwargs):
        requests = _stream(num=20, rate=2.5, seed=11)
        faults = PerturbationProcess(
            seed=11, horizon_s=12.0, churn_rate=1.2, mean_outage_s=0.8
        )
        policy = ControlPolicy(
            interval_s=0.25, slo_s=2.0, concurrency=False,
            breaker_failures=2, breaker_window_s=2.0, breaker_cooldown_s=1.0,
            **control_kwargs,
        )
        return ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=3,
            faults=faults, retry=RetryPolicy(max_retries=2, backoff_base_s=0.05),
            control=policy, trace_level="full",
        ).run(requests)

    def test_trip_freezes_dispatch_until_restore(self):
        result = self._churn_run()
        trace = result.control
        assert trace.breaker_trips > 0, "seeded churn never tripped a breaker"
        decisions = trace.decisions
        for index, decision in enumerate(decisions):
            if decision.kind != "breaker_trip":
                continue
            shard = int(decision.target.removeprefix("shard"))
            frozen_at = decision.value  # dispatched[shard] at trip time
            # Until this shard's breaker transitions again (probe or
            # re-open), no later trip decision on the same shard may
            # show a higher dispatch count -- and the trip itself must
            # be followed by a probe before any restore.
            restored = False
            for later in decisions[index + 1:]:
                if later.target != decision.target:
                    continue
                if later.kind == "breaker_probe":
                    restored = True
                    break
                assert later.kind != "breaker_restore", (
                    "restore before any probe on the tripped shard"
                )
            if not restored:
                # Breaker stayed open to the end: the shard's final
                # dispatch count equals the frozen count.
                assert result.dispatched_by_shard[shard] == int(frozen_at), (
                    f"dispatch continued on tripped shard {shard}"
                )

    def test_chaos_reconciliation_with_breakers(self):
        # ``run`` itself checks the per-shard dispatch balance and
        # ``failures == retries + shed``.
        result = self._churn_run()
        assert result.count + result.shed + result.rejected == 20
        result.busy.assert_no_overlaps()


class TestElasticShards:
    def test_spawn_and_merge_at_boundaries(self):
        requests = bursty_stream(
            MODELS, burst_size=8, num_bursts=4, mean_gap_s=0.5, seed=7
        )
        policy = ControlPolicy(
            interval_s=0.25, slo_s=1.5, concurrency=False, elastic=True,
            min_shards=1, scale_up_backlog=4.0, scale_down_backlog=1.0,
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=4, control=policy,
            trace_level="full",
        ).run(requests)
        trace = result.control
        assert trace.shards_spawned + trace.shards_merged > 0
        assert result.count == len(requests)
        result.busy.assert_no_overlaps()
        for decision in trace.decisions:
            if decision.kind in ("spawn_shard", "merge_shard"):
                assert 1 <= decision.value <= 2

    def test_merge_drains_queue_without_stranding(self):
        """Scaling down with queued work moves it to the survivors via
        the steal ledger -- the reconciliation ``run`` checks stays
        exact."""
        requests = bursty_stream(
            MODELS, burst_size=10, num_bursts=2, mean_gap_s=3.0, seed=13
        )
        policy = ControlPolicy(
            interval_s=0.25, slo_s=1.5, concurrency=False, elastic=True,
            min_shards=1, scale_up_backlog=100.0, scale_down_backlog=99.0,
        )
        result = ShardedScheduler(
            cluster=_cluster(), num_shards=2, max_inflight=2, control=policy,
            trace_level="full",
        ).run(requests)
        assert result.control.shards_merged > 0
        assert result.count == len(requests)


class TestDeterminismAndPins:
    def test_controlled_runs_replay_exactly(self):
        requests = _stream()
        policy = ControlPolicy(
            interval_s=0.25, slo_s=1.0, admission=ADMISSION_REJECT,
            admission_pressure=6,
        )

        def once():
            return _timeline(
                ShardedScheduler(
                    cluster=_cluster(), num_shards=2, max_inflight=3,
                    control=policy,
                ).run(requests)
            )

        assert once() == once()

    def test_online_scheduler_noop_pin(self):
        requests = _stream()
        bare = OnlineScheduler(cluster=_cluster(), max_inflight=3).run(requests)
        noop = OnlineScheduler(
            cluster=_cluster(), max_inflight=3, control=ControlPolicy.noop()
        ).run(requests)
        assert _timeline(bare) == _timeline(noop)
        assert noop.control.wakeups > 0
        assert noop.control.actuations == 0
