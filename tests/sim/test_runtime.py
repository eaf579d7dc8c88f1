"""Simulation runtime tests: stations, contention, network channel."""

import pytest

from repro.platform.cluster import build_cluster
from repro.sim.engine import SimulationError
from repro.sim.runtime import SimRuntime


@pytest.fixture()
def runtime():
    return SimRuntime(build_cluster(["jetson_tx2", "jetson_nano"]))


class TestStations:
    def test_station_lookup(self, runtime):
        station = runtime.station("jetson_tx2", "gpu_pascal")
        assert station.processor.name == "gpu_pascal"
        with pytest.raises(KeyError):
            runtime.station("jetson_tx2", "npu")

    def test_stations_of(self, runtime):
        names = {s.processor.name for s in runtime.stations_of("jetson_tx2")}
        assert names == {"cpu_denver2", "cpu_a57", "gpu_pascal"}

    def test_task_records_busy_and_flops(self, runtime):
        station = runtime.station("jetson_tx2", "gpu_pascal")

        def proc():
            yield from station.run_task({"conv": 10**9}, label="t")

        runtime.env.process(proc())
        runtime.env.run()
        assert runtime.busy.busy_seconds(station.key) > 0
        assert runtime.flops_log.total_flops == 10**9

    def test_contention_serialises(self, runtime):
        station = runtime.station("jetson_tx2", "gpu_pascal")
        ends = []

        def proc():
            end = yield from station.run_task({"conv": 10**9})
            ends.append(end)

        runtime.env.process(proc())
        runtime.env.process(proc())
        runtime.env.run()
        single = station.processor.task_seconds({"conv": 10**9})
        assert ends[0] == pytest.approx(single)
        assert ends[1] == pytest.approx(2 * single)

    def test_parallel_stations_overlap(self, runtime):
        gpu = runtime.station("jetson_tx2", "gpu_pascal")
        cpu = runtime.station("jetson_tx2", "cpu_denver2")
        ends = []

        def proc(station):
            end = yield from station.run_task({"conv": 10**9})
            ends.append(end)

        runtime.env.process(proc(gpu))
        runtime.env.process(proc(cpu))
        runtime.env.run()
        assert max(ends) < (
            gpu.processor.task_seconds({"conv": 10**9})
            + cpu.processor.task_seconds({"conv": 10**9})
        )

    def test_backlog_tracking(self, runtime):
        station = runtime.station("jetson_tx2", "gpu_pascal")
        assert station.backlog_seconds == 0.0

        def proc():
            yield from station.run_task({"conv": 10**10})

        runtime.env.process(proc())
        runtime.env.process(proc())
        runtime.env.run(until=0.01)
        assert station.backlog_seconds > 0
        runtime.env.run()
        assert station.backlog_seconds == 0.0

    def test_run_overhead_holds_resource(self, runtime):
        """Overheads must hold the capacity-1 station: two concurrent
        overheads serialise and their busy intervals never overlap."""
        station = runtime.station("jetson_tx2", "cpu_denver2")
        ends = []

        def proc():
            end = yield from station.run_overhead(0.25, label="dse")
            ends.append(end)

        runtime.env.process(proc())
        runtime.env.process(proc())
        runtime.env.run()
        assert ends == [pytest.approx(0.25), pytest.approx(0.5)]
        assert runtime.busy.overlapping(station.key) == []
        assert runtime.busy.busy_seconds(station.key) == pytest.approx(0.5)

    def test_run_overhead_updates_committed_until(self, runtime):
        station = runtime.station("jetson_tx2", "cpu_denver2")

        def proc():
            yield from station.run_overhead(0.4)

        runtime.env.process(proc())
        runtime.env.run(until=0.1)
        assert station.backlog_seconds == pytest.approx(0.3)
        runtime.env.run()
        assert station.backlog_seconds == 0.0

    def test_run_overhead_zero_is_free(self, runtime):
        station = runtime.station("jetson_tx2", "cpu_denver2")

        def proc():
            yield from station.run_overhead(0.0)

        runtime.env.process(proc())
        runtime.env.run()
        assert runtime.env.now == 0.0
        assert runtime.busy.busy_seconds(station.key) == 0.0

    def test_device_backlog_uses_least_loaded(self, runtime):
        gpu = runtime.station("jetson_tx2", "gpu_pascal")

        def proc():
            yield from gpu.run_task({"conv": 10**10})

        runtime.env.process(proc())
        runtime.env.run(until=0.01)
        # CPUs are idle, so the device-level backlog is zero.
        assert runtime.device_backlog("jetson_tx2") == 0.0
        snapshot = runtime.load_snapshot()
        assert set(snapshot) == {"jetson_tx2", "jetson_nano"}


class TestLoadViews:
    """Per-station weighted snapshots (ISSUE 3): the min view
    under-reports congestion whenever any processor idles."""

    def _load_gpu(self, runtime):
        gpu = runtime.station("jetson_tx2", "gpu_pascal")

        def proc():
            yield from gpu.run_task({"conv": 10**10})

        runtime.env.process(proc())
        runtime.env.run(until=0.01)
        return gpu

    def test_station_backlogs_keyed_by_processor(self, runtime):
        self._load_gpu(runtime)
        backlogs = runtime.station_backlogs("jetson_tx2")
        assert set(backlogs) == {"cpu_denver2", "cpu_a57", "gpu_pascal"}
        assert backlogs["gpu_pascal"] > 0
        assert backlogs["cpu_denver2"] == 0.0

    def test_weighted_view_sees_busy_gpu_through_idle_cpus(self, runtime):
        gpu = self._load_gpu(runtime)
        assert runtime.device_backlog("jetson_tx2", view="min") == 0.0
        weighted = runtime.device_backlog("jetson_tx2", view="weighted")
        # Strictly positive, dominated by the (fast, heavily weighted)
        # GPU station, but averaged down by the idle CPU stations.
        assert 0.0 < weighted < gpu.backlog_seconds

    def test_weighted_snapshot_covers_all_devices(self, runtime):
        self._load_gpu(runtime)
        snapshot = runtime.load_snapshot(view="weighted")
        assert set(snapshot) == {"jetson_tx2", "jetson_nano"}
        assert snapshot["jetson_tx2"] > 0.0
        assert snapshot["jetson_nano"] == 0.0

    def test_views_agree_when_all_stations_equally_idle(self, runtime):
        assert runtime.device_backlog("jetson_tx2", view="min") == 0.0
        assert runtime.device_backlog("jetson_tx2", view="weighted") == 0.0

    def test_unknown_view_rejected(self, runtime):
        with pytest.raises(ValueError):
            runtime.load_snapshot(view="median")


class TestNetworkChannel:
    def test_transfer_time(self, runtime):
        done = []

        def proc():
            yield from runtime.network.transmit("jetson_tx2", "jetson_nano", 10**6, tag="x")
            done.append(runtime.env.now)

        runtime.env.process(proc())
        runtime.env.run()
        net = runtime.cluster.network
        expected = 10**6 / net.bandwidth_bytes_s + net.latency_s
        assert done[0] == pytest.approx(expected)
        assert runtime.transfer_log.total_bytes == 10**6

    def test_self_transfer_free(self, runtime):
        def proc():
            yield from runtime.network.transmit("jetson_tx2", "jetson_tx2", 10**9)

        runtime.env.process(proc())
        runtime.env.run()
        assert runtime.env.now == 0.0
        assert runtime.transfer_log.total_bytes == 0

    def test_channel_contention(self, runtime):
        ends = []

        def proc():
            yield from runtime.network.transmit("jetson_tx2", "jetson_nano", 10**7)
            ends.append(runtime.env.now)

        runtime.env.process(proc())
        runtime.env.process(proc())
        runtime.env.run()
        serialisation = 10**7 / runtime.cluster.network.bandwidth_bytes_s
        # second transfer had to wait for the first's serialisation
        assert ends[1] - ends[0] == pytest.approx(serialisation)

    def test_latency_does_not_hold_channel(self, runtime):
        """Small probes must pipeline through the medium."""
        ends = []

        def proc():
            yield from runtime.network.transmit("jetson_tx2", "jetson_nano", 256)
            ends.append(runtime.env.now)

        for _ in range(4):
            runtime.env.process(proc())
        runtime.env.run()
        # With latency held on the channel this would be ~4*latency.
        assert max(ends) < 2.5 * runtime.cluster.network.latency_s

    def test_busy_seconds_excludes_propagation_latency(self, runtime):
        """Regression: the seed logged (start, now) after the latency
        timeout, so busy_seconds() overstated channel occupancy by
        latency_s per transfer even though the channel was released
        before propagation."""
        def proc():
            yield from runtime.network.transmit("jetson_tx2", "jetson_nano", 10**6, tag="x")

        runtime.env.process(proc())
        runtime.env.run()
        net = runtime.cluster.network
        serialisation = 10**6 / net.bandwidth_bytes_s
        assert runtime.transfer_log.busy_seconds() == pytest.approx(serialisation)
        entry = runtime.transfer_log.entries[0]
        assert entry.hold_seconds == pytest.approx(serialisation)
        assert entry.delivery_seconds == pytest.approx(serialisation + net.latency_s)


class TestCalendarValidation:
    """Malformed holds fail when booked, as a negative timeout did."""

    def test_negative_or_nan_hold_rejected(self, runtime):
        station = runtime.station("jetson_tx2", "gpu_pascal")
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="hold duration"):
                next(station.hold(bad, "bad"))
        assert station.committed_until == 0.0

    def test_negative_leg_rejected(self, runtime):
        with pytest.raises(SimulationError, match="leg size"):
            next(runtime.network.transmit("jetson_tx2", "jetson_nano", -10))
        assert runtime.network.committed_until == 0.0

    def test_schedule_in_the_past_rejected(self, runtime):
        env = runtime.env
        env.run(until=1.0)
        with pytest.raises(SimulationError):
            env.timeout_at(0.5)
        with pytest.raises(SimulationError):
            env.schedule_at(env.event(), float("nan"))
        done = env.schedule_at(env.event(), 1.5, "x")
        with pytest.raises(SimulationError, match="already triggered"):
            env.schedule_at(done, 2.0)
        env.run()
        assert env.now == 1.5 and done.value == "x"
