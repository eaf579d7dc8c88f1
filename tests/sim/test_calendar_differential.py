"""Differential property: the station/channel calendars against a FIFO.

``ProcessorStation.hold`` and ``NetworkChannel.transmit`` book each hold
on a capacity-1 calendar instead of queueing through a resource.  The
reference here is the queue they replace, built from
:class:`~repro.sim.resources.Resource`: request, wait for the grant,
time out, release.  It reads the DVFS factor when a hold is issued, the
link bandwidth when a leg starts serialising and the link latency when
it stops -- so a link degradation that lands while legs are queued or
serialising must be re-planned by the calendar to match.

Random sequences of holds, transfers, throttles and link episodes run
through both; every ``(start, end, hold_end)`` must be bit-identical and
every recorder key must list its records in the same order.

Times and durations are multiples of unrelated irrational constants, so
two independent instants never coincide exactly: at an exact tie the
two implementations may legitimately order simultaneous events
differently, which is not what this property is about.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.platform.cluster import build_cluster
from repro.platform.power import DVFSThrottle
from repro.sim.resources import Resource
from repro.sim.runtime import SimRuntime

DEVICES = ("jetson_tx2", "jetson_nano")
STATIONS = (("jetson_tx2", "gpu_pascal"), ("jetson_tx2", "cpu_denver2"))
TICK_S = math.pi / 9.0
HOLD_S = math.e / 11.0
LEG_BYTES = 350_003

KINDS = ("hold", "transmit", "degrade", "restore", "throttle", "unthrottle")

operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),  # issue tick
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=len(STATIONS) - 1),
        st.integers(min_value=1, max_value=9),  # magnitude
    ),
    min_size=1,
    max_size=30,
)


class ReferenceLink:
    """The medium's constants under stacked slowdowns (the same
    product order as ``NetworkChannel``)."""

    def __init__(self, bandwidth, latency):
        self.base = (bandwidth, latency)
        self.slowdowns = []
        self.bandwidth, self.latency = bandwidth, latency

    def change(self, factor, add):
        if add:
            self.slowdowns.append(factor)
        else:
            self.slowdowns.remove(factor)
        if not self.slowdowns:
            self.bandwidth, self.latency = self.base
            return
        slowdown = 1.0
        for value in self.slowdowns:
            slowdown *= value
        self.bandwidth = self.base[0] / slowdown
        self.latency = self.base[1] * slowdown


def _reference_run(ops):
    cluster = build_cluster(list(DEVICES))
    runtime = SimRuntime(cluster)  # only for its environment
    env = runtime.env
    stations = {key: (Resource(env), DVFSThrottle()) for key in STATIONS}
    medium = Resource(env)
    link = ReferenceLink(cluster.network.bandwidth_bytes_s, cluster.network.latency_s)
    busy = {key: [] for key in STATIONS}
    transfers = []

    def hold(key, duration, label):
        resource, throttle = stations[key]
        if throttle.factor != 1.0:
            duration = duration * throttle.factor
        request = resource.request()
        yield request
        start = env.now
        try:
            yield env.timeout(duration)
        finally:
            resource.release(request)
        busy[key].append((start, env.now, label))

    def transmit(size, tag):
        request = medium.request()
        yield request
        start = env.now
        try:
            yield env.timeout(size / link.bandwidth)
        finally:
            medium.release(request)
        hold_end = env.now
        yield env.timeout(link.latency)
        transfers.append((start, env.now, hold_end, tag))

    _drive(
        env,
        ops,
        hold=lambda key, duration, label: env.process(hold(key, duration, label)),
        transmit=lambda size, tag: env.process(transmit(size, tag)),
        link=lambda factor, add: link.change(factor, add),
        throttle=lambda key, factor, add: (
            stations[key][1].apply if add else stations[key][1].restore
        )(factor),
    )
    return busy, transfers


def _calendar_run(ops):
    runtime = SimRuntime(build_cluster(list(DEVICES)))
    env = runtime.env
    network = runtime.network
    _drive(
        env,
        ops,
        hold=lambda key, duration, label: env.process(
            runtime.station(*key).hold(duration, label)
        ),
        transmit=lambda size, tag: env.process(
            network.transmit(DEVICES[0], DEVICES[1], size, tag)
        ),
        link=lambda factor, add: (network.degrade if add else network.restore)(factor),
        throttle=lambda key, factor, add: (
            runtime.station(*key).throttle.apply
            if add
            else runtime.station(*key).throttle.restore
        )(factor),
    )
    busy = {
        key: [
            (iv.start, iv.end, iv.label)
            for iv in runtime.busy.intervals(runtime.station(*key).key)
        ]
        for key in STATIONS
    }
    transfers = [
        (entry.start, entry.end, entry.hold_end, entry.tag)
        for entry in runtime.transfer_log.entries
    ]
    return busy, transfers


def _drive(env, ops, hold, transmit, link, throttle):
    """Issue ``ops`` from one driver process at their ticks, in order;
    holds and transfers each run in a process of their own."""
    ordered = sorted(enumerate(ops), key=lambda item: (item[1][0], item[0]))

    def driver():
        links, throttles = [], {key: [] for key in STATIONS}
        for index, (tick, kind, which, magnitude) in ordered:
            when = tick * TICK_S
            if when > env.now:
                yield env.timeout_at(when)
            key = STATIONS[which]
            if kind == "hold":
                hold(key, magnitude * HOLD_S, f"op{index}")
            elif kind == "transmit":
                transmit(magnitude * LEG_BYTES, f"op{index}")
            elif kind == "degrade":
                links.append(1.0 + magnitude / 7.0)
                link(links[-1], True)
            elif kind == "restore" and links:
                link(links.pop(0), False)
            elif kind == "throttle":
                throttles[key].append(1.0 + magnitude / 5.0)
                throttle(key, throttles[key][-1], True)
            elif kind == "unthrottle" and throttles[key]:
                throttle(key, throttles[key].pop(0), False)

    env.process(driver())
    env.run()


@settings(max_examples=200, deadline=None)
@given(operations)
def test_calendar_matches_the_fifo_it_replaces(ops):
    assert _calendar_run(ops) == _reference_run(ops)


def test_a_degradation_mid_queue_is_replanned():
    """The hand-picked case: three legs queue, the link degrades while
    the first serialises and recovers while the second does."""
    ops = [
        (0, "transmit", 0, 9),
        (0, "transmit", 0, 9),
        (0, "transmit", 0, 9),
        (0, "hold", 0, 3),
        (1, "degrade", 0, 7),
        (2, "restore", 0, 1),
    ]
    calendar, reference = _calendar_run(ops), _reference_run(ops)
    assert calendar == reference
    # The episode really moved the legs: a fault-free run differs.
    healthy = [op for op in ops if op[1] == "transmit"]
    assert _calendar_run(healthy)[1] != calendar[1]
