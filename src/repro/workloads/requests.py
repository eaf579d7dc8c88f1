"""Inference requests: the unit of work arriving at the leader node."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple


#: Priority of requests that never asked for one (lowest urgency class
#: number in use by default; smaller numbers are more urgent).
PRIORITY_NORMAL = 0


@dataclass(frozen=True)
class InferenceRequest:
    """One DNN inference request.

    ``arrival_s`` is the simulated time the request reaches the leader
    node's application module; ``model`` names a zoo entry.
    ``priority`` orders scheduling urgency -- lower values are more
    urgent, ``PRIORITY_NORMAL`` (0) is the default single-class traffic.
    """

    request_id: int
    model: str
    arrival_s: float = 0.0
    priority: int = PRIORITY_NORMAL

    def __post_init__(self) -> None:
        # NaN slips past ``< 0`` and would poison every percentile of
        # the run; an infinite arrival would crash the source process.
        if not math.isfinite(self.arrival_s):
            raise ValueError(f"non-finite arrival time: {self.arrival_s}")
        if self.arrival_s < 0:
            raise ValueError(f"negative arrival time: {self.arrival_s}")
        if self.request_id < 0:
            raise ValueError(f"negative request id: {self.request_id}")
        if self.priority < 0:
            raise ValueError(f"negative priority: {self.priority}")


def single_request(model: str) -> List[InferenceRequest]:
    """One request at t=0, for the Fig. 5 latency/energy measurements."""
    return [InferenceRequest(request_id=0, model=model, arrival_s=0.0)]


def request_sequence(models: Sequence[str], interval_s: float) -> List[InferenceRequest]:
    """Requests arriving every ``interval_s``, in the given model order."""
    if interval_s < 0:
        raise ValueError(f"negative interval: {interval_s}")
    return [
        InferenceRequest(request_id=idx, model=model, arrival_s=idx * interval_s)
        for idx, model in enumerate(models)
    ]


def repeating_stream(
    models: Sequence[str], interval_s: float, duration_s: float
) -> List[InferenceRequest]:
    """Round-robin over ``models`` every ``interval_s`` until ``duration_s``.

    Used by the Fig. 7 throughput mixes: a continuous stream of
    requests over a fixed horizon.
    """
    if interval_s <= 0:
        raise ValueError(f"interval must be positive: {interval_s}")
    requests = []
    idx = 0
    while True:
        arrival = idx * interval_s  # multiply, don't accumulate: no float drift
        if arrival >= duration_s:
            break
        requests.append(
            InferenceRequest(request_id=idx, model=models[idx % len(models)], arrival_s=arrival)
        )
        idx += 1
    return requests
