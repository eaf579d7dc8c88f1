"""Execution plan data model shared by HiDP and every baseline.

A strategy's output is an :class:`ExecutionPlan`: which devices take
which piece of the DNN, how each device runs its piece across its local
processors, and what crosses the network.  The plan executor
(:mod:`repro.core.executor`) interprets plans uniformly, so latency,
energy and throughput comparisons between strategies are apples to
apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

MODE_MODEL = "model"
MODE_DATA = "data"
MODE_LOCAL = "local"
PLAN_MODES = (MODE_MODEL, MODE_DATA, MODE_LOCAL)

LOCAL_SINGLE = "single"
LOCAL_DATA = "data"
LOCAL_PIPELINE = "pipeline"
LOCAL_STAGED = "staged"
LOCAL_MODES = (LOCAL_SINGLE, LOCAL_DATA, LOCAL_PIPELINE, LOCAL_STAGED)


@dataclass(frozen=True)
class UnitTask:
    """One compute task bound to a named processor of the host device."""

    processor: str
    flops_by_class: Mapping[str, int]
    input_bytes: int = 0
    output_bytes: int = 0
    label: str = ""
    #: False = executed through the default DL framework run-time
    #: (pays the processor's default_runtime_penalty); True = pinned to
    #: cores via CGroups the way HiDP's middleware runs tasks.
    pinned: bool = True
    #: Operator (layer) count of the piece; each op pays the
    #: processor's dispatch cost.
    num_ops: int = 0

    def __post_init__(self) -> None:
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError(f"negative staging bytes: {self}")
        if any(v < 0 for v in self.flops_by_class.values()):
            raise ValueError(f"negative flops: {self}")

    @property
    def flops(self) -> int:
        return sum(self.flops_by_class.values())


@dataclass(frozen=True)
class LocalExec:
    """How one device executes its piece.

    - ``single``: one task on one processor.
    - ``data``: tasks run in parallel on distinct processors (local
      data partitioning); each stages its input/output over the memory
      fabric.
    - ``pipeline``: tasks run sequentially, handing tensors between
      processors (local model partitioning).
    - ``staged``: a sequence of barrier-synchronised stages, each a set
      of parallel tasks on distinct processors -- chunk-wise data
      partitioning where tiles re-merge (cheaply, over shared memory)
      at every chunk boundary, resetting halo growth.  ``stages`` holds
      the structure; ``tasks`` is its flattened view.
    """

    mode: str
    tasks: Tuple[UnitTask, ...]
    #: optional task run after the parallel tasks complete (the
    #: non-spatial tail of a locally data-partitioned block).
    tail: Optional[UnitTask] = None
    #: staged mode only: barrier-synchronised groups of parallel tasks.
    stages: Optional[Tuple[Tuple[UnitTask, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.mode not in LOCAL_MODES:
            raise ValueError(f"unknown local mode {self.mode!r}")
        if not self.tasks:
            raise ValueError("local execution needs at least one task")
        if self.mode == LOCAL_SINGLE and len(self.tasks) != 1:
            raise ValueError("single mode requires exactly one task")
        if self.tail is not None and self.mode == LOCAL_PIPELINE:
            raise ValueError("pipeline mode embeds its tail as the last stage")
        if self.mode == LOCAL_STAGED:
            if not self.stages:
                raise ValueError("staged mode requires stages")
            flattened = tuple(task for stage in self.stages for task in stage)
            if flattened != self.tasks:
                raise ValueError("tasks must be the flattened view of stages")
            for stage in self.stages:
                procs = [task.processor for task in stage]
                if len(set(procs)) != len(procs):
                    raise ValueError(f"stage reuses a processor: {procs}")
        elif self.stages is not None:
            raise ValueError(f"stages only valid in staged mode, not {self.mode!r}")
        if self.mode == LOCAL_DATA:
            procs = [task.processor for task in self.tasks]
            if len(set(procs)) != len(procs):
                raise ValueError(f"data mode requires distinct processors, got {procs}")

    @property
    def flops(self) -> int:
        total = sum(task.flops for task in self.tasks)
        if self.tail is not None:
            total += self.tail.flops
        return total

    @property
    def processors(self) -> Tuple[str, ...]:
        return tuple(task.processor for task in self.tasks)


@dataclass(frozen=True)
class NodeAssignment:
    """One device's share of the global plan.

    ``send_bytes`` is the payload shipped *to* this device (from the
    leader for data tiles; from the previous pipeline stage for model
    blocks); ``return_bytes`` the result shipped back to the leader
    (for data tiles and for the final pipeline stage).
    """

    device: str
    local: LocalExec
    send_bytes: int = 0
    return_bytes: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.send_bytes < 0 or self.return_bytes < 0:
            raise ValueError(f"negative transfer bytes: {self}")


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete, executable distribution decision for one request.

    ``mode`` selects the executor semantics:

    - ``data``: assignments run in parallel; results gather on the
      leader, then ``merge_exec`` (the non-spatial tail + merge) runs.
    - ``model``: assignments form a pipeline in order; the final output
      returns to the leader.
    - ``local``: single assignment on the leader, no network use.

    ``leader`` names the physical device that runs the leader FSM for
    this plan -- the probe source, the offload fan-out origin, the
    merge host, and the scheduler CPU the DSE overhead is charged on.
    ``None`` means the cluster's default leader (``devices[0]``), which
    keeps legacy plans byte-identical.
    """

    strategy: str
    model: str
    mode: str
    assignments: Tuple[NodeAssignment, ...]
    merge_exec: Optional[LocalExec] = None
    predicted_latency_s: float = 0.0
    dse_overhead_s: float = 0.0
    notes: Dict[str, Any] = field(default_factory=dict)
    leader: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in PLAN_MODES:
            raise ValueError(f"unknown plan mode {self.mode!r}")
        if not self.assignments:
            raise ValueError("plan needs at least one assignment")
        if self.mode == MODE_LOCAL and len(self.assignments) != 1:
            raise ValueError("local mode carries exactly one assignment")
        for name in ("predicted_latency_s", "dse_overhead_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def devices(self) -> Tuple[str, ...]:
        return tuple(assignment.device for assignment in self.assignments)

    @property
    def total_flops(self) -> int:
        total = sum(assignment.local.flops for assignment in self.assignments)
        if self.merge_exec is not None:
            total += self.merge_exec.flops
        return total

    @property
    def network_bytes(self) -> int:
        return sum(a.send_bytes + a.return_bytes for a in self.assignments)
