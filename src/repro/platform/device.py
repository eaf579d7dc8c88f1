"""Edge devices (the paper's nodes ``phi_j``) and their local resource
vectors.

A device groups heterogeneous processors behind a shared memory fabric.
The local computation-to-communication vector ``psi = {lambda_k/mu_k}``
(paper Eq. 1) and the node computation rate ``Lambda = sum(lambda_k)``
(Eq. 2) are computed here; the *global* vector ``Psi`` lives on
:class:`repro.platform.cluster.Cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.dnn.layers import CLASS_CONV, LAYER_CLASSES
from repro.platform.processor import KIND_GPU, Processor


@dataclass(frozen=True)
class Device:
    """One edge node: a set of processors plus a board-level power floor.

    ``intra_bw_bytes_s`` is the processor-to-processor transfer
    bandwidth over shared memory (the scalar ``mu_k`` of the paper,
    expressed in bytes/s); ``intra_latency_s`` the fixed hand-off cost.
    """

    name: str
    processors: Tuple[Processor, ...]
    intra_bw_bytes_s: float
    intra_latency_s: float = 0.0002
    static_power_w: float = 1.0
    dram_bytes: int = 4 * 1024**3

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError(f"{self.name}: device needs at least one processor")
        names = [proc.name for proc in self.processors]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate processor names {names}")
        if self.intra_bw_bytes_s <= 0 or self.intra_latency_s < 0:
            raise ValueError(f"{self.name}: invalid interconnect parameters")

    def processor(self, name: str) -> Processor:
        for proc in self.processors:
            if proc.name == name:
                return proc
        raise KeyError(f"{self.name}: no processor named {name!r}")

    @property
    def default_processor(self) -> Processor:
        """The processor a default DL framework schedules onto.

        TensorFlow places inference on the GPU when one exists (the
        paper's P1 configuration); otherwise the first CPU.
        """
        for proc in self.processors:
            if proc.kind == KIND_GPU:
                return proc
        return self.processors[0]

    def mu(self, processor: Processor) -> float:
        """Communication rate of a processor [bytes/s] (paper ``mu_k``)."""
        del processor  # shared memory fabric: uniform on this platform
        return self.intra_bw_bytes_s

    def psi(self, flops_by_class: Optional[Mapping[str, int]] = None) -> Dict[str, float]:
        """Local computation-to-communication vector (paper Eq. 1).

        Keyed by processor name; values are ``lambda_k / mu_k`` where
        ``lambda_k`` is evaluated for the given workload mix (defaults
        to pure convolution).
        """
        vector = {}
        for proc in self.processors:
            rate = (
                proc.effective_rate(flops_by_class)
                if flops_by_class is not None
                else proc.rate(CLASS_CONV)
            )
            vector[proc.name] = rate / self.mu(proc)
        return vector

    @cached_property
    def node_rates(self) -> Dict[str, float]:
        """Per-layer-class rate of the whole node, every processor
        counted [FLOPs/s] -- the global tier's heterogeneity-aware view.
        Computed once per device; treat it as read-only."""
        return {cls: sum(proc.rate(cls) for proc in self.processors) for cls in LAYER_CLASSES}

    def compute_rate(self, flops_by_class: Optional[Mapping[str, int]] = None) -> float:
        """Node computation rate ``Lambda_j`` (paper Eq. 2) [FLOPs/s]."""
        total = 0.0
        for proc in self.processors:
            if flops_by_class is not None:
                total += proc.effective_rate(flops_by_class)
            else:
                total += proc.rate(CLASS_CONV)
        return total

    def transfer_seconds(self, size_bytes: int) -> float:
        """Time to move a tensor between two local processors."""
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        return self.intra_latency_s + size_bytes / self.intra_bw_bytes_s

    @property
    def idle_power_w(self) -> float:
        """Board power with every processor idle."""
        return self.static_power_w + sum(proc.power.idle_w for proc in self.processors)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        procs = ", ".join(str(proc) for proc in self.processors)
        return f"Device({self.name}: {procs})"
