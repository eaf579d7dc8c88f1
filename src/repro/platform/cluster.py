"""Edge clusters: the paper's ``N(phi_j)`` with the global resource
vector ``Psi`` (Eq. 3) and the availability vector ``A`` (Eq. 4).

Leader election (ISSUE 5): historically ``devices[0]`` was hard-wired
as the data-distribution leader of every plan.  The election API below
makes the physical leader a first-class planning input -- explicit by
name, least-loaded under a backlog snapshot, or pinned per shard so N
scheduler shards spread the offload fan-out and the planning charge
across boards.  ``devices[0]`` remains the *default* leader, so every
legacy call site is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

from repro.comm.network import WirelessNetwork
from repro.platform.device import Device
from repro.platform.specs import DEVICE_NAMES, build_device

#: Leader-election policies (see :meth:`Cluster.elect_leader`).
LEADER_FIXED = "fixed"
LEADER_EXPLICIT = "explicit"
LEADER_LEAST_LOADED = "least_loaded"
LEADER_SHARD = "shard"
LEADER_POLICIES = (LEADER_FIXED, LEADER_EXPLICIT, LEADER_LEAST_LOADED, LEADER_SHARD)


class PlanningSignature:
    """Everything a plan reads from a cluster -- its devices (with their
    processors and memory fabric), its network and its availability
    vector -- as one interned token.

    Clusters with equal inputs share one live token (see
    :meth:`Cluster.planning_signature`), so a memo key holding it hashes
    and compares by identity, with no walk over the device specs.
    """

    __slots__ = ("__weakref__",)


#: The live tokens by value.  An entry lives while a cluster or a memo
#: key holds its token, so at most one token per value exists.
_SIGNATURES: "WeakValueDictionary[Tuple, PlanningSignature]" = WeakValueDictionary()


@dataclass
class Cluster:
    """A set of collaborating edge nodes on one wireless network.

    ``devices[0]`` is the node where inference requests arrive; the
    HiDP scheduling algorithm assigns it leader status (Algorithm 1,
    lines 1-2).  ``available`` tracks the availability vector; nodes
    can be marked unavailable to model churn / failure injection.
    """

    devices: Tuple[Device, ...]
    network: WirelessNetwork = field(default_factory=WirelessNetwork)
    name: str = "edge-cluster"

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("cluster needs at least one device")
        names = [device.name for device in self.devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names: {names}")
        self._available: Dict[str, bool] = {device.name: True for device in self.devices}
        self._availability_signature: Optional[Tuple[Tuple[str, int], ...]] = None
        # (devices, network, token) of the last planning_signature() call.
        self._planning_signature: Optional[Tuple] = None

    # Topology -----------------------------------------------------------

    @property
    def leader(self) -> Device:
        return self.devices[0]

    def device(self, name: str) -> Device:
        for device in self.devices:
            if device.name == name:
                return device
        raise KeyError(f"no device named {name!r} in {self.name}")

    @property
    def size(self) -> int:
        return len(self.devices)

    def subcluster(self, count: int) -> "Cluster":
        """First ``count`` devices (leader retained), for Fig. 8 sweeps."""
        if not 1 <= count <= len(self.devices):
            raise ValueError(f"cannot take {count} devices from {len(self.devices)}")
        return Cluster(devices=self.devices[:count], network=self.network, name=self.name)

    # Availability (paper Eq. 4) ------------------------------------------

    def set_available(self, device_name: str, available: bool) -> None:
        if device_name not in self._available:
            raise KeyError(f"no device named {device_name!r}")
        self._available[device_name] = available
        self._availability_signature = None
        self._planning_signature = None

    def is_available(self, device_name: str) -> bool:
        return self._available[device_name]

    def availability_vector(self) -> Dict[str, int]:
        """``A(N_phi) = {alpha_j}`` with 1 = available."""
        return {name: int(flag) for name, flag in self._available.items()}

    def availability_signature(self) -> Tuple[Tuple[str, int], ...]:
        """Hashable, name-sorted availability vector.

        Plan-cache keys embed this on every lookup (several times per
        scheduler batch), so it is cached and invalidated only by
        :meth:`set_available`.
        """
        signature = self._availability_signature
        if signature is None:
            signature = tuple(sorted(self.availability_vector().items()))
            self._availability_signature = signature
        return signature

    def planning_signature(self) -> PlanningSignature:
        """The interned value of this cluster's planning inputs.

        Equal devices, network and availability give the same token, so
        a plan memoised for one cluster serves an equal cluster built
        later.  Cached, and invalidated by :meth:`set_available` or by
        assigning ``devices`` or ``network``.
        """
        cached = self._planning_signature
        if cached is not None and cached[0] is self.devices and cached[1] is self.network:
            return cached[2]
        value = (self.devices, self.network, self.availability_signature())
        signature = _SIGNATURES.get(value)
        if signature is None:
            signature = _SIGNATURES[value] = PlanningSignature()
        self._planning_signature = (self.devices, self.network, signature)
        return signature

    def available_devices(self) -> Tuple[Device, ...]:
        return tuple(device for device in self.devices if self._available[device.name])

    # Leader election (ISSUE 5) -------------------------------------------

    def elect_leader(
        self,
        policy: str = LEADER_FIXED,
        *,
        name: Optional[str] = None,
        load: Optional[Mapping[str, float]] = None,
        shard: int = 0,
        num_shards: int = 1,
    ) -> Device:
        """Elect the physical data-distribution leader for one plan.

        - ``fixed``: the historical ``devices[0]`` leader (the node
          where requests arrive).
        - ``explicit``: the device called ``name``.
        - ``least_loaded``: the available device with the smallest
          backlog in ``load`` (ties break in cluster order, so election
          is deterministic; an absent entry counts as an idle device).
        - ``shard``: shard ``shard`` of ``num_shards`` pins its leader
          round-robin over the available devices, so a sharded
          scheduler's fan-out and planning charge spread across boards.

        The elected device must be available (it runs the probe /
        offload / merge FSM); electing an unavailable device raises.
        """
        if policy == LEADER_FIXED:
            elected = self.leader
        elif policy == LEADER_EXPLICIT:
            if name is None:
                raise ValueError("explicit election needs a device name")
            elected = self.device(name)
        elif policy == LEADER_LEAST_LOADED:
            candidates = self.available_devices()
            if not candidates:
                raise RuntimeError("no available device to elect as leader")
            backlog = load or {}
            elected = min(candidates, key=lambda d: backlog.get(d.name, 0.0))
        elif policy == LEADER_SHARD:
            if num_shards < 1:
                raise ValueError(f"num_shards must be positive, got {num_shards}")
            if not 0 <= shard < num_shards:
                raise ValueError(f"shard {shard} out of range for {num_shards} shards")
            candidates = self.available_devices()
            if not candidates:
                raise RuntimeError("no available device to elect as leader")
            elected = candidates[shard % len(candidates)]
        else:
            raise ValueError(f"unknown leader policy {policy!r}; known: {LEADER_POLICIES}")
        if not self._available[elected.name]:
            raise RuntimeError(f"elected leader {elected.name!r} is unavailable")
        return elected

    def shard_leaders(self, num_shards: int) -> Tuple[str, ...]:
        """Per-shard leader device names (round-robin over available
        devices), one per shard."""
        return tuple(
            self.elect_leader(LEADER_SHARD, shard=shard, num_shards=num_shards).name
            for shard in range(num_shards)
        )

    def reelect_shard_leaders(
        self, num_shards: int, load: Optional[Mapping[str, float]] = None
    ) -> Tuple[str, ...]:
        """Re-elect one physical leader per shard under a load snapshot.

        Each shard's leader is elected through
        :meth:`elect_leader(\"least_loaded\") <elect_leader>`; after every
        election the chosen device's backlog is penalised past every
        candidate, so successive shards spread over distinct boards when
        the cluster has enough available devices (and wrap round-robin
        by ascending load when it does not).  Fully deterministic for a
        given snapshot -- the serving scheduler calls this at every
        specialization-epoch boundary, so an election that flapped on
        ties would thrash plan caches keyed on the leader.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        backlog = dict(load) if load else {}
        penalty = max(backlog.values(), default=0.0) + 1.0
        leaders = []
        for _ in range(num_shards):
            elected = self.elect_leader(LEADER_LEAST_LOADED, load=backlog)
            leaders.append(elected.name)
            backlog[elected.name] = backlog.get(elected.name, 0.0) + penalty
        return tuple(leaders)

    def planning_devices(self, leader: Optional[str] = None) -> Tuple[Device, ...]:
        """Available devices with the planning leader first.

        Every planner assumes index 0 is the leader (the executor with
        free communication, the pipeline source, the merge host);
        reordering here lets any device lead without disturbing the DP
        kernels.  ``leader=None`` (or the default leader's name) keeps
        the historical order byte-for-byte.
        """
        devices = self.available_devices()
        if not devices:
            raise RuntimeError("no available devices to plan over")
        leader_name = leader if leader is not None else self.leader.name
        for index, device in enumerate(devices):
            if device.name == leader_name:
                if index == 0:
                    return devices
                return (device,) + devices[:index] + devices[index + 1:]
        if leader_name not in self._available:
            raise KeyError(f"no device named {leader_name!r} in {self.name}")
        raise RuntimeError(f"leader node {leader_name!r} must be available to plan")

    # Resource vectors (paper Eq. 3) ---------------------------------------

    def beta(self, device: Device) -> float:
        """Node communication rate over the wireless medium [bytes/s]."""
        del device  # uniform shared medium
        return self.network.beta()

    def psi_global(self, flops_by_class: Optional[Mapping[str, int]] = None) -> Dict[str, float]:
        """Global computation-to-communication vector ``Psi{Lambda, beta}``.

        Keyed by device name, over *available* devices only.
        """
        vector = {}
        for device in self.available_devices():
            vector[device.name] = device.compute_rate(flops_by_class) / self.beta(device)
        return vector

    def transfer_seconds(self, src: str, dst: str, size_bytes: int) -> float:
        """Uncontended node-to-node transfer time (0 for self-transfers)."""
        if src == dst:
            return 0.0
        return self.network.transfer_seconds(size_bytes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster({self.name}: {', '.join(d.name for d in self.devices)})"


def build_cluster(
    device_names: Sequence[str] = DEVICE_NAMES,
    network: Optional[WirelessNetwork] = None,
    name: str = "edge-cluster",
) -> Cluster:
    """Build a cluster from Table II board names (leader first)."""
    devices = tuple(build_device(device_name) for device_name in device_names)
    return Cluster(devices=devices, network=network or WirelessNetwork(), name=name)
