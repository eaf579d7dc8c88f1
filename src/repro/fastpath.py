"""Shared switches for the optimized hot paths.

Two orthogonal escape hatches, each selecting between a fast
implementation and a pure-Python reference that is kept as the
executable specification:

- ``REPRO_DSE_FASTPATH=0`` forces the reference DP/DSE kernels: the
  numpy kernels in :mod:`repro.core.dp`, the halo-table tile pricing in
  :mod:`repro.dnn.partition` (the reference walks each band with
  ``DNNGraph.demand_rows``) and the shared staged local search in
  :mod:`repro.core.local_partitioner` all gate on
  :func:`fastpath_enabled`, and so do the process-lifetime plan,
  local-decision and local-partitioner memos of :mod:`repro.core.hidp`
  (the reference arm plans without them).
- ``REPRO_SIM_FASTPATH=0`` forces the reference simulation engine:
  the seed drain loop, process bootstrap and late-callback events of
  :mod:`repro.sim.engine`.  It also turns off the two memo *stores* of
  the layers above -- the executor's compiled locals and the sharded
  dispatcher's (load snapshot, load bucket) pair -- so those layers run
  the same code but recompute every value.  The runtime memoises
  nothing, and no executor or station control flow depends on it.
  :func:`sim_fastpath_enabled` is captured per
  :class:`~repro.sim.engine.Environment` at construction.

Both fast paths are byte-identical to their references -- plans, event
schedules and traces match exactly; the hatches exist for the old-vs-new
regression benches (``BENCH_dse.json``, ``BENCH_engine.json``), as the
differential check of every memo, and as a diagnosis tool.
"""

from __future__ import annotations

import os


def fastpath_enabled() -> bool:
    """Whether the vectorized DSE kernels are active.

    Disable with ``REPRO_DSE_FASTPATH=0`` (checked per call so tests and
    benches can toggle at runtime).  Each function that branches on it
    reads it at its own branch: the DP dispatchers in
    :mod:`repro.core.dp`, the partition memo and band pricing in
    :mod:`repro.dnn.partition`, the staged-search choice in
    :mod:`repro.core.local_partitioner`, and the planning memos of
    :mod:`repro.core.hidp`.  No planning function takes the flag as an
    argument.
    """
    return os.environ.get("REPRO_DSE_FASTPATH", "1") != "0"


def sim_fastpath_enabled() -> bool:
    """Whether the optimized simulation-engine path is active.

    Disable with ``REPRO_SIM_FASTPATH=0``.  Checked when an
    :class:`~repro.sim.engine.Environment` is created, so one
    simulation run never mixes paths.
    """
    return os.environ.get("REPRO_SIM_FASTPATH", "1") != "0"
