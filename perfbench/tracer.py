"""Per-layer wall-clock attribution and call counts from ``cProfile``.

A traced pass serves its episodes under one :class:`cProfile.Profile`.
Every function's self time (``tottime``) is credited to the layer whose
source file defines it, so inner and private functions -- the sharded
scheduler's process bodies, for instance -- count toward the layer of
their file.  Functions outside the package (builtins, the standard
library, numpy) are credited to the layers of their direct callers, in
proportion to the time each caller spent in them.  Generators are timed
per resume, so a simulation process is charged for the work it does when
the engine resumes it, not for the simulated time it waits.

Call counts come from the same profile.  Two small wrappers count what
the profile cannot see: the graphs handed to the strategy's
``plan_batch`` and the ``PlanExecutor.execute`` generators created (the
profile counts a generator's resumes, not its creations).  The package
source is never edited; leaving the tracer restores both wrapped
methods, so untraced passes run the original code.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter, defaultdict
from typing import Dict, Optional, Tuple

import repro
from repro.core.executor import PlanExecutor
from repro.core.hidp import HiDPStrategy

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Layer name -> source files (or directories, ending in ``/``) of the
#: package that make it up, relative to the package root.  Files of no
#: layer (faults, comm, metrics, platform, workloads) count only toward
#: the traced wall-clock the shares are taken of.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serving", ("serving/sharded.py", "serving/scheduler.py")),
    (
        "plan",
        (
            "core/strategy.py",
            "core/hidp.py",
            "core/dse.py",
            "core/local_partitioner.py",
            "core/plans.py",
            "dnn/",
        ),
    ),
    ("dp", ("core/dp.py",)),
    ("engine", ("sim/engine.py",)),
    ("executor", ("core/executor.py",)),
    ("runtime", ("sim/runtime.py", "sim/resources.py")),
    ("trace", ("sim/trace.py",)),
    ("routing", ("serving/routing.py",)),
    ("specialize", ("serving/specialize.py",)),
    ("control", ("serving/control.py",)),
)

#: The DP kernels whose calls from outside ``core/dp.py`` ``dp.kernel_calls`` counts.
DP_FILE = "core/dp.py"
DP_KERNELS = ("data_shares_dp", "data_shares_dp_batch", "pipeline_cuts_dp")


def package_path(filename: str) -> Optional[str]:
    """``filename`` relative to the package root, or None outside it."""
    if filename.startswith(PACKAGE):
        return filename[len(PACKAGE) :].replace(os.sep, "/")
    return None


def layer_of(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    for layer, parts in LAYERS:
        for part in parts:
            if path == part or (part.endswith("/") and path.startswith(part)):
                return layer
    return None


class LayerTracer:
    """Profiles one traced pass; enter it around every episode served."""

    def __init__(self):
        self.profile = cProfile.Profile()
        #: Graphs handed to ``plan_batch`` and executions started.
        self.plans_requested = 0
        self.executions = 0
        #: Filled by :meth:`summarise`: layer -> self seconds, the
        #: profiled seconds they are a share of, ``(package path,
        #: function name)`` -> calls, and DP kernel calls from outside
        #: the DP module.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s = 0.0
        self.calls: Counter = Counter()
        self.dp_kernel_calls = 0
        self._originals = []

    def __enter__(self) -> "LayerTracer":
        plan_batch = HiDPStrategy.plan_batch
        execute = PlanExecutor.execute

        def counting_plan_batch(strategy, graphs, *args, **kwargs):
            self.plans_requested += len(graphs)
            return plan_batch(strategy, graphs, *args, **kwargs)

        def counting_execute(executor, *args, **kwargs):
            self.executions += 1
            return execute(executor, *args, **kwargs)

        self._originals = [
            (HiDPStrategy, "plan_batch", plan_batch),
            (PlanExecutor, "execute", execute),
        ]
        HiDPStrategy.plan_batch = counting_plan_batch
        PlanExecutor.execute = counting_execute
        self.profile.enable()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.profile.disable()
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def count(self, path: str, name: str) -> int:
        """Calls (for a generator: resumes) of ``name`` defined in ``path``."""
        return self.calls[(path, name)]

    def summarise(self) -> None:
        """Reduce the profile to layer self times and call counts."""
        for (filename, _, name), (_, calls, self_s, _, callers) in (
            pstats.Stats(self.profile).stats.items()
        ):
            self.total_s += self_s
            path = package_path(filename)
            layer = layer_of(path)
            if layer is not None:
                self.self_s[layer] += self_s
            elif path is None:
                for (caller_file, _, _), (_, _, caller_s, _) in callers.items():
                    caller_layer = layer_of(package_path(caller_file))
                    if caller_layer is not None:
                        self.self_s[caller_layer] += caller_s
            if path is not None:
                self.calls[(path, name)] += calls
            if path == DP_FILE and name in DP_KERNELS:
                self.dp_kernel_calls += sum(
                    entry[0]
                    for (caller_file, _, _), entry in callers.items()
                    if package_path(caller_file) != DP_FILE
                )
