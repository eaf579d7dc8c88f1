"""Layer-attributed serving benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload heavy_warm --seed 7 --trace 0

``--seconds`` sets the measured wall-clock budget and defaults to
``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and the tracing overhead.
Human-readable progress goes to standard output first; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The package is imported from the checkout's ``src`` directory; without
it the run exits with status 2 and prints no result.  A failed
correctness check prints a result with ``"correct": false`` and exits
with status 1.  ``python3 perfbench/selftest.py`` tests the harness
itself on tiny streams in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured wall-clock budget (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run."""
    section = benchmark_spec()["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SOURCE / 'repro'}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not from {SOURCE}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    from perfbench.harness import run
    from perfbench.workloads import SPECS, Workload

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(SPECS)}", file=sys.stderr)
        return 2
    try:
        units = declared_metrics(args.trace)
        seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    workload = Workload(
        spec,
        spec.default_seed if args.seed is None else args.seed,
        episodes=spec.traced_episodes if args.trace else None,
    )
    summary = run(workload, seconds, bool(args.trace), units, print)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
