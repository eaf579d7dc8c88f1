"""Fast self-test of the benchmark harness on tiny streams.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Serves every workload, untraced and traced, on two episodes of twelve
requests and asserts that each run passes its checks and reports every
metric ``BENCHMARK.json`` declares, with its unit, both in the log and
in the result object.  It then tampers with the program's results -- a
served request dropped, an energy total nudged in one pass -- and
asserts that the correctness checks catch each.  Exits non-zero on the
first failed assertion.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import declared_metrics, import_package  # noqa: E402

TINY = {"episodes": 2, "requests_per_episode": 12}
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny_run(name: str, traced: bool, seed=None):
    """One tiny run; returns ``(result object, log lines)``."""
    from perfbench import harness
    from perfbench.workloads import SPECS, Workload

    spec = SPECS[name]
    workload = Workload(spec, spec.default_seed if seed is None else seed, **TINY)
    lines = []
    summary = harness.run(workload, 0.0, traced, declared_metrics(int(traced)), lines.append)
    return summary, lines


@contextmanager
def tampered_runs(tamper):
    """Route every ``ShardedScheduler.run`` result through ``tamper``
    (called with the result and the 1-based call number)."""
    from repro.serving import ShardedScheduler

    original = ShardedScheduler.run
    calls = [0]

    def run(self, *args, **kwargs):
        calls[0] += 1
        result = original(self, *args, **kwargs)
        tamper(result, calls[0])
        return result

    ShardedScheduler.run = run
    try:
        yield
    finally:
        ShardedScheduler.run = original


def check_reports_every_metric() -> None:
    from perfbench.workloads import SPECS

    for name in SPECS:
        for traced in (False, True):
            summary, lines = tiny_run(name, traced)
            label = f"{name} trace={int(traced)}"
            assert set(summary) == CONTRACT_KEYS, (label, sorted(summary))
            assert summary["correct"] is True, (label, lines)
            assert summary["attempted"] >= 1 and summary["failed"] == 0, (label, summary)
            json.dumps(summary)  # the result line must serialise
            units = declared_metrics(int(traced))
            assert set(summary["metrics"]) == set(units), label
            for metric, unit in units.items():
                reported = summary["metrics"][metric]
                assert reported["unit"] == unit, (label, metric, reported)
                assert isinstance(reported["value"], (int, float)), (label, metric)
                assert any(
                    line.startswith(f"{metric} = ") and line.split("  (")[0].endswith(f" {unit}")
                    for line in lines
                ), (label, metric, "not printed with its unit")
            assert any(line.startswith("python=") for line in lines), label
            assert any(f"seed={SPECS[name].default_seed}" in line for line in lines), label
            print(f"ok: {label} reports {len(units)} metrics")


def check_other_seed_passes() -> None:
    for name in ("light_clustered", "churn_cold"):
        summary, lines = tiny_run(name, False, seed=99)
        assert summary["correct"] is True, (name, lines)
        assert any("seed=99" in line for line in lines), name
    print("ok: non-default seeds pass every check")


def check_dropped_request_fails() -> None:
    def drop_one(result, call):
        del call
        result.served.pop()

    with tampered_runs(drop_one):
        summary, lines = tiny_run("light_clustered", False)
    assert summary["correct"] is False, "a dropped served request passed the checks"
    assert summary["metrics"] == {}
    assert any("CHECK FAILED" in line and "requests" in line for line in lines), lines
    print("ok: a dropped served request fails the ledger check")


def check_changed_pass_fails() -> None:
    def nudge_third(result, call):
        if call == 3:
            result.energy_j += 1.0

    with tampered_runs(nudge_third):
        summary, lines = tiny_run("churn_cold", False)
    assert summary["correct"] is False, "a pass with another result passed the checks"
    assert any("CHECK FAILED" in line and "fingerprints differ" in line for line in lines), lines
    print("ok: a pass whose result differs fails the fingerprint check")


def main() -> int:
    import_package()
    check_reports_every_metric()
    check_other_seed_passes()
    check_dropped_request_fails()
    check_changed_pass_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
