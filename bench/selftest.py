"""Fast self-test of the benchmark harness, so it cannot rot unnoticed.

    python3 bench/selftest.py

It checks the tracer on a toy package, then runs every workload for two
jobs, untraced once and traced twice with the same seed, and checks that
the jobs pass their output checks, that traced stdout is byte-identical to
untraced stdout, that the traced counts repeat exactly, and that the result
lines carry exactly the metrics BENCHMARK.json names.  It is a script, not
part of the test suite, because it launches several interpreters and takes
about half a minute.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import sys
import types

import run
import tracer as tracing
from workloads import WORKLOADS

TOY_INNER = '''
def leaf(x):
    return x + 1

def helper(x):
    return leaf(x) * 2

class Box:
    def contains(self, x):
        return x > 0
'''

TOY_OUTER = '''
from toypkg.inner import leaf, helper

def top(x):
    return helper(x) + leaf(x)
'''


def _toy_package() -> tuple[types.ModuleType, types.ModuleType]:
    package = types.ModuleType("toypkg")
    package.__path__ = []
    sys.modules["toypkg"] = package
    modules = []
    for name, source in (("inner", TOY_INNER), ("outer", TOY_OUTER)):
        module = types.ModuleType(f"toypkg.{name}")
        sys.modules[module.__name__] = module
        setattr(package, name, module)
        exec(compile(source, module.__name__, "exec"), module.__dict__)
        modules.append(module)
    return modules[0], modules[1]


def check_tracer() -> None:
    inner, outer = _toy_package()
    original_leaf = inner.leaf
    t = tracing.Tracer()
    t.patch_function("toypkg", "inner", "leaf", "inner", counter="leaf")
    t.patch_function("toypkg", "inner", "helper", "inner")
    t.patch_function("toypkg", "outer", "top", "outer", timer="top",
                     amount=("returned", lambda value: value))
    t.patch_function("toypkg", "inner", "missing", "inner")
    t.patch_method(inner.Box, "contains", "inner", counter="contains",
                   amount=("gone", lambda result: result.missing_field))
    assert inner.leaf is not original_leaf and outer.leaf is inner.leaf, "leaf not rebound everywhere"

    assert outer.top(1) == 6, "tracing changed a result"
    assert t.counts["leaf"] == 2, t.counts  # once inside helper, once from top
    assert t.counts["returned"] == 6, t.counts
    assert t.spans[("outer", tracing.ROOT)][0] == 1
    # helper and the direct leaf call enter inner from outer; the leaf call
    # inside helper stays within the layer and opens no span.
    assert t.spans[("inner", "outer")][0] == 2, dict(t.spans)
    root_total = t.spans[("outer", tracing.ROOT)][1]
    self_sum = sum(s for _, _, s in t.spans.values())
    assert all(s >= 0 for _, _, s in t.spans.values())
    assert abs(self_sum - root_total) <= 1e-9, (self_sum, root_total)
    assert 0 < t.timers["top"] <= root_total + 1e-9
    assert inner.Box().contains(2) is True and t.counts["contains"] == 1
    assert t.absent == ["inner.missing", "gone"], t.absent
    snap = t.snapshot()
    assert snap["count:leaf"] == 2 and "self:inner" in snap and "timer:top" in snap

    t.uninstall()
    assert inner.leaf is original_leaf and outer.leaf is original_leaf, "uninstall did not restore"
    for name in ("toypkg", "toypkg.inner", "toypkg.outer"):
        del sys.modules[name]
    print("tracer on toy package: ok")


def _benchmark_names() -> tuple[set, set]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def _result_metrics(res: dict) -> dict:
    line = json.loads(run.result_line(res))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0, res["problems"]
    assert line["attempted"] >= 1
    return line["metrics"]


def check_workloads(seed: int = 7) -> None:
    end_to_end, per_layer = _benchmark_names()
    for name in WORKLOADS:
        plain = run.run_workload(name, seed, 0.0, trace=False, launches=1, min_jobs=2)
        assert set(_result_metrics(plain)) == end_to_end
        counts = []
        for _ in range(2):
            traced = run.run_workload(name, seed, 0.0, trace=True, launches=1, trace_jobs=2)
            metrics = _result_metrics(traced)
            assert set(metrics) == per_layer, set(metrics) ^ per_layer
            assert traced["trace_run"]["stdout_mismatches"] == 0
            assert traced["trace_run"]["jobs_compared"] >= 2
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] != "s"})
        assert counts[0] == counts[1], f"{name}: traced counts differ between runs"
        print(f"{name}: {plain['jobs']} untraced and 2x{traced['trace_run']['jobs_compared']} "
              f"traced jobs ok")


def main() -> int:
    check_tracer()
    check_workloads()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
