"""The benchmark's calls into the library, at its warm-up sizes: every
workload's cases generate, initialize, run every solve and check the result.
A renamed config field or public function fails here before it fails a
benchmark run.  The workload module is loaded without writing bytecode, so
nothing is written under perfbench/."""

import importlib.util
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_workload_runs_its_warm_cases():
    before = sorted(PERFBENCH.rglob("*"))
    workloads = _load_workloads()
    assert set(workloads.WORKLOADS) == {"pr_trunc", "mc_large", "bd_deconv"}
    for workload in workloads.WORKLOADS.values():
        for case in workload.warm_cases():
            inst = case.gen()
            est = case.init(inst)
            for solve in case.solves(inst):
                trace, err = solve.check(solve.run(est))
                assert len(trace) >= 1 and math.isfinite(err), (case.label, solve.name)
    assert sorted(PERFBENCH.rglob("*")) == before
