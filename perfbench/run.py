"""Time-to-accuracy benchmark for lowrank_ncvx: generate, spectral init and
solve to a fixed accuracy, with every result checked against the truth.

    python3 perfbench/run.py --workload pr_trunc --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.  One
run is one process working in a closed loop, one solve at a time, with BLAS
pinned to one thread.  After an untimed warm-up pass at a small size, it
repeats passes over the seed's fixed set of instances until the next pass
would overrun ``--seconds``.  Timings are medians over passes; iteration
counts, outcomes and checked errors must repeat bit for bit in every pass.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead.  The last line of standard output is the JSON result; the full
record, spans included, goes to perfbench/results/.  The exit code is 0 only
if every check passed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported anywhere

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# The keys of workloads.WORKLOADS, known before the library is imported.
WORKLOAD_NAMES = ("pr_trunc", "mc_large", "bd_deconv")

END_TO_END = {
    "setup_s": "s", "init_s": "s", "solve_s": "s", "pipeline_s": "s",
    "iters": "count", "solved_frac": "fraction", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "problems.gen.self_s": "s",
    "problems.loss_and_grad.calls": "count",
    "problems.loss_and_grad.self_s": "s",
    "problems.loss_and_grad.ms_per_call": "ms",
    "problems.loss_and_grad.bytes_in_computed": "B",
    "spectral.surrogate.self_s": "s",
    "spectral.factor.self_s": "s",
    "gd.mask.calls": "count",
    "gd.mask.self_s": "s",
    "gd.dist_to_truth.self_s": "s",
    "gd.incoherence_proxy.self_s": "s",
    "gd.driver.self_s": "s",
    "core.dist_bd.calls": "count",
    "core.dist_bd.self_s": "s",
    "core.dist_bd.ms_per_call": "ms",
    "core.dist_factors.self_s": "s",
    "core.dist_vector.self_s": "s",
    "direct.altmin_mc.self_s": "s",
    "trace.share": "fraction",
    "trace.overhead_frac": "fraction",
}

# Spans whose work only feeds the trace rows, not the iterate or a stop rule.
TRACE_ONLY = ("gd.dist_to_truth", "gd.incoherence_proxy")


def import_library():
    """Import lowrank_ncvx from this checkout's src/, and nothing else."""
    if not (SRC / "lowrank_ncvx" / "__init__.py").is_file():
        sys.exit(f"no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lowrank_ncvx
    if not Path(lowrank_ncvx.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported lowrank_ncvx from {lowrank_ncvx.__file__}, not {SRC}")
    return lowrank_ncvx


def blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(package, seeds):
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "package_version": package.__version__,
        "instance_seeds": seeds,
    }


# ---------------------------------------------------------------------------
# One pass over a workload's cases
# ---------------------------------------------------------------------------

def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _kernel_time(kernel):
    """Median of three runs of the calibration kernel, in seconds."""
    return statistics.median(_timed(kernel)[1] for _ in range(3))


def run_pass(workload, cases, kernel, tracer=None, check=True):
    """Generate, initialise and solve every case; returns the pass record.

    The calibration kernel is timed at the start, after every case and after
    every call longer than a second.  Each call's time is rescaled by
    cal_ref_s over the mean of the kernel times at the calibration points
    just before and just after it.  Sums of the rescaled times are the pass's
    metrics; the raw sums are kept under "raw".
    """
    from workloads import ERR_BOUND
    rec = {"setup_s": 0.0, "init_s": 0.0, "solve_s": 0.0, "solves": [],
           "raw": {"setup_s": 0.0, "init_s": 0.0, "solve_s": 0.0}}
    cal_before = _kernel_time(kernel)
    pending = []

    def calibrate():
        nonlocal cal_before
        cal_after = _kernel_time(kernel)
        scale = workload.cal_ref_s / (0.5 * (cal_before + cal_after))
        for metric, dt in pending:
            rec[metric] += dt * scale
            rec["raw"][metric] += dt
        pending.clear()
        cal_before = cal_after

    def timed(metric, span, fn, *args):
        if tracer is None:
            out, dt = _timed(fn, *args)
        else:
            with tracer.span(span):
                out, dt = _timed(fn, *args)
        pending.append((metric, dt))
        if dt > 1.0:
            calibrate()
        return out

    for case in cases:
        inst = timed("setup_s", "bench.gen", case.gen)
        est = timed("init_s", "bench.init", case.init, inst)
        results = [(solve, timed("solve_s", "bench.solve", solve.run, est))
                   for solve in case.solves(inst)]
        if pending:
            calibrate()
        if not check:
            continue
        for solve, res in results:
            trace, err = solve.check(res)
            err = float(err)
            rec["solves"].append({
                "case": case.label, "solver": solve.name, "outcome": trace.outcome,
                "iters": trace.iters[-1], "err": err.hex(),
                "ok": trace.outcome == "converged" and err <= ERR_BOUND,
            })
    for r in (rec, rec["raw"]):
        r["pipeline_s"] = r["setup_s"] + r["init_s"] + r["solve_s"]
    return rec


# ---------------------------------------------------------------------------
# Per-layer statistics of one traced pass
# ---------------------------------------------------------------------------

def layer_stats(tracer, scale):
    """Per-layer metrics of one traced pass, plus the span-accounting check:
    within every solve, the self times of its spans sum to its duration.
    Times are multiplied by `scale`, the pass's calibration rescaling."""
    from tracer import LAYERS, self_times, subtree_self_sum
    spans = tracer.spans
    own = self_times(spans)
    calls = {layer: 0 for layer in LAYERS}
    self_ns = {layer: 0 for layer in LAYERS}
    for (name, *_), t in zip(spans, own):
        if name in calls:
            calls[name] += 1
            self_ns[name] += t
    out = {}
    for layer in LAYERS:
        n, s = calls[layer], scale * self_ns[layer] / 1e9
        out[f"{layer}.calls"] = n
        out[f"{layer}.self_s"] = s
        out[f"{layer}.ms_per_call"] = 1e3 * s / n if n else 0.0
    lag = "problems.loss_and_grad"
    n_lag = calls[lag]
    out[f"{lag}.bytes_in_computed"] = tracer.bytes_in.get(lag, 0) / n_lag if n_lag else 0.0

    roots = [i for i, sp in enumerate(spans) if sp[0] == "bench.solve"]
    solve_ns = sum(spans[i][2] - spans[i][1] for i in roots)
    balanced = all(subtree_self_sum(spans, own, i) == spans[i][2] - spans[i][1]
                   for i in roots)
    # AltMin evaluates the loss twice per round; the first evaluation (the
    # half-step loss) only feeds the trace's half_loss column.
    trace_only_ns = sum(end - start for name, start, end, _ in spans if name in TRACE_ONLY)
    seen = {}
    for name, start, end, parent in spans:
        if name == lag and parent >= 0 and spans[parent][0] == "direct.altmin_mc":
            k = seen[parent] = seen.get(parent, -1) + 1
            if k % 2 == 0:
                trace_only_ns += end - start
    out["trace.share"] = trace_only_ns / solve_ns if solve_ns else 0.0
    return out, balanced


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def fingerprint(rec):
    return json.dumps(rec["solves"], sort_keys=True)


def non_timing_sha256(passes):
    """Digest of the fields that must repeat bit for bit across same-seed runs:
    every solve's iterations, outcome and checked error, plus the traced
    passes' span call and byte counts."""
    fields = {"solves": passes[0]["solves"],
              "counts": next((p["counts"] for p in passes if p["kind"] == "traced"), None)}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def measure(workload, seed, seconds, trace):
    """Warm up, then run passes until the next one would overrun `seconds`."""
    from tracer import Tracer
    kernel = workload.kernel()
    run_pass(workload, workload.warm_cases(), kernel, check=False)
    cases = workload.cases(seed)
    kinds = ("plain", "traced") if trace else ("plain",)
    passes, last = [], {}
    start = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        if kind in last and time.perf_counter() - start + last[kind] > seconds:
            break
        t0 = time.perf_counter()
        if kind == "traced":
            with Tracer() as tracer:
                rec = run_pass(workload, cases, kernel, tracer)
            scale = rec["pipeline_s"] / rec["raw"]["pipeline_s"]
            rec["layers"], rec["balanced"] = layer_stats(tracer, scale)
            rec["counts"] = {k: v for k, v in rec["layers"].items()
                             if k.endswith((".calls", ".bytes_in_computed"))}
            rec["bindings"] = tracer.bindings
            rec["spans"] = tracer.spans
        else:
            rec = run_pass(workload, cases, kernel)
        rec["kind"] = kind
        last[kind] = time.perf_counter() - t0
        passes.append(rec)
    return passes


def summarize(passes, trace):
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    first = passes[0]
    problems = []
    if any(fingerprint(p) != fingerprint(first) for p in passes):
        problems.append("iterations, outcomes or checked errors differ between passes")
    bad = [s for s in first["solves"] if not s["ok"]]
    if bad:
        problems.append(f"{len(bad)} solve(s) missed the accuracy check: {bad}")
    if traced:
        if not all(p["balanced"] for p in traced):
            problems.append("span self times do not add up to a solve's duration")
        if any(p["counts"] != traced[0]["counts"] for p in traced):
            problems.append("span call or byte counts differ between traced passes")

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in PER_LAYER if k != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = med(traced, "solve_s") / med(plain, "solve_s") - 1.0
        units = PER_LAYER
    else:
        n_ok = sum(s["ok"] for s in first["solves"])
        metrics = {k: med(plain, k) for k in ("setup_s", "init_s", "solve_s", "pipeline_s")}
        metrics["iters"] = sum(s["iters"] for s in first["solves"])
        metrics["solved_frac"] = n_ok / len(first["solves"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    attempted = sum(len(p["solves"]) for p in passes)
    failed = sum(not s["ok"] for p in passes for s in p["solves"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment(package, workload.instance_seeds(args.seed))

    passes = measure(workload, args.seed, args.seconds, bool(args.trace))
    result, problems = summarize(passes, bool(args.trace))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": workload.size, "environment": env,
              "problems": problems, "result": result,
              "non_timing_sha256": non_timing_sha256(passes),
              "passes": passes}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))

    print(json.dumps(env))
    n_plain = sum(p["kind"] == "plain" for p in passes)
    print(f"{args.workload} seed {args.seed}: {n_plain} untraced and "
          f"{len(passes) - n_plain} traced passes; record in {out.relative_to(HERE.parent)}")
    print(f"non-timing fields sha256 {record['non_timing_sha256']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
