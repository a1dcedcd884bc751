"""blockbeta benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sim-ball4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run from the root of a source checkout; the program is imported from
its src/ directory.  With --trace 0 the run measures setup_s (fresh
interpreters that import blockbeta.cli and build the inputs), run_s
(median time of the workload's call, repeated for --seconds) and
peak_rss_mb; with --trace 1 it alternates untraced and traced calls and
reports the per-layer metrics of BENCHMARK.json.  Both times are wall
times rescaled to a fixed host speed (see host_probe).  Every call's
output is checked.  The last line of standard output is one JSON object;
a record with every raw value goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_REPS = 12
# host_probe()'s time on the reference host (2-vCPU Xeon VM at 2.1 GHz) when
# nothing slows it; timed values are rescaled to that speed.
PROBE_REF_S = 0.011
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


def _require_checkout() -> None:
    """Import the program from this checkout's src/, or stop with exit code 2."""
    if not (ROOT / "src" / "blockbeta" / "__init__.py").is_file():
        print(f"error: no src/blockbeta under {ROOT}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@functools.cache
def _probe_data():
    import numpy as np

    return np.random.default_rng(0).standard_normal(200_000)


def host_probe() -> float:
    """Seconds of a fixed kernel of interpreted and numpy work: the median of PROBE_REPS.

    The shared host changes speed by up to 1.5x, at times for minutes, at
    times flipping within tenths of a second, and no run of --seconds can
    average that out.  Timing this kernel, which is the benchmark's own
    code, next to each timed interval gives the host's speed at that
    moment; a time t is reported as t * PROBE_REF_S / probe.  The median of
    the repetitions follows the average speed an interval sees; their
    fastest would follow only the host's best moments.
    """
    import numpy as np

    data = _probe_data()
    reps = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(3):
            np.sort(data)
            float((data * data).sum())
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def host_scaled(seconds: float, probes: list[float]) -> float:
    """A wall time rescaled to the reference host speed, from the probes around it."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)


def _setup_times(workload: str, seed: int) -> list[dict]:
    """Fresh interpreters that import blockbeta.cli and build the inputs: wall and probes."""
    times = []
    for _ in range(SETUP_PROBES):
        before = host_probe()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - t0
        probes = [before, host_probe()]
        times.append({"s": wall, "probe_s": probes, "scaled_s": host_scaled(wall, probes)})
    return times


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        env["git_commit"] = res.stdout.strip() or None
    return env


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded (None if unknown)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _run_calls(wl, inputs, seed: int, seconds: float, scratch: Path, tracer):
    """Call the workload until --seconds have passed; alternate traced calls if tracing.

    Each call is timed by wall clock ("s") and rescaled by the host probes
    taken just before and just after it ("scaled_s").
    """
    calls = []
    digests = set()
    deadline = time.perf_counter() + seconds
    traced = False
    probe = host_probe()
    while True:
        record = {"traced": traced, "s": None, "scaled_s": None, "probe_s": [probe],
                  "attempted": 0, "failed": 0, "problems": []}
        try:
            if traced:
                tracer.begin_call()
                with tracer.install():
                    t0 = time.perf_counter()
                    output = wl.call(inputs, scratch)
                    record["s"] = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                output = wl.call(inputs, scratch)
                record["s"] = time.perf_counter() - t0
            outcome = wl.check(inputs, output, seed)
        except Exception:               # a crash is a failed call, reported below
            record["problems"].append(traceback.format_exc())
            record["attempted"] = record["failed"] = 1
        else:
            digests.add(outcome.digest)
            if len(digests) > 1:
                outcome.problems.append("output differs from an earlier call of this run")
                outcome.failed += 1
            record.update(attempted=outcome.attempted, failed=outcome.failed,
                          problems=outcome.problems, digest=outcome.digest)
            if traced:
                layer = tracer.call_metrics()
                layer.update(outcome.facts)
                layer["hull.qhull_ref_s"] = tracer.qhull_reference()
                record["layers"] = layer
        probe = host_probe()
        record["probe_s"].append(probe)
        if record["s"] is not None:
            record["scaled_s"] = host_scaled(record["s"], record["probe_s"])
        calls.append(record)
        for problem in record["problems"]:
            print(f"{wl.name}: {problem}", file=sys.stderr)
        # stop once the deadline has passed, so that even verify-all's calls
        # of about 10 s give a median of at least three per 30 s run
        done = time.perf_counter() >= deadline
        if done and (tracer is None or any(c["traced"] for c in calls)):
            return calls
        if tracer is not None:
            traced = not traced


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _require_checkout()
    from workloads import WORKLOADS
    from spans import Tracer

    wl = WORKLOADS[workload]
    setup = [] if trace else _setup_times(workload, seed)
    inputs = wl.build(seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{workload}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        calls = _run_calls(wl, inputs, seed, seconds, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    untraced = [c["scaled_s"] for c in calls if not c["traced"] and c["s"] is not None]
    if not untraced:
        print(f"error: every call of {workload} crashed", file=sys.stderr)
        return 1
    q1, run_s, q3 = _quartiles(untraced)
    if trace:
        metrics_spec = SPEC["per_layer"]
        traced = [c for c in calls if "layers" in c]
        names = [m["name"] for m in metrics_spec]
        values = {n: float(statistics.median(c["layers"].get(n, 0) for c in traced))
                  for n in names if not n.startswith("trace.")}
        trace_s = statistics.median(c["scaled_s"] for c in traced)
        values.update({"trace.run_s": trace_s, "trace.untraced_run_s": run_s,
                       "trace.overhead_s": trace_s - run_s,
                       "trace.spans": float(statistics.median(c["layers"]["trace.spans"]
                                                              for c in traced))})
    else:
        metrics_spec = SPEC["end_to_end"]
        values = {"setup_s": statistics.median(p["scaled_s"] for p in setup), "run_s": run_s,
                  "peak_rss_mb": rss_mib}
    units = {m["name"]: m["unit"] for m in metrics_spec}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")

    for name, unit in units.items():
        print(f"{workload:<13} {name:<40} {values[name]:.6g} {unit}")
    print(f"{workload:<13} {'run_s quartiles':<40} q1 {q1:.6g} median {run_s:.6g} q3 {q3:.6g} s"
          f" over {len(untraced)} untraced calls")
    wall = [c["s"] for c in calls if not c["traced"] and c["s"] is not None]
    print(f"{workload:<13} {'run wall time, not rescaled':<40} median {statistics.median(wall):.6g} s,"
          f" host probe median {statistics.median(p for c in calls for p in c['probe_s']):.6g} s"
          f" (reference {PROBE_REF_S} s)")
    print(f"{workload:<13} {'failed_frac':<40} {failed / max(attempted, 1):.6g} "
          f"({failed}/{attempted} operations)")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(), "probe_ref_s": PROBE_REF_S, "setup_s_probes": setup,
        "calls": calls, "metrics": values, "attempted": attempted, "failed": failed,
    }
    if trace:
        record["spans"] = tracer.spans
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, so peak RSS is the workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs and exit (setup_s probe)")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs a single workload")
    if args.setup_only:
        _require_checkout()
        from workloads import WORKLOADS
        WORKLOADS[args.workload].build(args.seed)
        return 0
    if args.workload == "all":
        _require_checkout()
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
