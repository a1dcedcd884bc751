"""Self-tests of the benchmark itself (about 20 s).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

They check BENCHMARK.json against the benchmark contract, that a
corrupted raw.csv fails the output check and is counted as failed, that
tracing restores every wrapped attribute and leaves outputs unchanged,
that the traced layers account for sim-ball4's traced run_s, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from spans import MARK, TARGETS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
SCRATCH = HERE / "out" / "selftest"


def _fresh_scratch() -> Path:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    return SCRATCH


def test_benchmark_json_follows_the_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    names = []
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_corrupted_raw_csv_fails_and_counts():
    sim = WORKLOADS["sim-ball4"]
    config = sim.build(DEFAULT_SEED)
    record_dir = sim.call(config, _fresh_scratch())
    good = sim.check(config, record_dir, DEFAULT_SEED)
    assert good.failed == 0 and not good.problems

    def corrupting_call(inputs, scratch):
        out = sim.call(inputs, scratch)
        raw = out / "raw.csv"
        lines = raw.read_text().split("\n")
        cells = lines[-2].split(",")
        cells[2] = str(int(cells[2]) + 1)      # one vertex too many: breaks Euler
        lines[-2] = ",".join(cells)
        raw.write_text("\n".join(lines))
        return out

    broken = dataclasses.replace(sim, call=corrupting_call)
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):   # digest check, then invariants only
        calls = run._run_calls(broken, broken.build(seed), seed, 0.0, _fresh_scratch(), None)
        failed = sum(c["failed"] for c in calls)
        attempted = sum(c["attempted"] for c in calls)
        assert failed >= 2 and attempted == len(config.n_grid) + 1, (failed, attempted)


def test_trace_restores_attributes_and_accounts_for_sim_ball4():
    import blockbeta.cli as cli
    import blockbeta.hull as hull
    import scipy.integrate

    originals = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _, _ in TARGETS}
    quad = scipy.integrate.quad
    sim = WORKLOADS["sim-ball4"]
    tracer = Tracer()
    calls = run._run_calls(sim, sim.build(DEFAULT_SEED), DEFAULT_SEED, 0.0, _fresh_scratch(),
                           tracer)
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn and not getattr(fn, MARK, False)
    assert cli.convex_hull is hull.convex_hull and scipy.integrate.quad is quad

    assert [c["traced"] for c in calls] == [False, True]
    assert all(c["failed"] == 0 for c in calls)
    assert calls[0]["digest"] == calls[1]["digest"]
    layers, traced_s = calls[1]["layers"], calls[1]["s"]
    covered = sum(layers[k] for k in (
        "sampler.sample_block_beta.busy_s", "hull.convex_hull.busy_s", "hull.f_vector.busy_s",
        "hull.volume.busy_s", "cli.simulate.self_s"))
    assert abs(covered - traced_s) <= 0.02 * traced_s, (covered, traced_s)
    assert layers["hull.convex_hull.calls"] == layers["hull.f_vector.calls"] == 12
    assert layers["sampler.points"] == layers["hull.convex_hull.points_in"] == sum(cli.default_n_grid())
    assert 0 < layers["hull.qhull_ref_s"] < layers["hull.convex_hull.busy_s"]


def test_refuses_to_run_without_the_program():
    bare = _fresh_scratch() / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ball4", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:       # report every test, then fail the run
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.exit(1 if failures else 0)
