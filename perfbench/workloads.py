"""The benchmark's workloads: inputs from a seed, the timed call, the output check.

Each workload builds the program's inputs from the benchmark seed, makes
one call into the program (the timed part), and checks that call's
output.  The check returns a digest, so that repeated calls in one run
can be compared, and counts the operations attempted and failed.

sim-ball4 takes its root seed from the benchmark seed.  verify-all
and reduction-m3 are batteries of hypothesis tests: at a fresh seed about
one verify-all run in six fails some check by design (each KS check has a
1% false-alarm rate), so they run at fixed referee seeds and their report
digests pin every printed number instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import blockbeta.cli as cli
import blockbeta.hull as hull
import blockbeta.metacube as metacube
from blockbeta.core import BetaParams, BlockStructure
from blockbeta.sampler import RngStream

DEFAULT_SEED = 0
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

REDUCTION_TRIALS = 3
REDUCTION_SAMPLES = 10 ** 6
REDUCTION_STREAM = (404, 7)     # PRIMARY-04's stream for (1,1,1), beta = 1/2


@dataclass
class Outcome:
    """What one call produced, judged."""

    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)   # per-call counts for the trace


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]                  # seed -> program inputs
    call: Callable[[object, Path], object]          # the timed call
    check: Callable[[object, object, int], Outcome]  # (inputs, output, seed)


# ------------------------------------------------------------------ simulate


def _sim_build(dims: tuple[int, ...], n_grid: tuple[int, ...]):
    def build(seed: int) -> cli.ExperimentConfig:
        return cli.ExperimentConfig.from_dict({
            "name": "bench",
            "block_dims": list(dims),
            "betas": [0] * len(dims),
            "n_grid": list(n_grid),
            "reps": 1,
            "root_seed": seed,
            "observables": ["f_vector", "volume_deficit"],
        })
    return build


def _sim_call(config, scratch: Path) -> Path:
    return cli.simulate(config, scratch)


def check_raw_csv(name: str, config, raw: bytes, seed: int) -> Outcome:
    """Judge one raw.csv: digest at the default seed, invariants on every row."""
    d = sum(config.block_dims)
    expected_rows = {(n, rep) for n in config.n_grid for rep in range(config.reps)}
    out = Outcome(digest=hashlib.sha256(raw).hexdigest(), attempted=len(expected_rows) + 1,
                  failed=0)
    bad_rows = 0
    retries = 0
    seen = set()
    try:
        lines = raw.decode().strip().split("\n")
        header = lines[0].split(",")
        want = ["n", "rep"] + [f"f_{j}" for j in range(d)] + ["volume_deficit", "seed_stream"]
        if header != want:
            raise ValueError(f"header {header}")
        for line in lines[1:]:
            cells = line.split(",")
            key = (int(cells[0]), int(cells[1]))
            fv = tuple(int(c) for c in cells[2:2 + d])
            deficit = float(cells[2 + d])
            stream = int(cells[3 + d])
            seen.add(key)
            retried = stream >= cli.RETRY_STRIDE
            retries += retried
            if (retried or not hull.euler_relation_holds(fv)
                    or not hull.lower_face_bounds_hold(fv) or not 0.0 < deficit < 1.0):
                bad_rows += 1
                out.problems.append(f"row {line!r} fails the invariants or was retried")
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        out.problems.append(f"raw.csv does not parse: {exc}")
        out.failed = out.attempted
        return out
    missing = len(expected_rows - seen)
    if missing or len(lines) - 1 != len(expected_rows):
        out.problems.append(f"raw.csv has {len(lines) - 1} rows, {missing} expected rows missing")
    out.failed = bad_rows + missing
    if seed == DEFAULT_SEED and out.digest != EXPECTED[name]:
        out.problems.append(f"raw.csv sha256 {out.digest} != recorded {EXPECTED[name]}")
    if out.problems:
        out.failed += 1                 # the output check itself
    out.facts = {"hull.retries": retries, "cli.raw_csv_bytes": len(raw)}
    return out


def _sim_check(name: str):
    def check(config, record_dir: Path, seed: int) -> Outcome:
        return check_raw_csv(name, config, (record_dir / "raw.csv").read_bytes(), seed)
    return check


# ------------------------------------------------------------------ referees


def check_report_text(name: str, text: str, ok: bool) -> Outcome:
    """Judge printed verification reports: every check passes, digest matches."""
    verdicts = [ln.rsplit(" ", 1)[-1] for ln in text.splitlines()
                if ln and not ln.startswith(("==", "--"))]
    out = Outcome(digest=hashlib.sha256(text.encode()).hexdigest(),
                  attempted=len(verdicts) + 1, failed=verdicts.count("FAIL"))
    if out.failed:
        out.problems.append(f"{out.failed} verification checks failed")
    if not verdicts or any(v not in ("PASS", "FAIL") for v in verdicts):
        out.problems.append("report text has no or malformed check lines")
    if not ok:
        out.problems.append("the suite did not pass")
    if out.digest != EXPECTED[name]:
        out.problems.append(f"report sha256 {out.digest} != recorded {EXPECTED[name]}")
    if out.problems:
        out.failed += 1
    return out


def _verify_call(argv, scratch: Path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _verify_check(argv, output, seed: int) -> Outcome:
    rc, text = output
    return check_report_text("verify-all", text, rc == 0)


def _reduction_build(seed: int):
    return (BlockStructure((1, 1, 1)), BetaParams((0.5, 0.5, 0.5)))


def _reduction_call(inputs, scratch: Path):
    bs, bp = inputs
    return metacube.verify_reduction(
        bs, bp, trials=REDUCTION_TRIALS, n_samples=REDUCTION_SAMPLES,
        rng=RngStream(*REDUCTION_STREAM),
    )


def _reduction_check(inputs, report, seed: int) -> Outcome:
    return check_report_text("reduction-m3", str(report), report.passed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sim-ball4",
        _sim_build((4,), cli.default_n_grid()), _sim_call, _sim_check("sim-ball4"),
    ),
    Workload(
        "verify-all",
        lambda seed: ("verify", "--suite", "all"), _verify_call, _verify_check,
    ),
    Workload(
        "reduction-m3",
        _reduction_build, _reduction_call, _reduction_check,
    ),
)}
