"""Command-line laboratory.

Subcommands:
  simulate  sample point clouds, build hulls, record face counts
  fit       estimate growth exponents from a recorded run
  verify    run the numeric cross-check suites
  predict   print the predicted growth law for a container
  plot      emit a gnuplot script for recorded runs

A run is configured by a single JSON document and writes a record
directory containing raw.csv (one row per hull) plus record.json
(config, hash, aggregates, retried rows per n).  Every replication
goes through replicate, which draws from the named random stream
(root_seed, stream index), so output is byte-identical for any worker
count.
verify runs the suites of the SUITES registry on VERIFY_WORKERS threads
and prints their reports in registry order; each suite draws from its
own random stream, so the output does not depend on the schedule.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import InsufficientSpan, efron_check, fit_rate, verify_aw
from .core import BetaParams, BlockStructure, predict_rate, volume_deficit_rate
from .hull import DegenerateInput, convex_hull, f_vector, verify_hull, volume
from .metacube import (
    verify_blaschke_petkantschin_2d,
    verify_bounds,
    verify_polyspherical,
    verify_reduction,
)
from .sampler import RngStream, container_volume, sample_block_beta, verify_sampler

DEFAULT_BUDGET = 1e9          # sum over the grid of n * reps * d!
RETRY_STRIDE = 2 ** 40        # substream offset when a degenerate draw retries
MAX_RETRIES = 5
# The sampler suite is the critical path of "verify --suite all"; its numpy
# draws, sorts and betainc release the GIL, so one more thread runs the
# other suites beside it.  A third would hold a third suite's Monte Carlo
# arrays at once and gain no speed.
VERIFY_WORKERS = 2

CONFIG_KEYS = {
    "name", "block_dims", "betas", "n_grid", "reps", "root_seed", "observables",
}
OBSERVABLES = {"f_vector", "volume_deficit"}


class ConfigError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


def default_n_grid() -> tuple[int, ...]:
    """12 points from 100 to 10^5, evenly spaced in log n."""
    grid = np.unique(np.round(np.geomspace(100, 100_000, 12)).astype(int))
    return tuple(int(x) for x in grid)


def _parse_beta(x):
    if isinstance(x, bool):
        raise ConfigError(f"invalid beta weight {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse beta weight {x!r}") from exc
    raise ConfigError(f"invalid beta weight {x!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    block_dims: tuple[int, ...]
    betas: tuple
    n_grid: tuple[int, ...]
    reps: int
    root_seed: int
    observables: tuple[str, ...]
    name: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "block_dims" not in raw:
            raise ConfigError("config needs block_dims")
        # the conversions below raise TypeError or ValueError on input of
        # the wrong type or shape; either is a usage error
        try:
            dims = tuple(int(d) for d in raw["block_dims"])
            betas = tuple(_parse_beta(b) for b in raw.get("betas", [0] * len(dims)))
            bs = BlockStructure(dims)
            bp = BetaParams(betas)
            n_grid = tuple(int(n) for n in raw.get("n_grid", default_n_grid()))
            reps = int(raw.get("reps", 10))
            root_seed = int(raw.get("root_seed", 0))
            observables = tuple(raw.get("observables", ["f_vector"]))
            bad = set(observables) - OBSERVABLES
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if bs.m != len(bp.betas):
            raise ConfigError(f"{bs.m} blocks but {len(bp.betas)} beta weights")
        if len(n_grid) == 0 or any(n < bs.dim + 1 for n in n_grid):
            raise ConfigError(f"every n must be >= d+1 = {bs.dim + 1}")
        if reps < 1:
            raise ConfigError("reps must be >= 1")
        if not (0 <= root_seed < 2 ** 64):
            raise ConfigError("root_seed must fit in u64")
        if bad or not observables:
            raise ConfigError(f"observables must be a nonempty subset of {sorted(OBSERVABLES)}")
        cfg = cls(
            block_dims=dims, betas=betas, n_grid=n_grid, reps=reps,
            root_seed=root_seed, observables=tuple(sorted(set(observables))),
            name=str(raw.get("name", "")),
        )
        if not cfg.name:
            cfg = dataclasses.replace(cfg, name="run-" + cfg.config_hash()[:12])
        return cfg

    def structure(self) -> BlockStructure:
        return BlockStructure(self.block_dims)

    def beta_params(self) -> BetaParams:
        return BetaParams(self.betas)

    def canonical(self) -> dict:
        def enc(b):
            if isinstance(b, Fraction):
                return f"{b.numerator}/{b.denominator}"
            return b

        return {
            "name": self.name,
            "block_dims": list(self.block_dims),
            "betas": [enc(b) for b in self.betas],
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "root_seed": self.root_seed,
            "observables": list(self.observables),
        }

    def config_hash(self) -> str:
        doc = self.canonical()
        doc.pop("name")
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def cost(self) -> float:
        return sum(self.n_grid) * self.reps * math.factorial(sum(self.block_dims))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def replicate(bs: BlockStructure, bp: BetaParams, n: int, root_seed: int,
              stream_index: int, want_volume: bool = False):
    """One replication: sample n points, hull them, measure.

    Returns (f_vector, volume deficit or None, stream index drawn from).
    A degenerate draw retries on stream_index + RETRY_STRIDE, up to
    MAX_RETRIES times; any other error propagates.
    """
    last_exc = None
    for attempt in range(MAX_RETRIES + 1):
        stream = stream_index + attempt * RETRY_STRIDE
        pts = sample_block_beta(bs, bp, RngStream(root_seed, stream), size=n)
        try:
            hull = convex_hull(pts)
        except DegenerateInput as exc:  # fresh substream
            last_exc = exc
            continue
        deficit = 1.0 - volume(hull) / container_volume(bs) if want_volume else None
        return f_vector(hull), deficit, stream
    raise RuntimeError(
        f"replication (n={n}, stream {stream_index}) failed after "
        f"{MAX_RETRIES + 1} attempts"
    ) from last_exc


def simulate(config: ExperimentConfig, out_dir, workers: int = 1,
             budget: float = DEFAULT_BUDGET) -> Path:
    """Run the configured experiment and write its record directory."""
    cost = config.cost()
    if cost > budget:
        raise BudgetExceeded(
            f"estimated cost {cost:.3g} exceeds budget {budget:.3g}; "
            "raise it explicitly to proceed"
        )
    bs = config.structure()
    want_volume = "volume_deficit" in config.observables
    # rows in (n, rep) order; row i_n * reps + rep draws from that stream index
    ns = [n for n in config.n_grid for _ in range(config.reps)]
    args = (repeat(bs), repeat(config.beta_params()), ns, repeat(config.root_seed),
            range(len(ns)), repeat(want_volume))

    t0 = time.monotonic()
    if workers <= 1:
        results = list(map(replicate, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replicate, *args, chunksize=8))
    wall = time.monotonic() - t0

    raw = np.array([
        [n, i % config.reps, *fv, math.nan if deficit is None else deficit, stream]
        for i, (n, (fv, deficit, stream)) in enumerate(zip(ns, results))
    ], dtype=float)
    record_dir = Path(out_dir) / config.name
    record_dir.mkdir(parents=True, exist_ok=True)

    header = ["n", "rep"] + [f"f_{j}" for j in range(bs.dim)] + ["volume_deficit", "seed_stream"]
    lines = [",".join(header)]
    # integer cells print as integers under %.17g; an absent deficit stays empty
    lines += [",".join("" if math.isnan(x) else _fmt(x) for x in row) for row in raw]
    (record_dir / "raw.csv").write_text("\n".join(lines) + "\n")

    retried = (raw[:, -1] >= RETRY_STRIDE).reshape(len(config.n_grid), config.reps)
    record = {
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "version": __version__,
        "wall_seconds": wall,
        "csv": "raw.csv",
        "aggregates": recompute_aggregates(config, raw),
        # rows per n drawn from a retry substream
        "retries": {"n": list(config.n_grid), "rows": [int(k) for k in retried.sum(axis=1)]},
    }
    (record_dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record_dir


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_record(record_dir) -> tuple[ExperimentConfig, np.ndarray]:
    """Read a record directory back: (config, raw rows)."""
    record_dir = Path(record_dir)
    record = _read_json(record_dir / "record.json")
    if not isinstance(record, dict) or "config" not in record:
        raise ConfigError(f"{record_dir / 'record.json'} is not an object with a config key")
    config = ExperimentConfig.from_dict(record["config"])
    raw = _read_csv(record_dir / record.get("csv", "raw.csv"))
    # recompute_aggregates reads the rows by position
    if len(raw) != len(config.n_grid) * config.reps:
        raise ConfigError(
            f"record {record_dir} has {len(raw)} data rows, its config asks for "
            f"{len(config.n_grid) * config.reps}"
        )
    return config, raw


def _read_csv(path) -> np.ndarray:
    text = Path(path).read_text().strip().split("\n")
    header = text[0].split(",")
    rows = []
    for lineno, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path} line {lineno}: {len(cells)} cells under "
                              f"{len(header)} columns")
        try:
            rows.append([float(c) if c else math.nan for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, len(header))
    return arr


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def recompute_aggregates(config: ExperimentConfig, raw: np.ndarray) -> dict:
    """Per-n mean and standard error of every observable column.

    raw holds the rows of raw.csv in (n, rep) order, as simulate writes
    them, with NaN for an absent volume deficit.
    """
    d = sum(config.block_dims)
    keys = [f"f_{j}" for j in range(d)]
    if "volume_deficit" in config.observables:
        keys.append("volume_deficit")
    out = {"n": list(config.n_grid)}
    for col, key in enumerate(keys, start=2):
        per_n = np.ascontiguousarray(raw[:, col]).reshape(len(config.n_grid), config.reps)
        pairs = [_mean_se(values) for values in per_n]
        out[key] = {"mean": [m for m, _ in pairs], "se": [s for _, s in pairs]}
    return out


# ---------------------------------------------------------------- commands


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.canonical(), "root_seed": args.seed})
    budget = args.budget_override if args.budget_override else DEFAULT_BUDGET
    record_dir = simulate(config, args.out, workers=args.workers, budget=budget)
    print(f"record written to {record_dir}")
    return 0


def _predicted_law(config: ExperimentConfig, observable: str) -> tuple[float, int]:
    """(exponent, log_power) of the growth law predicted for an observable."""
    bs, bp = config.structure(), config.beta_params()
    if observable == "volume_deficit":
        if any(float(b) != 0.0 for b in bp.as_floats()):
            raise ConfigError("volume deficit rate is only predicted for beta = 0")
        return volume_deficit_rate(bs)
    try:
        pred = predict_rate(bs, bp)
    except ValueError as exc:
        raise ConfigError(f"no predicted rate for this record: {exc}") from exc
    return pred.exponent, pred.log_power


def _observable_rows(config: ExperimentConfig, raw: np.ndarray, observable: str) -> np.ndarray:
    """(n, mean, se) per grid point of one observable column of a record."""
    aggregates = recompute_aggregates(config, raw)
    if observable == "n" or observable not in aggregates:
        raise ConfigError(f"record has no {observable} aggregate")
    return np.stack([
        np.asarray(aggregates["n"], dtype=float),
        np.asarray(aggregates[observable]["mean"], dtype=float),
        np.asarray(aggregates[observable]["se"], dtype=float),
    ], axis=1)


def _cmd_fit(args) -> int:
    config, raw = load_record(args.record)
    data = _observable_rows(config, raw, args.observable)
    exponent, log_power = _predicted_law(config, args.observable)
    if args.log_power != "auto":
        try:
            log_power = int(args.log_power)
        except ValueError as exc:
            raise ConfigError(
                f"--log-power must be 'auto' or an integer, got {args.log_power!r}"
            ) from exc
    fixed = fit_rate(data, log_power, model="fixed")
    free = fit_rate(data, log_power, model="free")
    print(f"record: {args.record}")
    print(f"observable: {args.observable}")
    print(f"predicted: exponent={exponent:.6g} log_power={log_power}")
    print(
        f"fitted ({fixed.model}): exponent={fixed.exponent:.6g} "
        f"+- {fixed.exponent_se:.2g} r2={fixed.r_squared:.5f}"
    )
    print(
        f"fitted (free): exponent={free.exponent:.6g} +- {free.exponent_se:.2g} "
        f"loglog_coeff={free.log_power:.3g} r2={free.r_squared:.5f}"
    )
    # log-log slope of the mean between adjacent grid points
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(np.log(data[:, 1])) / np.diff(np.log(data[:, 0]))
    print("local slopes: " + " ".join(f"{x:.4g}" for x in slopes))
    return 0


def _cmd_predict(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
        betas = tuple(_parse_beta(x) for x in args.betas.split(",")) if args.betas else (0,) * len(dims)
        bs = BlockStructure(dims)
        bp = BetaParams(betas)
        pred = predict_rate(bs, bp)
    except ValueError as exc:
        raise ConfigError(f"invalid --dims or --betas: {exc}") from exc
    print(f"container: product of balls, dims={dims}, betas={betas}")
    print(f"adjusted dimensions k: {tuple(round(k, 12) for k in pred.k)}")
    print(f"facet count ~ n^{pred.exponent:.6g} * (ln n)^{pred.log_power}")
    if all(float(b) == 0.0 for b in bp.as_floats()):
        expo, lp = volume_deficit_rate(bs)
        print(f"volume deficit ~ n^{expo:.6g} * (ln n)^{lp}")
    return 0


# name -> (seed, trials, samples) -> reports; "verify --suite all" prints
# them in this order.  Suites run on concurrent threads, so each draws from
# its own stream and shares no mutable state with another.
SUITES = {
    "sampler": lambda seed, trials, samples: [verify_sampler(seed, samples)],
    "hull": lambda seed, trials, samples: [verify_hull(seed, trials)],
    "reduction": lambda seed, trials, samples: [verify_reduction(
        BlockStructure((2, 1)), BetaParams.uniform(2), trials=max(4, trials // 25),
        n_samples=samples, rng=RngStream(seed, 1),
    )],
    "polyspherical": lambda seed, trials, samples: [
        verify_polyspherical(BlockStructure((2, 1)), fn, n_samples=samples,
                             rng=RngStream(seed, 2))
        for fn in ("one", "first_block_sq", "exp_first")
    ],
    "bp2d": lambda seed, trials, samples: [
        verify_blaschke_petkantschin_2d(fn, n_samples=samples, rng=RngStream(seed, 3))
        for fn in ("square", "disk", "gauss_diff")
    ],
    "bounds": lambda seed, trials, samples: [
        verify_bounds(1, (0.0,)), verify_bounds(2, (0.5, 0.5)),
    ],
    "aw": lambda seed, trials, samples: [verify_aw(1e6)],
    "efron": lambda seed, trials, samples: [efron_check(
        BlockStructure((2, 1)), n=100, reps=max(20, trials // 10),
        rng=RngStream(seed, 4),
    )],
}


def _cmd_verify(args) -> int:
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2 for a standard error, got {args.samples}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed must fit in u64, got {args.seed}")
    names = list(SUITES) if args.suite == "all" else [args.suite]

    def run(name):
        return SUITES[name](args.seed, args.trials, args.samples)

    pool = ThreadPoolExecutor(VERIFY_WORKERS)
    try:
        # map yields in registry order and re-raises the first failing
        # suite's exception, as running them one after another would
        reports = [rep for reps in pool.map(run, names) for rep in reps]
    finally:
        pool.shutdown(cancel_futures=True)    # after a crash, start no more suites
    for rep in reports:
        print(rep)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_plot(args) -> int:
    out_script = Path(args.out_script)
    out_script.parent.mkdir(parents=True, exist_ok=True)
    curves = []
    for record_dir in args.record:
        config, raw = load_record(record_dir)
        ns, mean, se = _observable_rows(config, raw, "f_0").T
        exponent, log_power = _predicted_law(config, "f_0")
        dat = out_script.with_name(out_script.stem + f"_{config.name}.dat")
        rows = "\n".join(
            f"{int(n)} {_fmt(m)} {_fmt(s)}" for n, m, s in zip(ns, mean, se)
        )
        dat.write_text(rows + "\n")
        anchor = mean[-1] / (ns[-1] ** exponent * math.log(ns[-1]) ** log_power)
        curves.append((config.name, dat.name, exponent, log_power, anchor))

    lines = [
        "set logscale xy",
        "set xlabel 'n'",
        "set ylabel 'mean vertex/facet count'",
        "set key left top",
        "set term pngcairo size 900,650",
        f"set output '{out_script.stem}.png'",
    ]
    plots = []
    for name, dat, exponent, log_power, anchor in curves:
        plots.append(f"'{dat}' using 1:2:3 with yerrorlines title '{name}'")
        plots.append(
            f"{anchor:.8g}*x**{exponent:.8g}*log(x)**{log_power} "
            f"with lines dashtype 2 title '{name} guide'"
        )
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    out_script.write_text("\n".join(lines) + "\n")
    print(f"gnuplot script written to {out_script}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockbeta",
        description="simulation and verification lab for random polytopes in ball products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_default = os.environ.get("BLOCKBETA_OUT", "out")

    p = sub.add_parser("simulate", help="run an experiment from a JSON config",
                       allow_abbrev=False)
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", default=out_default, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override root_seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget-override", type=float, default=None,
                   help="replace the default cost budget")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit growth exponents from a record",
                       allow_abbrev=False)
    p.add_argument("--record", required=True, help="record directory")
    p.add_argument("--observable", default="f_0")
    p.add_argument("--log-power", default="auto",
                   help="'auto' (predicted) or an integer override")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="run numeric cross-checks", allow_abbrev=False)
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("predict", help="print the predicted growth law",
                       allow_abbrev=False)
    p.add_argument("--dims", required=True, help="comma-separated block dimensions")
    p.add_argument("--betas", default="", help="comma-separated weights (fractions ok)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("plot", help="emit a gnuplot script for records",
                       allow_abbrev=False)
    p.add_argument("--record", nargs="+", required=True)
    p.add_argument("--out-script", default="plot.gp")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BudgetExceeded, InsufficientSpan) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:           # a crash, not a verdict: keep it off 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
