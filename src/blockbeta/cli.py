"""Command-line laboratory.

Subcommands:
  simulate  sample point clouds, build hulls, record face counts
  fit       estimate growth exponents from a recorded run
  verify    run the numeric cross-check suites
  predict   print the predicted growth law for a container
  plot      emit a gnuplot script for recorded runs

A run is configured by a single JSON document and writes a record
directory containing raw.csv (one row per hull) plus record.json
(config, hash, aggregates, retried rows per n, worker count, peak
RSS).  Every replication goes through replicate, which draws from the
named random stream (root_seed, stream index); replicate_rows runs the
rows on WORKERS threads (run_threads), largest n first, and returns them
in row order, so output is byte-identical for any worker count.  Each
thread holds one replication's point cloud and hull at a time: two
(2,1,1) replications at n = 10^7 peak at 1.8 GB with the default two
threads (1.2 GB with --workers 1, at twice the wall time), so large-n
runs fit a desk machine at the default.
verify runs the suites of the SUITES registry on the same WORKERS
threads, started longest first (SUITE_START_ORDER), and prints their
reports in registry order; each Monte Carlo suite draws from its own
stream, named in SUITES, so the output does not depend on the schedule.
The two threads do not wait on each other: the sampler suite's slow
exact KS p-value runs without the GIL (sampler._kstwo_sf), and the
two-route suites reduce each route to its (mean, se) as soon as it is
drawn, so the big-array suites can overlap without raising the peak.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .asymptotics import InsufficientSpan, efron_check, fit_rate, local_slopes, verify_aw
from .core import (BetaParams, BlockStructure, _check_pair, as_int, predict_rate,
                   volume_deficit_rate)
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
# Threads for simulate's replications and verify's suites.  qhull, numpy's
# draws and sorts and betainc release the GIL, so a second thread runs
# beside the first on two cores; a third would hold a third replication's
# (or suite's) arrays at once and gain no speed.  Code run on these
# threads makes no threaded BLAS call: after one, OpenBLAS's worker thread
# spins for tens of milliseconds on a core the other thread needs.
WORKERS = 2

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
    if isinstance(x, (int, float)) and not isinstance(x, bool):
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
            dims = tuple(as_int(d, "block_dims") for d in raw["block_dims"])
            betas = tuple(_parse_beta(b) for b in raw.get("betas", [0] * len(dims)))
            bs = BlockStructure(dims)
            bp = BetaParams(betas)
            _check_pair(bs, bp)
            n_grid = tuple(as_int(n, "n_grid") for n in raw.get("n_grid", default_n_grid()))
            reps = as_int(raw.get("reps", 10), "reps")
            root_seed = as_int(raw.get("root_seed", 0), "root_seed")
            observables = tuple(raw.get("observables", ["f_vector"]))
            bad = set(observables) - OBSERVABLES
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if len(n_grid) == 0 or any(n < bs.dim + 1 for n in n_grid):
            raise ConfigError(f"every n must be >= d+1 = {bs.dim + 1}")
        if len(set(n_grid)) != len(n_grid):
            raise ConfigError(f"n_grid repeats a value: {list(n_grid)}")
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


def _header(config: ExperimentConfig) -> list[str]:
    """raw.csv's columns: simulate writes them, load_record checks them and
    fit, plot and the aggregates read the observables among them by name."""
    d = sum(config.block_dims)
    return ["n", "rep", *(f"f_{j}" for j in range(d)), "volume_deficit", "seed_stream"]


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


def run_threads(calls, start_order, workers: int = WORKERS) -> list:
    """Run every call of calls on a pool of workers threads, starting them
    in start_order (a permutation of their indices), and return their
    results in index order.

    If calls fail, the error of the first failing call in index order is
    raised, as running them one after another would raise it, and no call
    that has not started is started.
    """
    pool = ThreadPoolExecutor(workers)
    try:
        futures = {i: pool.submit(calls[i]) for i in start_order}
        return [futures[i].result() for i in range(len(calls))]
    finally:
        pool.shutdown(cancel_futures=True)


def replicate_rows(bs: BlockStructure, bp: BetaParams, ns, root_seed: int,
                   first_stream: int = 0, want_volume: bool = False,
                   workers: int = WORKERS) -> list:
    """replicate for each n of ns, row i on stream first_stream + i.

    The rows run on workers threads, largest n first, so the costliest
    rows do not start last; the results come back in row order.
    """
    calls = [partial(replicate, bs, bp, n, root_seed, first_stream + i, want_volume)
             for i, n in enumerate(ns)]
    # sorted is stable: rows of equal n keep their order
    return run_threads(calls, sorted(range(len(ns)), key=lambda i: -ns[i]), workers)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    # ru_maxrss counts bytes on macOS and KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 1024


def simulate(config: ExperimentConfig, out_dir, workers: int = WORKERS,
             budget: float = DEFAULT_BUDGET) -> Path:
    """Run the configured experiment on workers threads and write its record directory."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not budget > 0:                 # also refuses NaN, which no cost exceeds
        raise ConfigError(f"budget must be a positive number, got {budget}")
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

    t0 = time.monotonic()
    results = replicate_rows(bs, config.beta_params(), ns, config.root_seed,
                             want_volume=want_volume, workers=workers)
    wall = time.monotonic() - t0

    raw = np.array([
        [n, i % config.reps, *fv, math.nan if deficit is None else deficit, stream]
        for i, (n, (fv, deficit, stream)) in enumerate(zip(ns, results))
    ], dtype=float)
    record_dir = Path(out_dir) / config.name
    record_dir.mkdir(parents=True, exist_ok=True)

    lines = [",".join(_header(config))]
    # integer cells print as integers under %.17g; an absent deficit stays empty
    lines += [",".join("" if math.isnan(x) else _fmt(x) for x in row) for row in raw]
    (record_dir / "raw.csv").write_text("\n".join(lines) + "\n")

    retried = (raw[:, -1] >= RETRY_STRIDE).reshape(len(config.n_grid), config.reps)
    record = {
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "version": __version__,
        "wall_seconds": wall,
        "workers": workers,
        "peak_rss_mb": _peak_rss_mb(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "aggregates": recompute_aggregates(config, raw),
        # rows per n drawn from a retry substream
        "retries": {"n": list(config.n_grid), "rows": [int(k) for k in retried.sum(axis=1)]},
    }
    (record_dir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record_dir


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (UnicodeDecodeError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_record(record_dir) -> tuple[ExperimentConfig, np.ndarray]:
    """Read a record directory back: (config, raw rows).

    raw.csv must carry exactly the columns simulate writes for the config,
    one number (or an empty cell) under each, and one row per (n, rep).
    """
    record_dir = Path(record_dir)
    record = _read_json(record_dir / "record.json")
    if not isinstance(record, dict) or "config" not in record:
        raise ConfigError(f"{record_dir / 'record.json'} is not an object with a config key")
    config = ExperimentConfig.from_dict(record["config"])
    path = record_dir / "raw.csv"
    header, *lines = _read_text(path).strip().split("\n")
    columns = _header(config)
    if header != ",".join(columns):
        raise ConfigError(f"{path} has columns {header}, but its config writes "
                          f"{','.join(columns)}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ConfigError(f"{path} line {lineno}: {len(cells)} cells under "
                              f"{len(columns)} columns")
        try:
            rows.append([float(c) if c else math.nan for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    # _observable_rows reads the rows by position within each column
    if len(rows) != len(config.n_grid) * config.reps:
        raise ConfigError(
            f"record {record_dir} has {len(rows)} data rows, its config asks for "
            f"{len(config.n_grid) * config.reps}"
        )
    return config, np.array(rows, dtype=float)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def _observable_columns(config: ExperimentConfig) -> list[str]:
    """The raw.csv columns a record aggregates: f_0 .. f_{d-1}, and
    volume_deficit when the config records it."""
    columns = _header(config)[2:-1]
    return columns if "volume_deficit" in config.observables else columns[:-1]


def _observable_rows(config: ExperimentConfig, raw: np.ndarray, observable: str) -> np.ndarray:
    """(n, mean, se) per grid point of one observable column of a record.

    raw holds the rows of raw.csv in (n, rep) order, as simulate writes
    them and load_record reads them back.
    """
    if observable not in _observable_columns(config):
        raise ConfigError(f"record has no {observable} aggregate")
    column = raw[:, _header(config).index(observable)]
    per_n = np.ascontiguousarray(column).reshape(len(config.n_grid), config.reps)
    return np.array([(n, *_mean_se(values)) for n, values in zip(config.n_grid, per_n)])


def recompute_aggregates(config: ExperimentConfig, raw: np.ndarray) -> dict:
    """Per-n mean and standard error of every observable column."""
    out = {"n": list(config.n_grid)}
    for key in _observable_columns(config):
        _, mean, se = _observable_rows(config, raw, key).T
        out[key] = {"mean": mean.tolist(), "se": se.tolist()}
    return out


# ---------------------------------------------------------------- commands


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_dict(_read_json(args.config))
    budget = DEFAULT_BUDGET if args.budget_override is None else args.budget_override
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


def _cmd_fit(args) -> int:
    config, raw = load_record(args.record)
    data = _observable_rows(config, raw, args.observable)
    data = data[data[:, 0] >= args.n_min]
    exponent, log_power = _predicted_law(config, args.observable)
    if args.log_power != "auto":
        try:
            log_power = int(args.log_power)
        except ValueError as exc:
            raise ConfigError(
                f"--log-power must be 'auto' or an integer, got {args.log_power!r}"
            ) from exc
    fit = fit_rate(data, log_power)
    slopes, slope_se = local_slopes(data)
    print(f"record: {args.record}")
    print(f"observable: {args.observable}")
    print(f"rows: n = {data[0, 0]:.0f} .. {data[-1, 0]:.0f} "
          f"({len(data)} of {len(config.n_grid)} grid points)")
    print(f"predicted: exponent={exponent:.6g} log_power={log_power}")
    print(f"fitted: exponent={fit.exponent:.6g} +- {fit.exponent_se:.2g} "
          f"r2={fit.r_squared:.5f}")
    # one rep per n has no spread to estimate: those errors are unknown, not 0
    errors = [f"{e:.2g}" if config.reps > 1 else "?" for e in slope_se]
    print("local slopes: " + " ".join(f"{x:.4g}+-{e}" for x, e in zip(slopes, errors)))
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
# them in this order.  Suites run on concurrent threads, so each Monte
# Carlo suite draws from RngStream(seed, index) with its own index, named
# only here, and shares no mutable state with another.
SUITES = {
    "sampler": lambda seed, trials, samples: [verify_sampler(samples, rng=RngStream(seed, 0))],
    "hull": lambda seed, trials, samples: [verify_hull(trials, rng=RngStream(seed, 5))],
    "reduction": lambda seed, trials, samples: [verify_reduction(
        BlockStructure((2, 1)), BetaParams.uniform(2), trials=max(4, trials // 25),
        n_samples=samples, rng=RngStream(seed, 1),
    )],
    "polyspherical": lambda seed, trials, samples: verify_polyspherical(
        BlockStructure((2, 1)), n_samples=samples, rng=RngStream(seed, 2),
    ),
    "bp2d": lambda seed, trials, samples: verify_blaschke_petkantschin_2d(
        n_samples=samples, rng=RngStream(seed, 3),
    ),
    "bounds": lambda seed, trials, samples: [verify_bounds((0.0,)), verify_bounds((0.5, 0.5))],
    "aw": lambda seed, trials, samples: [verify_aw(1e6)],
    "efron": lambda seed, trials, samples: [efron_check(
        BlockStructure((2, 1)), n=100, reps=max(20, trials // 10),
        rng=RngStream(seed, 4),
    )],
}


# the suites of SUITES, longest first at verify's defaults (sampler 0.66 s,
# hull 0.45, reduction 0.35, efron 0.15, the rest 0.05 s or less, run
# alone on a 2-vCPU Xeon), so the last ones to start are the short ones
SUITE_START_ORDER = ("sampler", "hull", "reduction", "efron", "bp2d", "polyspherical",
                     "bounds", "aw")


def _cmd_verify(args) -> int:
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2 for a standard error, got {args.samples}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 0 <= args.seed < 2 ** 64:
        raise ConfigError(f"--seed must fit in u64, got {args.seed}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    calls = [partial(SUITES[name], args.seed, args.trials, args.samples) for name in names]
    start = [names.index(name) for name in SUITE_START_ORDER if name in names]
    reports = [rep for reps in run_threads(calls, start) for rep in reps]
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
    p.add_argument("--workers", type=int, default=WORKERS,
                   help=f"replication threads (default {WORKERS}); each holds one "
                        "point cloud and its hull")
    p.add_argument("--budget-override", type=float, default=None,
                   help="replace the default cost budget")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit growth exponents from a record",
                       allow_abbrev=False)
    p.add_argument("--record", required=True, help="record directory")
    p.add_argument("--observable", default="f_0")
    p.add_argument("--log-power", default="auto",
                   help="'auto' (predicted) or an integer override")
    p.add_argument("--n-min", type=float, default=0,
                   help="fit only the grid points with n >= N")
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
    except (ConfigError, BudgetExceeded, InsufficientSpan, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:           # a crash, not a verdict: keep it off 1
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
