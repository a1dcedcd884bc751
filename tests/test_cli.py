import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st

import blockbeta.cli as cli
from blockbeta.cli import (
    RETRY_STRIDE,
    SUITE_START_ORDER,
    SUITES,
    BudgetExceeded,
    ConfigError,
    ExperimentConfig,
    build_parser,
    default_n_grid,
    load_record,
    main,
    recompute_aggregates,
    replicate,
    simulate,
)
from blockbeta.core import BetaParams, BlockStructure
from blockbeta.hull import DegenerateInput
from blockbeta.metacube import QuadratureError
from blockbeta.report import Check, Report
from blockbeta.sampler import RngStream


def make_config(**overrides):
    raw = {
        "name": "t",
        "block_dims": [2, 1],
        "betas": [0, "1/2"],
        "n_grid": [20, 40],
        "reps": 2,
        "root_seed": 5,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_config_parses_fractions():
    cfg = make_config()
    assert cfg.betas == (0, Fraction(1, 2))
    assert cfg.observables == ("f_vector",)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"block_dims": [2], "typo": 1})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        make_config(n_grid=[3])                  # n < d+1
    with pytest.raises(ConfigError):
        make_config(reps=0)
    with pytest.raises(ConfigError):
        make_config(betas=["nonsense", 0])
    with pytest.raises(ConfigError):
        make_config(betas=[-2, 0])
    with pytest.raises(ConfigError):
        make_config(observables=["volume"])
    with pytest.raises(ConfigError):
        make_config(root_seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})


@pytest.mark.parametrize("field, value", [
    ("block_dims", [2.9, 1]),
    ("block_dims", [2, True]),
    ("n_grid", [100.7, 200]),
    ("reps", 2.5),
    ("reps", True),
    ("root_seed", 1.5),
])
def test_config_rejects_numbers_it_would_have_to_truncate(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, **{field: value})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be an integer" in err and "internal" not in err
    assert not (tmp_path / "out").exists()


def test_config_accepts_integral_floats():
    cfg = make_config(block_dims=[2.0, 1.0], n_grid=[20.0, 1e5], reps=2.0, root_seed=1e3)
    assert cfg == make_config(block_dims=[2, 1], n_grid=[20, 100_000], reps=2, root_seed=1000)
    assert all(type(x) is int for x in (*cfg.block_dims, *cfg.n_grid, cfg.reps, cfg.root_seed))


def test_config_default_grid_and_name():
    cfg = ExperimentConfig.from_dict({"block_dims": [2]})
    assert cfg.n_grid == default_n_grid()
    assert cfg.n_grid[0] == 100 and cfg.n_grid[-1] == 100_000
    assert len(cfg.n_grid) == 12
    assert cfg.name.startswith("run-") and len(cfg.name) == 16


def test_config_hash_ignores_name():
    a = make_config(name="alpha").config_hash()
    b = make_config(name="omega").config_hash()
    c = make_config(name="alpha", root_seed=6).config_hash()
    assert a == b
    assert a != c


beta_st = st.one_of(
    st.integers(0, 5),
    st.fractions(min_value=Fraction(-9, 10), max_value=5, max_denominator=12)
    .map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.floats(-0.9, 5.0),
)


@settings(max_examples=50, deadline=None)
@example(blocks=[(2, "1/3"), (1, 0)], n_grid=[20, 40], reps=2, root_seed=5,
         observables={"f_vector"}, name="")
@given(
    blocks=st.lists(st.tuples(st.integers(1, 4), beta_st), min_size=1, max_size=3),
    n_grid=st.lists(st.integers(13, 10 ** 6), min_size=1, max_size=5, unique=True),
    reps=st.integers(1, 50),
    root_seed=st.integers(0, 2 ** 64 - 1),
    observables=st.sets(st.sampled_from(["f_vector", "volume_deficit"]), min_size=1),
    name=st.sampled_from(["", "t", "run 2"]),
)
def test_config_roundtrips_through_canonical(blocks, n_grid, reps, root_seed, observables,
                                             name):
    betas = [b for _, b in blocks]
    cfg = ExperimentConfig.from_dict({
        "name": name, "block_dims": [d for d, _ in blocks], "betas": betas,
        "n_grid": n_grid, "reps": reps, "root_seed": root_seed,
        "observables": sorted(observables),
    })
    # record.json stores the canonical form as JSON
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.canonical())))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    # a weight given as "p/q" comes back as a Fraction, never as a float
    assert [type(b) for b in again.betas] == [type(b) for b in cfg.betas]
    assert [isinstance(b, Fraction) for b in again.betas] == [isinstance(b, str) for b in betas]


def test_simulate_record_layout(tmp_path):
    cfg = make_config(observables=["f_vector", "volume_deficit"])
    record_dir = simulate(cfg, tmp_path)
    raw = (record_dir / "raw.csv").read_text().strip().split("\n")
    assert raw[0] == "n,rep,f_0,f_1,f_2,volume_deficit,seed_stream"
    assert len(raw) == 1 + len(cfg.n_grid) * cfg.reps
    record = json.loads((record_dir / "record.json").read_text())
    assert record["config_hash"] == cfg.config_hash()
    assert record["workers"] == cli.WORKERS
    assert 0 < record["peak_rss_mb"] < 2 ** 20
    assert record["versions"] == {"python": platform.python_version(),
                                  "numpy": np.__version__, "scipy": scipy.__version__}
    assert "csv" not in record            # the rows are always raw.csv
    agg = record["aggregates"]
    assert agg["n"] == [20, 40]
    assert len(agg["f_0"]["mean"]) == 2
    assert "volume_deficit" in agg


def test_simulate_without_volume_leaves_column_empty(tmp_path):
    record_dir = simulate(make_config(), tmp_path)
    rows = (record_dir / "raw.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[-2] == "" for row in rows)


def test_simulate_deterministic_across_workers(tmp_path):
    # largest n first runs rows 3-5, then 6-8, then 0-2: not row order
    cfg = make_config(name="w1", n_grid=[20, 60, 40], reps=3,
                      observables=["f_vector", "volume_deficit"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # hand the GIL over as often as possible
    try:
        dirs = [simulate(cfg, tmp_path / str(w), workers=w) for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    raw_bytes = [(d / "raw.csv").read_bytes() for d in dirs]
    assert raw_bytes[0] == raw_bytes[1] == raw_bytes[2]
    # row i holds replicate on stream i, as a row-order loop would write it
    _, raw = load_record(dirs[0])
    for i, n in enumerate([20] * 3 + [60] * 3 + [40] * 3):
        fv, deficit, stream = replicate(cfg.structure(), cfg.beta_params(), n, 5, i,
                                        want_volume=True)
        assert list(raw[i]) == [n, i % 3, *fv, deficit, stream]


# sha256 of raw.csv for PINNED_CONFIG: pins the bits of the m > 1 sample,
# dedup and volume deficit, which no benchmark digest covers
PINNED_CONFIG = {
    "name": "pin", "block_dims": [2, 1, 1], "betas": [0, 0, 0],
    "n_grid": [100, 1000, 10000], "reps": 2, "root_seed": 0,
    "observables": ["f_vector", "volume_deficit"],
}
PINNED_RAW_SHA256 = "0c7fd413cb88b32a0ac5a38e7f3e1384df3e55011c779ac99f22928a331ce78d"


@pytest.mark.parametrize("workers", [1, 2])
def test_raw_csv_bits_are_pinned(tmp_path, workers):
    record_dir = simulate(ExperimentConfig.from_dict(PINNED_CONFIG), tmp_path, workers=workers)
    digest = hashlib.sha256((record_dir / "raw.csv").read_bytes()).hexdigest()
    assert digest == PINNED_RAW_SHA256


def test_simulate_budget_guard(tmp_path):
    cfg = make_config(n_grid=[100_000], reps=100_000, block_dims=[2, 2])
    with pytest.raises(BudgetExceeded):
        simulate(cfg, tmp_path)
    # explicit override lets the same config through
    small = make_config()
    simulate(small, tmp_path, budget=1e18)


def test_recompute_aggregates_matches_record(tmp_path):
    cfg = make_config(observables=["f_vector", "volume_deficit"])
    record_dir = simulate(cfg, tmp_path)
    config, raw = load_record(record_dir)
    record = json.loads((record_dir / "record.json").read_text())
    assert recompute_aggregates(config, raw) == record["aggregates"]


def degenerate_once(monkeypatch):
    """Make the first convex_hull call in cli raise DegenerateInput; returns
    the list of point counts the patched hull is called with."""
    real_hull = cli.convex_hull
    calls = []

    def hull(pts):
        calls.append(len(pts))
        if len(calls) == 1:
            raise DegenerateInput("forced")
        return real_hull(pts)

    monkeypatch.setattr(cli, "convex_hull", hull)
    return calls


def test_replicate_on_an_interval():
    fv, deficit, stream = replicate(BlockStructure((1,)), BetaParams.uniform(1), 50, 3, 0,
                                    want_volume=True)
    assert fv == (2,)
    assert 0.0 < deficit < 1.0
    assert stream == 0


def test_replicate_retries_a_degenerate_draw_on_the_next_substream(monkeypatch):
    bs, bp = BlockStructure((2, 1)), BetaParams.uniform(2)
    calls = degenerate_once(monkeypatch)
    got = replicate(bs, bp, 20, 5, 7, want_volume=True)
    assert calls == [20, 20]
    assert got[2] == 7 + RETRY_STRIDE
    monkeypatch.undo()
    assert got == replicate(bs, bp, 20, 5, 7 + RETRY_STRIDE, want_volume=True)


def test_replicate_does_not_retry_other_errors(monkeypatch):
    calls = []

    def broken(pts):
        calls.append(len(pts))
        raise RuntimeError("hull bug")

    monkeypatch.setattr(cli, "convex_hull", broken)
    with pytest.raises(RuntimeError, match="hull bug"):
        replicate(BlockStructure((2, 1)), BetaParams.uniform(2), 20, 5, 7)
    assert calls == [20]


def flat_on_stream(monkeypatch, index):
    """Make cli's sampler return a flat cloud on one stream index; returns
    the list of (stream index, size) pairs the sampler is called with."""
    real_sample = cli.sample_block_beta
    calls = []

    def sample(bs, bp, rng, size):
        calls.append((rng.stream_index, size))
        pts = real_sample(bs, bp, rng, size=size)
        return np.zeros_like(pts) if rng.stream_index == index else pts

    monkeypatch.setattr(cli, "sample_block_beta", sample)
    return calls


def test_record_counts_retried_rows_per_n(tmp_path, monkeypatch):
    plain = json.loads((simulate(make_config(), tmp_path / "plain") / "record.json").read_text())
    assert plain["retries"] == {"n": [20, 40], "rows": [0, 0]}

    calls = flat_on_stream(monkeypatch, 0)
    record_dir = simulate(make_config(), tmp_path / "retried")
    assert (0, 20) in calls and (RETRY_STRIDE, 20) in calls
    record = json.loads((record_dir / "record.json").read_text())
    assert record["retries"] == {"n": [20, 40], "rows": [1, 0]}
    _, raw = load_record(record_dir)
    assert raw[0, -1] == RETRY_STRIDE and (raw[1:, -1] < RETRY_STRIDE).all()


def test_retry_is_deterministic_across_workers(tmp_path, monkeypatch):
    # stream 9 draws a flat cloud; on two threads its retries run beside
    # other rows, and the n = 40 rows (among them row 9) run first
    flat_on_stream(monkeypatch, 9)
    cfg = make_config(reps=6)
    d1 = simulate(cfg, tmp_path / "a", workers=1)
    d2 = simulate(cfg, tmp_path / "b", workers=2)
    assert (d1 / "raw.csv").read_bytes() == (d2 / "raw.csv").read_bytes()
    retries = [json.loads((d / "record.json").read_text())["retries"] for d in (d1, d2)]
    assert retries[0] == retries[1] == {"n": [20, 40], "rows": [0, 1]}

    _, raw = load_record(d1)
    assert raw[9, -1] == 9 + RETRY_STRIDE
    assert (np.delete(raw[:, -1], 9) < RETRY_STRIDE).all()
    monkeypatch.undo()
    fv, _, _ = replicate(cfg.structure(), cfg.beta_params(), 40, 5, 9 + RETRY_STRIDE)
    assert list(raw[9, 2:2 + len(fv)]) == list(fv)


def fail_on_streams(monkeypatch, slow, fast):
    """Make cli's sampler raise a RuntimeError naming the stream on the two
    given stream indices, the first after a pause."""
    real_sample = cli.sample_block_beta

    def sample(bs, bp, rng, size):
        if rng.stream_index == slow:
            time.sleep(0.2)             # the other failure comes first in time
        if rng.stream_index in (slow, fast):
            raise RuntimeError(f"bug on stream {rng.stream_index}")
        return real_sample(bs, bp, rng, size=size)

    monkeypatch.setattr(cli, "sample_block_beta", sample)


def test_simulate_raises_the_first_failing_row_in_row_order(tmp_path, monkeypatch):
    # rows 3-5 (n = 40) start first; row 4 fails before row 1 does
    fail_on_streams(monkeypatch, slow=1, fast=4)
    with pytest.raises(RuntimeError, match="^bug on stream 1$"):
        simulate(make_config(reps=3), tmp_path, workers=2)


def _fresh_python(*args):
    """Run the interpreter on args with this checkout's blockbeta on its path."""
    src = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_import_leaves_scipy_stats_unloaded():
    # quadrature, the KS checks, the special functions and qhull load
    # these at their first call; predict needs none of them
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.stats", "scipy.special",
             "scipy.spatial", "scipy.linalg", "scipy.sparse")
    loaded = (f"print(sorted(m for m in sys.modules "
              f"if '.'.join(m.split('.')[:2]) in {heavy!r}))")
    for module in ("blockbeta", "blockbeta.cli"):
        out = _fresh_python("-c", f"import sys, {module}; {loaded}")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n", module
    predict = "import sys, blockbeta.cli; blockbeta.cli.main(['predict', '--dims', '2,1,1'])"
    out = _fresh_python("-c", f"{predict}; {loaded}")
    assert out.returncode == 0, out.stderr
    assert "facet count ~ n^0.333333 * (ln n)^0" in out.stdout
    assert out.stdout.endswith("\n[]\n")


def test_verify_sampler_loads_scipy_stats_before_its_first_cloud():
    # loaded later, at the first p-value, it would load beside the live
    # clouds and raise verify's peak RSS
    script = (
        "import sys, blockbeta.cli, blockbeta.sampler as sampler\n"
        "draw, seen = sampler.sample_beta_ball, []\n"
        "def spy(*args, **kwargs):\n"
        "    seen.append('scipy.stats' in sys.modules)\n"
        "    return draw(*args, **kwargs)\n"
        "sampler.sample_beta_ball = spy\n"
        "blockbeta.cli.main(['verify', '--suite', 'sampler', '--samples', '200'])\n"
        "print(seen[0])\n"
    )
    out = _fresh_python("-c", script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("\nTrue\n")


def test_verify_in_a_fresh_interpreter_equals_verify_in_process(capsys):
    # the fresh process loads scipy.integrate at its first quadrature call,
    # from verify's two threads at once; this one has it loaded already
    import scipy.integrate  # noqa: F401

    args = ["verify", "--suite", "all", "--samples", "2000", "--trials", "8"]
    fresh = _fresh_python("-m", "blockbeta", *args)
    assert fresh.stderr == ""
    assert (fresh.returncode, fresh.stdout) == (main(args), capsys.readouterr().out)


def test_simulate_in_a_fresh_interpreter_equals_simulate_in_process(tmp_path):
    # the fresh process loads scipy.spatial and scipy.special at its first
    # hull and volume, from two replication threads at once; this one has
    # them loaded already
    import scipy.spatial  # noqa: F401
    import scipy.special  # noqa: F401

    cfg = write_config(tmp_path, block_dims=[2, 1], n_grid=[20, 40, 80], reps=2,
                       observables=["f_vector", "volume_deficit"])
    fresh = _fresh_python("-m", "blockbeta", "simulate", "--config", str(cfg),
                          "--out", str(tmp_path / "fresh"), "--workers", "2")
    assert (fresh.returncode, fresh.stderr) == (0, "")
    here = simulate(ExperimentConfig.from_dict(json.loads(cfg.read_text())),
                    tmp_path / "here", workers=2)
    assert (tmp_path / "fresh" / "cli" / "raw.csv").read_bytes() == (here / "raw.csv").read_bytes()


def test_load_record_reads_raw_csv_whatever_an_old_record_names(tmp_path):
    record_dir = simulate(make_config(), tmp_path)
    config, raw = load_record(record_dir)
    record = json.loads((record_dir / "record.json").read_text())
    (record_dir / "record.json").write_text(json.dumps({**record, "csv": "elsewhere.csv"}))
    again, raw_again = load_record(record_dir)
    assert again == config and np.array_equal(raw_again, raw, equal_nan=True)


def test_fit_rejects_a_raw_csv_written_for_another_container(tmp_path, capsys):
    # a (2,) record's raw.csv under a (2,1) config of the same grid and reps:
    # the rows parse, but their columns are not the ones the config writes
    grid = [10, 32, 100, 320, 1000]
    ball = simulate(make_config(name="ball", block_dims=[2], betas=[0], n_grid=grid), tmp_path)
    record_dir = simulate(make_config(name="cyl", betas=[0, 0], n_grid=grid), tmp_path)
    (record_dir / "raw.csv").write_bytes((ball / "raw.csv").read_bytes())
    for observable in ("f_2", "f_0"):
        assert main(["fit", "--record", str(record_dir), "--observable", observable]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n,rep,f_0,f_1,volume_deficit,seed_stream" in captured.err
        assert "n,rep,f_0,f_1,f_2,volume_deficit,seed_stream" in captured.err
        assert "internal" not in captured.err


def test_load_record_rejects_missing_rows(tmp_path):
    record_dir = simulate(make_config(), tmp_path)
    csv = record_dir / "raw.csv"
    csv.write_text("\n".join(csv.read_text().split("\n")[:-2]) + "\n")
    with pytest.raises(ConfigError, match="3 data rows"):
        load_record(record_dir)


# --- exit codes through main() ------------------------------------------


def write_config(tmp_path, **overrides):
    raw = {
        "name": "cli",
        "block_dims": [1, 1],
        "n_grid": [10, 20, 30],
        "reps": 2,
        "root_seed": 1,
    }
    raw.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    return p


def test_main_simulate_and_fit_exit_codes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        n_grid=[10, 32, 100, 320, 1000, 3200],
        reps=3,
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--record", str(out / "cli")]) == 0
    text = capsys.readouterr().out
    assert "predicted: exponent=0" in text
    assert "fitted" in text


def test_main_fit_prints_local_slopes_of_a_known_power_law(tmp_path, capsys):
    # f_0 = f_1 = 3 n^0.37 in the mean, +-1% across the two reps
    grid = [100, 300, 1000, 3000, 10_000, 30_000]
    cfg = ExperimentConfig.from_dict(
        {"name": "law", "block_dims": [2], "n_grid": grid, "reps": 2, "root_seed": 0}
    )
    record_dir = tmp_path / "law"
    record_dir.mkdir()
    (record_dir / "record.json").write_text(json.dumps({"config": cfg.canonical()}))
    lines = ["n,rep,f_0,f_1,volume_deficit,seed_stream"]
    for i, n in enumerate(grid):
        for rep, wobble in enumerate((0.99, 1.01)):
            f = repr(3.0 * n ** 0.37 * wobble)
            lines.append(f"{n},{rep},{f},{f},,{2 * i + rep}")
    (record_dir / "raw.csv").write_text("\n".join(lines) + "\n")

    def local_slopes(argv):
        assert main(["fit", "--record", str(record_dir), *argv]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[-2].startswith("fitted: exponent=")
        label, _, values = out[-1].partition(": ")
        assert label == "local slopes"
        return out, [[float(v) for v in x.split("+-")] for x in values.split()]

    out, slopes = local_slopes([])
    assert "rows: n = 100 .. 30000 (6 of 6 grid points)" in out
    assert [s for s, _ in slopes] == pytest.approx([0.37] * (len(grid) - 1), abs=1e-4)
    # delta method: each mean has se/mean = 0.01, so the slope over a factor
    # r in n has se sqrt(2) * 0.01 / ln r (printed to 2 digits)
    ratios = np.array(grid[1:]) / np.array(grid[:-1])
    assert [e for _, e in slopes] == pytest.approx(0.01 * np.sqrt(2) / np.log(ratios), rel=0.05)

    # --n-min fits the top of the grid only
    out, top = local_slopes(["--n-min", "300"])
    assert "rows: n = 300 .. 30000 (5 of 6 grid points)" in out
    assert top == slopes[1:]
    assert main(["fit", "--record", str(record_dir), "--n-min", "1000"]) == 2
    err = capsys.readouterr().err
    assert err == "error: need >= 5 distinct n values, got 4\n"


def test_main_fit_prints_unknown_slope_errors_for_a_one_rep_record(tmp_path, capsys):
    cfg = write_config(tmp_path, block_dims=[2], n_grid=[10, 30, 100, 300, 1000], reps=1)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["fit", "--record", str(out / "cli")]) == 0
    label, _, values = capsys.readouterr().out.strip().split("\n")[-1].partition(": ")
    assert label == "local slopes"
    slopes = [v.split("+-") for v in values.split()]
    assert len(slopes) == 4
    for slope, error in slopes:
        assert math.isfinite(float(slope)) and error == "?"


def test_main_internal_error_exits_3(monkeypatch, capsys):
    def no_convergence(seed, trials, samples):
        raise QuadratureError("did not converge", best=0.5, err=0.1)

    monkeypatch.setitem(SUITES, "aw", no_convergence)
    assert main(["verify", "--suite", "aw"]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: QuadratureError: did not converge\n"


def test_main_simulate_crash_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    fail_on_streams(monkeypatch, slow=1, fast=4)
    cfg = write_config(tmp_path, n_grid=[10, 20], reps=3)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: bug on stream 1\n"


def test_main_fit_insufficient_span_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert main(["fit", "--record", str(out / "cli")]) == 2
    assert "error" in capsys.readouterr().err


NEGATIVE_BETA_CONFIG = {
    "name": "cli", "block_dims": [1, 1], "betas": ["-1/2", "-1/2"],
    "n_grid": [10, 32, 100, 320, 1000], "reps": 2, "root_seed": 1,
}


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


@pytest.mark.parametrize("argv,config", [
    (["predict", "--dims", "2,0"], None),
    (["predict", "--dims", "2,1", "--betas", "0"], None),
    (["predict", "--dims", "2,1", "--betas=-2,0"], None),
    (["predict", "--dims", "2,1", "--betas=-0.5,0"], None),
    (["predict", "--dims", "x"], None),
    (["simulate"], "{not json"),
    (["simulate"], json.dumps({"block_dims": ["a"]})),
    (["simulate"], json.dumps({"block_dims": [2], "reps": "x"})),
    (["fit", "--log-power", "1.5"], None),
    (["fit"], "{not json"),                     # written over record.json
    (["verify", "--suite", "bp2d", "--samples", "1"], None),   # no standard error
    (["fit"], "[]"),
    (["fit"], "{}"),
    (["plot"], "[]"),
    (["fit", "--observable", "n"], None),
    # a container with no predicted rate; predict exits 2 for it too
    (["fit"], json.dumps({"config": NEGATIVE_BETA_CONFIG})),
    (["plot"], json.dumps({"config": NEGATIVE_BETA_CONFIG})),
    (["verify", "--suite", "hull", "--trials", "0"], None),    # checks no hull
    (["verify", "--suite", "sampler", "--seed", "-1"], None),
    # a (file, text) pair replaces that file of the record
    (["fit"], ("raw.csv", "n,rep,f_0,f_1,volume_deficit,seed_stream\n10,0,abc,4,,0\n")),
    (["simulate", "--workers", "0"], json.dumps({"block_dims": [2], "n_grid": [10], "reps": 1})),
    # a budget no cost exceeds would switch the guard off
    (["simulate", "--budget-override", "0"], json.dumps({"block_dims": [2], "n_grid": [10]})),
    (["simulate", "--budget-override=-1"], json.dumps({"block_dims": [2], "n_grid": [10]})),
    (["simulate", "--budget-override", "nan"], json.dumps({"block_dims": [2], "n_grid": [10]})),
    # json writes these weights as NaN and Infinity, and reads them back
    (["simulate"], json.dumps({"block_dims": [2], "betas": [math.nan], "n_grid": [10]})),
    (["simulate"], json.dumps({"block_dims": [2], "betas": [math.inf], "n_grid": [10]})),
    # bytes that are not UTF-8
    (["simulate"], b'{"block_dims": [2]\xff}'),
    (["fit"], b'{"config": "\xff"}'),
    (["fit"], ("raw.csv", b"n,rep,f_0,f_1,volume_deficit,seed_stream\n10,0,\xff,4,,0\n")),
    (["simulate"], None),                       # a directory in place of the config file
])
def test_main_malformed_input_is_a_usage_error(tmp_path, capsys, argv, config):
    if argv[0] == "simulate":
        path = tmp_path / "config.json"
        if config is None:
            path.mkdir()
        else:
            _write(path, config)
        argv = [*argv, "--config", str(path), "--out", str(tmp_path / "out")]
    elif argv[0] == "plot":
        argv = [*argv, "--out-script", str(tmp_path / "fig.gp")]
    if argv[0] in ("fit", "plot"):
        cfg = write_config(tmp_path, n_grid=[10, 32, 100, 320, 1000], reps=2)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        record_dir = tmp_path / "out" / "cli"
        if config is not None:
            name, text = config if isinstance(config, tuple) else ("record.json", config)
            _write(record_dir / name, text)
        argv = [*argv, "--record", str(record_dir)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


def test_main_rejects_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"block_dims": [2], "nope": True}))
    assert main(["simulate", "--config", str(p)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_main_rejects_repeated_grid_points(tmp_path, capsys):
    # a repeated n would give fit's local slopes a zero log-n step
    cfg = write_config(tmp_path, block_dims=[2], n_grid=[20, 20, 50], reps=1)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "n_grid repeats a value" in capsys.readouterr().err


def test_main_budget_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, block_dims=[4], n_grid=[100000], reps=100000)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "budget" in capsys.readouterr().err


def test_main_missing_record(tmp_path, capsys):
    assert main(["fit", "--record", "/no/such/dir"]) == 2
    not_a_dir = tmp_path / "record"
    not_a_dir.write_text("{}")
    assert main(["fit", "--record", str(not_a_dir)]) == 2
    assert "internal" not in capsys.readouterr().err


def test_main_predict(capsys):
    assert main(["predict", "--dims", "2,2", "--betas", "0,0"]) == 0
    text = capsys.readouterr().out
    assert "n^0.333333" in text
    assert "(ln n)^1" in text


def test_main_predict_weighted(capsys):
    assert main(["predict", "--dims", "3,2", "--betas", "1,0"]) == 0
    text = capsys.readouterr().out
    assert "(ln n)^1" in text
    assert "volume deficit" not in text      # only stated for uniform weights


def test_main_verify_exit_zero(capsys):
    code = main([
        "verify", "--suite", "aw",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_main_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus"])


def test_verify_suite_choices_are_the_registry():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    suite = subcommands["verify"]._option_string_actions["--suite"]
    assert suite.choices == [*SUITES, "all"]


# sha256 of "verify --suite all --samples 4000 --trials 20": pins which
# draws each report reads, as PINNED_RAW_SHA256 pins raw.csv
PINNED_VERIFY_SHA256 = "95c7e3140bb90a9fdd365d7442daa08872041ba857591184555158bf8cb03409"


def test_verify_all_runs_each_suite_in_registry_order(capsys):
    small = ["--samples", "4000", "--trials", "20"]
    assert main(["verify", "--suite", "all", *small]) == 0
    together = capsys.readouterr().out
    assert hashlib.sha256(together.encode()).hexdigest() == PINNED_VERIFY_SHA256
    alone = []
    for name in SUITES:
        assert main(["verify", "--suite", name, *small]) == 0
        alone.append(capsys.readouterr().out)
    assert together == "".join(alone)


def test_suite_start_order_is_a_permutation_of_the_registry():
    assert sorted(SUITE_START_ORDER) == sorted(SUITES)


def test_verify_all_starts_the_suites_in_start_order(monkeypatch, capsys):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda seed, trials, samples: [])
    starts = []
    run_threads = cli.run_threads
    monkeypatch.setattr(cli, "run_threads",
                        lambda calls, start: starts.append(start) or run_threads(calls, start))
    assert main(["verify", "--suite", "all"]) == 0
    assert [list(SUITES)[i] for i in starts[0]] == list(SUITE_START_ORDER)


# traced peak of each big-array suite at --samples 200000, in arrays of
# 200000 doubles, with a margin of about half an array over the measured
# 12.06 (sampler, inside stats.ks_2samp), 7.08 and 10.25
SUITE_PEAK_ARRAYS = {"sampler": 12.5, "polyspherical": 7.5, "bp2d": 10.75}


@pytest.mark.parametrize("name", sorted(SUITE_PEAK_ARRAYS))
def test_big_array_suites_stay_under_their_traced_peaks(name):
    n = 200_000
    SUITES[name](0, 20, 10)         # the scipy modules it loads at first use
    tracemalloc.start()
    try:
        SUITES[name](0, 20, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SUITE_PEAK_ARRAYS[name] * n * np.dtype(float).itemsize


MONTE_CARLO_SUITES = {"sampler", "hull", "reduction", "polyspherical", "bp2d", "efron"}


def test_each_monte_carlo_suite_draws_from_its_own_stream(monkeypatch):
    # streams[name] lists the (seed, index) of every RngStream SUITES builds for it
    streams = {name: [] for name in SUITES}
    for name in SUITES:
        def named(seed, index, name=name):
            streams[name].append((seed, index))
            return RngStream(seed, index)

        monkeypatch.setattr(cli, "RngStream", named)
        SUITES[name](7, 1, 2)
    assert {name for name, drawn in streams.items() if drawn} == MONTE_CARLO_SUITES
    drawn = [stream for name in SUITES for stream in streams[name]]
    assert len(drawn) == len(MONTE_CARLO_SUITES)
    assert {seed for seed, _ in drawn} == {7}
    assert len({index for _, index in drawn}) == len(drawn)


def _thread_cpu_seconds():
    """tid -> user + system CPU seconds of every thread of this process."""
    tick = os.sysconf("SC_CLK_TCK")
    seconds = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            stat = Path(f"/proc/self/task/{tid}/stat").read_text()
        except OSError:               # the thread ended while we looked
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        seconds[int(tid)] = (int(fields[11]) + int(fields[12])) / tick
    return seconds


@pytest.mark.parametrize("suite", ["reduction", "efron"])
def test_verify_suites_leave_the_other_threads_idle(suite):
    # a threaded BLAS call in a suite leaves OpenBLAS's worker thread
    # spinning for tens of milliseconds on a core the suite pool needs
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no per-thread CPU times without /proc")
    time.sleep(0.3)                   # let any earlier spin end
    before = _thread_cpu_seconds()
    before.pop(threading.get_native_id(), None)
    if not before:
        pytest.skip("no thread besides the caller")
    assert main(["verify", "--suite", suite]) == 0
    after = _thread_cpu_seconds()
    gained = {tid: after.get(tid, cpu) - cpu for tid, cpu in before.items()}
    assert max(gained.values()) <= 0.05, gained


def test_verify_all_with_a_crashing_suite_exits_3_and_prints_no_report(monkeypatch, capsys):
    def no_convergence(seed, trials, samples):
        raise QuadratureError("did not converge", best=0.5, err=0.1)

    monkeypatch.setitem(SUITES, "bp2d", no_convergence)
    assert main(["verify", "--suite", "all", "--samples", "4000", "--trials", "20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: QuadratureError: did not converge\n"


def test_verify_all_prints_a_failing_report_in_registry_order(monkeypatch, capsys):
    def slow_failure(seed, trials, samples):
        time.sleep(0.2)             # the other thread's suites finish first
        rep = Report(title="forced failure")
        rep.add(Check("always", 1.0, 0.0, "z", 9.0, passed=False))
        return [rep]

    monkeypatch.setitem(SUITES, "sampler", slow_failure)
    assert main(["verify", "--suite", "all", "--samples", "4000", "--trials", "20"]) == 1
    want = "".join(f"{rep}\n" for name in SUITES for rep in SUITES[name](0, 20, 4000))
    assert capsys.readouterr().out == want


def test_main_plot(tmp_path, capsys):
    cfg = write_config(tmp_path, n_grid=[10, 30, 100], reps=2)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    script = tmp_path / "plots" / "fig.gp"
    assert main([
        "plot", "--record", str(out / "cli"), "--out-script", str(script),
    ]) == 0
    capsys.readouterr()
    text = script.read_text()
    assert "set logscale xy" in text
    assert "yerrorlines" in text
    dat = script.with_name("fig_cli.dat")
    rows = dat.read_text().strip().split("\n")
    assert len(rows) == 3
    assert all(len(r.split()) == 3 for r in rows)


def test_main_plot_rejects_abbreviated_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--record", str(tmp_path), "--out", str(tmp_path / "fig")])
    assert exc.value.code == 2
    assert not (tmp_path / "fig").exists()


def test_env_out_dir_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BLOCKBETA_OUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "cli" / "raw.csv").exists()


def test_csv_floats_are_full_precision(tmp_path):
    cfg = make_config(observables=["f_vector", "volume_deficit"])
    record_dir = simulate(cfg, tmp_path)
    _, raw = load_record(record_dir)
    text_rows = (record_dir / "raw.csv").read_text().strip().split("\n")[1:]
    cell = text_rows[0].split(",")[-2]
    assert float(cell) == raw[0, -2]
    assert len(cell.split(".")[-1]) > 10      # %.17g keeps the full mantissa
