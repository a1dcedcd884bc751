import json
import multiprocessing
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import blockbeta.cli as cli
from blockbeta.cli import (
    RETRY_STRIDE,
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
    n_grid=st.lists(st.integers(13, 10 ** 6), min_size=1, max_size=5),
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
    agg = record["aggregates"]
    assert agg["n"] == [20, 40]
    assert len(agg["f_0"]["mean"]) == 2
    assert "volume_deficit" in agg


def test_simulate_without_volume_leaves_column_empty(tmp_path):
    record_dir = simulate(make_config(), tmp_path)
    rows = (record_dir / "raw.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[-2] == "" for row in rows)


def test_simulate_deterministic_across_workers(tmp_path):
    cfg = make_config(name="w1")
    d1 = simulate(cfg, tmp_path / "a", workers=1)
    d2 = simulate(cfg, tmp_path / "b", workers=2)
    assert (d1 / "raw.csv").read_bytes() == (d2 / "raw.csv").read_bytes()


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


def test_record_counts_retried_rows_per_n(tmp_path, monkeypatch):
    plain = json.loads((simulate(make_config(), tmp_path / "plain") / "record.json").read_text())
    assert plain["retries"] == {"n": [20, 40], "rows": [0, 0]}

    calls = degenerate_once(monkeypatch)
    record_dir = simulate(make_config(), tmp_path / "retried")
    assert calls[:2] == [20, 20]
    record = json.loads((record_dir / "record.json").read_text())
    assert record["retries"] == {"n": [20, 40], "rows": [1, 0]}
    _, raw = load_record(record_dir)
    assert raw[0, -1] == RETRY_STRIDE and (raw[1:, -1] < RETRY_STRIDE).all()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched sampler")
def test_retry_is_deterministic_across_workers(tmp_path, monkeypatch):
    # stream 9 draws a flat cloud; 12 rows make two chunks of the pool
    # map, so the retried row is built in a worker of its own
    real_sample = cli.sample_block_beta

    def flat_on_stream_9(bs, bp, rng, size):
        pts = real_sample(bs, bp, rng, size=size)
        return np.zeros_like(pts) if rng.stream_index == 9 else pts

    monkeypatch.setattr(cli, "sample_block_beta", flat_on_stream_9)
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

    assert main(["fit", "--record", str(record_dir)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-2].startswith("fitted (free)")
    label, _, values = out[-1].partition(": ")
    assert label == "local slopes"
    slopes = [float(x) for x in values.split()]
    assert slopes == pytest.approx([0.37] * (len(grid) - 1), abs=1e-4)


def test_main_internal_error_exits_3(monkeypatch, capsys):
    def no_convergence(seed, trials, samples):
        raise QuadratureError("did not converge", best=0.5, err=0.1)

    monkeypatch.setitem(SUITES, "aw", no_convergence)
    assert main(["verify", "--suite", "aw"]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: QuadratureError: did not converge\n"


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
])
def test_main_malformed_input_is_a_usage_error(tmp_path, capsys, argv, config):
    if argv[0] == "simulate":
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path), "--out", str(tmp_path / "out")]
    elif argv[0] == "plot":
        argv = [*argv, "--out-script", str(tmp_path / "fig.gp")]
    if argv[0] in ("fit", "plot"):
        cfg = write_config(tmp_path, n_grid=[10, 32, 100, 320, 1000], reps=2)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        record_dir = tmp_path / "out" / "cli"
        if config is not None:
            name, text = config if isinstance(config, tuple) else ("record.json", config)
            (record_dir / name).write_text(text)
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


def test_main_budget_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, block_dims=[4], n_grid=[100000], reps=100000)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "budget" in capsys.readouterr().err


def test_main_missing_record(capsys):
    assert main(["fit", "--record", "/no/such/dir"]) == 2
    capsys.readouterr()


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


def test_verify_all_runs_each_suite_in_registry_order(capsys):
    small = ["--samples", "4000", "--trials", "20"]
    assert main(["verify", "--suite", "all", *small]) == 0
    together = capsys.readouterr().out
    alone = []
    for name in SUITES:
        assert main(["verify", "--suite", name, *small]) == 0
        alone.append(capsys.readouterr().out)
    assert together == "".join(alone)


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
