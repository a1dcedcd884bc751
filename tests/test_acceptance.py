"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a ``[PRIMARY-kk]`` verdict line (visible with ``-s`` or
in the captured output) and asserts the stated tolerance.  One check
fails at desk scale: PRIMARY-06, whose (2,1,1) vertex rate fit over
n <= 1e5 reads 0.439 against 0.333 +- 0.06.  Whether that is a
pre-asymptotic transient or a log factor the prediction leaves out is
not settled (see README).  It runs verbatim; its failure message prints
the fit and the local slopes, with their standard errors, from its own rows.
"""

import math
from functools import partial

import numpy as np
import pytest
from scipy import special, stats

from blockbeta.asymptotics import (
    aw_asymptotic,
    aw_integral_numeric,
    efron_check,
    fit_rate,
    local_slopes,
)
from blockbeta.cli import ExperimentConfig, default_n_grid, replicate_rows, run_threads, simulate
from blockbeta.core import BlockStructure, BetaParams, predict_rate
from blockbeta.hull import (
    brute_force_facets,
    convex_hull,
    euler_relation_holds,
    f_vector,
    lower_face_bounds_hold,
    ridges_regular,
)
from blockbeta.metacube import verify_bounds, verify_reduction
from blockbeta.sampler import BetaBallLaw, RngStream, sample_beta_ball


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


# ---------------------------------------------------------------------------
# 1. hull structural properties on random inputs


def test_primary_01_hull_properties():
    bad = []
    for d in range(2, 7):
        for i in range(200):
            gen = RngStream(101, d * 1000 + i).generator()
            n = int(gen.integers(d + 2, 201))
            pts = gen.standard_normal((n, d))
            hull = convex_hull(pts)
            fv = f_vector(hull)
            if not (
                euler_relation_holds(fv)
                and ridges_regular(hull)
                and lower_face_bounds_hold(fv)
            ):
                bad.append((d, i, n))
    _verdict("PRIMARY-01", not bad, f"{1000 - len(bad)}/1000 hulls satisfy all three properties")
    assert not bad, f"property violations on {bad[:5]}"


# ---------------------------------------------------------------------------
# 2. facet sets equal the exhaustive oracle


def test_primary_02_hull_oracle_equivalence():
    mismatches = []
    for i in range(200):
        gen = RngStream(102, i).generator()
        d = int(gen.integers(2, 5))
        n = int(gen.integers(d + 2, 16))
        pts = gen.standard_normal((n, d))
        got = {tuple(sorted(f)) for f in convex_hull(pts).facet_vertices}
        want = {tuple(sorted(f)) for f in brute_force_facets(pts)}
        if got != want:
            mismatches.append((d, n, i))
    _verdict("PRIMARY-02", not mismatches, f"{200 - len(mismatches)}/200 facet sets match")
    assert not mismatches, f"oracle mismatches at {mismatches[:5]}"


# ---------------------------------------------------------------------------
# 3. sampler radial law and projection property


def test_primary_03_sampler_law():
    failures = []
    for k in (1, 2, 3, 4):
        for beta in (0.0, 0.5, 2.0):
            gen = RngStream(303, k * 10 + int(2 * beta)).generator()
            x = sample_beta_ball(BetaBallLaw(k, beta), gen, size=4000)
            t = np.sum(x * x, axis=1)
            p = stats.kstest(t, lambda u: special.betainc(k / 2, beta + 1, u)).pvalue
            if p <= 0.01:
                failures.append((k, beta, p))
    # dropping coordinates of a uniform draw lands on the beta law with
    # weight (full - kept)/2
    gen = RngStream(303, 99).generator()
    proj = sample_beta_ball(BetaBallLaw(4, 0.0), gen, size=4000)[:, :2]
    direct = sample_beta_ball(BetaBallLaw(2, 1.0), gen, size=4000)
    p2 = stats.ks_2samp(np.sum(proj**2, axis=1), np.sum(direct**2, axis=1)).pvalue
    if p2 <= 0.01:
        failures.append(("projection", p2))
    _verdict("PRIMARY-03", not failures, "12 radial KS + projection all above the 1% level")
    assert not failures, f"distribution checks rejected: {failures}"


# ---------------------------------------------------------------------------
# 4. halfspace mass equals constant times the quotient-cube quadrature


def test_primary_04_reduction():
    cases = [(ci, dims, bi, beta)
             for ci, dims in enumerate(((2, 1), (2, 2), (3, 1), (1, 1, 1)))
             for bi, beta in enumerate((0.0, 0.5))]

    def run(case):
        ci, dims, bi, beta = case
        return verify_reduction(
            BlockStructure(dims), BetaParams(tuple(beta for _ in dims)),
            trials=50, n_samples=1_000_000, rng=RngStream(404, ci * 2 + bi),
        )

    # each case draws from its own stream, and the pass count is a sum, so
    # the pool's two threads (Monte Carlo beside quadrature) give the serial verdict
    reports = run_threads([partial(run, case) for case in cases], range(len(cases)))
    checks = [c for rep in reports for c in rep.checks]
    total = len(checks)
    passed = sum(c.passed for c in checks)
    frac = passed / total
    _verdict("PRIMARY-04", frac >= 0.98, f"{passed}/{total} halfspace masses within 3 sigma")
    assert frac >= 0.98, f"pass fraction {frac:.3f} below 0.98"


# ---------------------------------------------------------------------------
# 5. closed-form integral against its asymptotic formula at n = 1e6


def _tie_drift(a) -> float:
    """c2 in ratio = 1 - c2/ln n + O(ln n / n), for at most two exponents
    tied at the minimum.

    A single minimum converges at a power of n, so c2 = 0.  With a pair
    tied at the minimum the outer weight is linear in ln u: integrating
    ln t against t^a_min e^-t gives psi(a_min + 1), and each untied
    exponent adds its constant mode 1/(a_i - a_min).
    """
    a_min = min(a)
    tied = sum(x == a_min for x in a)
    assert tied <= 2, "the drift below holds for a tied pair only"
    if tied == 1:
        return 0.0
    return float(special.digamma(a_min + 1.0)) + sum(
        1.0 / (x - a_min) for x in a if x != a_min
    )


def test_primary_05_integral_asymptotics():
    # the leading term alone is off by exactly c2/ln n for a tie (0.139
    # for a = (3,2,2) at n = 1e6), so each ratio is held to 1 - c2/ln n
    cases = [
        ((2.0,), 0.05),
        ((2.0, 1.0), 0.05),
        ((3.0, 2.0, 1.0), 0.05),
        ((1.0, 1.0), 0.10),
        ((3.0, 2.0, 2.0), 0.10),
    ]
    n = 1_000_000
    misses = []
    for a, tol in cases:
        ratio = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
        ref = 1.0 - _tie_drift(a) / math.log(n)
        ok = abs(ratio - ref) <= tol
        print(
            f"  a={a}: ratio {ratio:.6f}, reference {ref:.6f}, "
            f"band +-{tol}: {'ok' if ok else 'MISS'}"
        )
        if not ok:
            misses.append((a, ratio, ref, tol))
    _verdict("PRIMARY-05", not misses, "numeric/asymptotic ratios at n=1e6 against 1 - c2/ln n")
    assert not misses, f"ratio misses: {misses}"


# ---------------------------------------------------------------------------
# 6. vertex-count growth for the five product bodies of dimension 4


GRID = default_n_grid()
REPS = 10


def _fit_f0(dims, root_seed: int, container_index: int):
    bs = BlockStructure(dims)
    bp = BetaParams.uniform(bs.m)
    pred = predict_rate(bs, bp)
    # rep r at grid point i_n draws from stream
    # (container_index * len(GRID) + i_n) * REPS + r, as simulate numbers its rows
    results = replicate_rows(bs, bp, [n for n in GRID for _ in range(REPS)], root_seed,
                             first_stream=container_index * len(GRID) * REPS)
    rows = []
    for i_n, n in enumerate(GRID):
        v = np.asarray([fv[0] for fv, _, _ in results[i_n * REPS:(i_n + 1) * REPS]],
                       dtype=float)
        rows.append((float(n), v.mean(), v.std(ddof=1) / math.sqrt(REPS)))
    fit = fit_rate(np.asarray(rows), pred.log_power)
    return pred, fit, np.asarray(rows)


def test_primary_06_growth_rates_dim4():
    containers = [
        ((4,), 0.600, 0.06),
        ((3, 1), 0.500, 0.06),
        ((2, 2), 0.333, 0.08),
        ((2, 1, 1), 0.333, 0.06),
        ((1, 1, 1, 1), 0.0, 0.05),
    ]
    misses = []
    top_means = []
    rows_by_dims = {}
    for ci, (dims, target, tol) in enumerate(containers):
        pred, fit, rows = _fit_f0(dims, 600, ci)
        top_means.append((dims, rows[-1][1]))
        rows_by_dims[dims] = rows
        ok = abs(fit.exponent - target) <= tol
        print(
            f"  {dims}: fitted exponent {fit.exponent:.4f}+-{fit.exponent_se:.4f} "
            f"(log power {pred.log_power}), target {target}+-{tol}: {'ok' if ok else 'MISS'}"
        )
        if not ok:
            misses.append((dims, fit.exponent, target, tol))
        if dims == (1, 1, 1, 1):
            # the cube grows like (ln n)^3: the plain-scale slope against
            # (ln n)^3 must come out positive
            lncube = np.log(rows[:, 0]) ** 3
            slope = float(np.polyfit(lncube, rows[:, 1], 1)[0])
            print(f"  {dims}: mean f0 vs (ln n)^3 slope {slope:.3f}")
            if slope <= 0:
                misses.append((dims, "nonpositive log-cube coefficient"))
    order_ok = all(top_means[i][1] > top_means[i + 1][1] for i in range(4))
    print(
        "  f0 means at n=1e5, largest container first: "
        + " > ".join(f"{dims}:{mean:.0f}" for dims, mean in top_means)
        + (" (ordered)" if order_ok else " (ORDER VIOLATION)")
    )
    ok = not misses and order_ok
    _verdict("PRIMARY-06", ok, "growth-rate fits and ordering at desk scale")
    if not order_ok:
        pytest.fail(f"f0 ordering at n=1e5 violated: {top_means}")
    if [m[0] for m in misses] == [(2, 1, 1)]:
        slopes, slope_se = local_slopes(rows_by_dims[(2, 1, 1)])
        pytest.fail(
            "known desk-scale miss: (2,1,1) whole-grid fit "
            f"{misses[0][1]:.4f} against 0.333+-0.06; local slopes across the grid: "
            f"{' '.join(f'{s:.2f}+-{e:.2f}' for s, e in zip(slopes, slope_se))}; a transient "
            "or a log factor left out of the prediction (see README)"
        )
    assert not misses, f"rate fits outside documented behavior: {misses}"


# ---------------------------------------------------------------------------
# 7. low-dimension growth-rate spot checks


def test_primary_07_growth_rates_low_dim():
    cases = [
        ((2,), 1.0 / 3.0, 0.05),
        ((3,), 0.5, 0.05),
        ((2, 1), 1.0 / 3.0, 0.05),
        ((1, 1), 0.0, 0.05),
        ((1, 1, 1), 0.0, 0.05),
    ]
    misses = []
    for ci, (dims, target, tol) in enumerate(cases):
        pred, fit, _ = _fit_f0(dims, 700, ci)
        ok = abs(fit.exponent - target) <= tol
        print(
            f"  {dims}: fitted exponent {fit.exponent:.4f} "
            f"(log power {pred.log_power}), target {target:.3f}+-{tol}: {'ok' if ok else 'MISS'}"
        )
        if not ok:
            misses.append((dims, fit.exponent, target))
    _verdict("PRIMARY-07", not misses, "plane and space growth-rate spot checks")
    assert not misses, f"rate spot checks missed: {misses}"


# ---------------------------------------------------------------------------
# 8. vertex count vs missed volume identity


def test_primary_08_efron_identity():
    bs = BlockStructure((2, 1))
    bad = []
    for n in (100, 1000):
        rep = efron_check(bs, n, reps=200, rng=RngStream(808, n))
        if not rep.passed:
            bad.append((n, rep.checks))
    _verdict("PRIMARY-08", not bad, "3-sigma overlap at n=100 and n=1000")
    assert not bad, f"identity violated: {bad}"


# ---------------------------------------------------------------------------
# 9. cap/section two-sided bound envelopes


def test_primary_09_bound_envelopes():
    bad = []
    for betas in ((2.0,), (0.5, 0.5), (0.0, 1.0, 0.5)):
        rep = verify_bounds(betas)
        if not rep.passed:
            bad.append((betas, [c for c in rep.checks if not c.passed]))
    _verdict("PRIMARY-09", not bad, "log-log slopes flat and ratio spreads bounded, m=1,2,3")
    assert not bad, f"bound envelope checks failed: {bad}"


# ---------------------------------------------------------------------------
# 10. byte-identical output across worker counts


def test_primary_10_determinism(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "name": "determinism-gate",
            "block_dims": [2, 1],
            "betas": [0, 0],
            "n_grid": [40, 80, 160],
            "reps": 4,
            "root_seed": 1010,
            "observables": ["f_vector", "volume_deficit"],
        }
    )
    out1 = simulate(config, tmp_path / "w1", workers=1)
    out2 = simulate(config, tmp_path / "w2", workers=2)
    b1 = (out1 / "raw.csv").read_bytes()
    b2 = (out2 / "raw.csv").read_bytes()
    _verdict("PRIMARY-10", b1 == b2, "raw.csv identical for 1 and 2 workers")
    assert b1 == b2
