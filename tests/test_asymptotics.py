import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, special

from blockbeta.asymptotics import (
    InsufficientSpan,
    RateFit,
    aw_asymptotic,
    aw_integral_numeric,
    efron_check,
    fit_rate,
)
from blockbeta.core import BetaParams, BlockStructure, predict_rate
from blockbeta.sampler import RngStream


def test_aw_exponents_sort_and_validate():
    # the exponents' order does not matter: both routes sort them
    n = 1e4
    for f in (aw_integral_numeric, aw_asymptotic):
        assert f((1.0, 3.0, 2.0), n) == f((3.0, 2.0, 1.0), n)
        assert f([2, 1], n) == f((2.0, 1.0), n)
        with pytest.raises(ValueError):
            f((), n)                           # at least one exponent
        with pytest.raises(ValueError):
            f((1.0, -1.0), n)                  # every exponent positive
        with pytest.raises(ValueError):
            f((2.0, 0.0), n)


def test_aw_m1_exact_beta_function():
    # I(n) = int_0^1 (1-x)^n x^a dx = B(a+1, n+1)
    for a, n in [(2.0, 50), (3.5, 200)]:
        want = math.exp(special.betaln(a + 1.0, n + 1.0))
        assert aw_integral_numeric((a,), n) == pytest.approx(want, rel=1e-9, abs=0)


def test_aw_m2_against_direct_quadrature():
    for a, n in [((2.0, 1.0), 60), ((1.0, 1.0), 60)]:
        want, _ = integrate.dblquad(
            lambda y, x: (1 - x * y) ** n * x ** a[0] * y ** a[1],
            0, 1, 0, 1, epsabs=1e-13, epsrel=1e-12,
        )
        assert aw_integral_numeric(a, n) == pytest.approx(want, rel=1e-8, abs=0)


def test_aw_m3_against_direct_quadrature():
    n = 50
    want, _ = integrate.tplquad(
        lambda z, y, x: (1 - x * y * z) ** n * x ** 3 * y ** 2 * z ** 2,
        0, 1, 0, 1, 0, 1, epsabs=1e-13, epsrel=1e-11,
    )
    assert aw_integral_numeric((3.0, 2.0, 2.0), n) == pytest.approx(want, rel=1e-8, abs=0)


def test_aw_asymptotic_formulas():
    n = 1e8
    # abs=0: these values sit far below approx's default abs of 1e-12
    # distinct: Gamma(a_m+1) n^{-(a_m+1)} / prod gaps
    assert aw_asymptotic((5.0, 1.0), n) == pytest.approx(
        special.gamma(2.0) * n ** -2.0 / 4.0, rel=1e-12, abs=0
    )
    # bottom tie: ell = 2, one log factor, gap product over i < ell
    assert aw_asymptotic((3.0, 2.0, 2.0), n) == pytest.approx(
        special.gamma(3.0) * n ** -3.0 * math.log(n) / (3.0 - 2.0), rel=1e-12, abs=0
    )
    # single exponent: no log factor
    assert aw_asymptotic((2.5,), n) == pytest.approx(
        special.gamma(3.5) * n ** -3.5, rel=1e-12, abs=0
    )
    # all three tied: two log factors over 2!
    a = (2.0, 2.0, 2.0)
    assert aw_asymptotic(a, n) == pytest.approx(
        special.gamma(3.0) * n ** -3.0 * math.log(n) ** 2 / 2.0, rel=1e-12, abs=0
    )
    # W(u) = ln^2(u)/2 makes the ratio 1 - 2 psi/L + (psi^2 + psi')/L^2
    # up to O(L^2/n), with psi = psi(a+1) and L = ln n
    psi, psi1 = special.digamma(3.0), special.polygamma(1, 3.0)
    for n in (1e6, 1e15):
        L = math.log(n)
        r = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
        assert r == pytest.approx(1.0 - 2.0 * psi / L + (psi**2 + psi1) / L**2, abs=1e-4)


def test_aw_ratio_converges_case1():
    for a in [(2.0,), (2.0, 1.0), (3.0, 2.0, 1.0)]:
        r = aw_integral_numeric(a, 1e6) / aw_asymptotic(a, 1e6)
        assert abs(r - 1.0) < 1e-3, f"a={a}: ratio={r}"


def test_aw_ratio_tied_second_order():
    # ties approach 1 like 1 - c2/ln n; check the measured drift constant
    gamma = 0.5772156649015329
    for a, c2 in [((1.0, 1.0), 1.0 - gamma), ((3.0, 2.0, 2.0), 2.5 - gamma)]:
        for n in (1e6, 1e9):
            r = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
            assert r == pytest.approx(1.0 - c2 / math.log(n), abs=2e-3)


def test_aw_requires_reasonable_n():
    with pytest.raises(ValueError):
        aw_integral_numeric((1.0,), 2)
    assert aw_integral_numeric((1.0,), 3) > 0


# --- rate fitting -------------------------------------------------------


def synth(ns, fn):
    return np.array([[n, fn(n), 0.0] for n in ns])


PRED_HALF = predict_rate(BlockStructure((3,)), BetaParams.uniform(1))


def test_fit_rate_exact_power_law():
    data = synth([100, 300, 1000, 3000, 10000, 30000], lambda n: 7.0 * n ** 0.5)
    fit = fit_rate(data, PRED_HALF.log_power, model="fixed")
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.model == "fixed_log_power(0)"


def test_fit_rate_recovers_log_factor():
    pred = predict_rate(BlockStructure((2, 2)), BetaParams.uniform(2))
    assert pred.log_power == 1
    data = synth(
        [100, 300, 1000, 3000, 10000, 100000],
        lambda n: 3.0 * n ** (1.0 / 3.0) * math.log(n),
    )
    fit = fit_rate(data, pred.log_power, model="fixed")
    assert fit.exponent == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert math.exp(fit.log_coeff) == pytest.approx(3.0, rel=1e-10)


def test_fit_rate_free_model():
    data = synth(
        [100, 300, 1000, 3000, 10000, 100000],
        lambda n: 3.0 * n ** 0.25 * math.log(n) ** 2,
    )
    pred = predict_rate(BlockStructure((3,)), BetaParams.uniform(1))
    fit = fit_rate(data, pred.log_power, model="free")
    assert fit.model == "free"
    assert fit.exponent == pytest.approx(0.25, abs=1e-9)
    assert fit.log_power == pytest.approx(2.0, abs=1e-7)


def test_fit_rate_weighted():
    gen = np.random.default_rng(0)
    ns = np.geomspace(100, 100000, 8)
    mean = 5.0 * ns ** 0.5
    se = 0.01 * mean
    noisy = mean * np.exp(gen.normal(0.0, 0.01, size=len(ns)))
    data = np.stack([ns, noisy, se], axis=1)
    fit = fit_rate(data, PRED_HALF.log_power, model="fixed")
    assert fit.exponent == pytest.approx(0.5, abs=0.02)
    assert fit.exponent_se < 0.02


def test_fit_rate_span_guards():
    with pytest.raises(InsufficientSpan):
        fit_rate(synth([100, 200, 300, 400], lambda n: n), PRED_HALF.log_power)
    with pytest.raises(InsufficientSpan):
        fit_rate(
            synth([100, 120, 140, 160, 180, 200], lambda n: n), PRED_HALF.log_power
        )


def test_fit_rate_rejects_malformed():
    with pytest.raises(ValueError):
        fit_rate(np.ones((6, 2)), PRED_HALF.log_power)


def test_rate_fit_is_frozen_record():
    data = synth([100, 300, 1000, 3000, 10000], lambda n: n ** 0.5)
    fit = fit_rate(data, PRED_HALF.log_power)
    assert isinstance(fit, RateFit)
    with pytest.raises(AttributeError):
        fit.exponent = 0.1


def test_aw_numeric_is_the_same_from_two_threads():
    cases = [(2.0,), (2.0, 1.0), (3.0, 2.0, 1.0), (1.0, 1.0)]
    serial = [aw_integral_numeric(a, 1e6) for a in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # hand the GIL over as often as possible
    try:
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(lambda a: aw_integral_numeric(a, 1e6), cases))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# --- vertex-count identity ----------------------------------------------


def test_efron_identity_small():
    rep = efron_check(
        BlockStructure((1, 1)), n=40, reps=60, rng=RngStream(29, 0),
    )
    assert rep.passed, "\n" + str(rep)


def test_efron_needs_enough_points():
    with pytest.raises(ValueError):
        efron_check(BlockStructure((2, 1)), n=3, reps=5, rng=RngStream(0, 0))
