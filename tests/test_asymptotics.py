import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, linalg, special

from blockbeta.asymptotics import (
    AW_REL_TOL,
    InsufficientSpan,
    RateFit,
    _outer_weight,
    aw_asymptotic,
    aw_integral_numeric,
    efron_check,
    fit_rate,
)
from blockbeta.core import BetaParams, BlockStructure, predict_rate
from blockbeta.metacube import QuadratureError
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
        for bad in (math.nan, math.inf):       # every exponent finite
            with pytest.raises(ValueError):
                f((bad, 1.0), n)
            with pytest.raises(ValueError):
                f((1.0, bad), n)


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
    # a bottom tie, and a top tie over a smaller a_3
    for a1, a2, a3 in ((3.0, 2.0, 2.0), (2.0, 2.0, 1.0)):
        want, _ = integrate.tplquad(
            lambda z, y, x: (1 - x * y * z) ** n * x ** a1 * y ** a2 * z ** a3,
            0, 1, 0, 1, 0, 1, epsabs=1e-13, epsrel=1e-11,
        )
        assert aw_integral_numeric((a1, a2, a3), n) == pytest.approx(want, rel=1e-8, abs=0)


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
    # both routes share one check: n finite and at least 3
    for f in (aw_integral_numeric, aw_asymptotic):
        for bad in (2, True, math.inf, math.nan):
            with pytest.raises(ValueError):
                f((2.0, 1.0), bad)
        assert f((1.0,), 3) > 0


def _exact_aw(a, n):
    # integer a: expand (1 - x_1...x_m)^n and integrate each monomial
    total = sum(
        (-1) ** k * math.comb(n, k) * math.prod(Fraction(1, ai + k + 1) for ai in a)
        for k in range(n + 1)
    )
    return float(total)


@pytest.mark.parametrize("a", [(1, 1, 1, 1), (2, 1, 1, 1), (4, 3, 2, 1), (2, 2, 1, 1)])
@pytest.mark.parametrize("n", [10, 40])
def test_aw_m4_against_exact_finite_n(a, n):
    want = _exact_aw(a, n)
    assert aw_integral_numeric(a, n) == pytest.approx(want, rel=AW_REL_TOL, abs=0)


@st.composite
def tied_and_nudged(draw):
    """Exponents with one value repeated, and the index of a copy that is
    not the last one, so that raising it widens one gap only."""
    values = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=4))
    tied = draw(st.sampled_from(values))
    a = sorted(values + [tied], reverse=True)
    return a, a.index(tied)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tied_and_nudged(),
    st.floats(1e-12, 1e-6),
    st.floats(-12.0, math.log10(0.999)),
)
def test_outer_weight_is_continuous_across_near_ties(case, eps, log10_u):
    # W decreases in each gap g_i and |dW/dg_i| <= L W, L = -ln u, so a
    # gap widened by eps moves W by at most eps L relative
    a, j = case
    u = 10.0 ** log10_u
    nudged = list(a)
    nudged[j] += eps
    w_tie = _outer_weight(tuple(a))(u)
    w_eps = _outer_weight(tuple(sorted(nudged, reverse=True)))(u)
    assert abs(w_eps / w_tie - 1.0) <= eps * -math.log(u) + 1e-14


def test_outer_weight_against_matrix_exponential():
    # W(u) = [expm(J L)]_{0,m-1}, J bidiagonal with diagonal
    # (-g_1, ..., -g_{m-1}, 0) and ones above it: an independent route
    gen = np.random.default_rng(14)
    for _ in range(200):
        m = int(gen.integers(1, 6))
        gaps = np.cumsum(gen.uniform(0.1, 2.0, size=m - 1))[::-1]
        a_m = gen.uniform(0.5, 3.0)
        a = tuple(float(a_m + g) for g in gaps) + (float(a_m),)
        u = 10.0 ** gen.uniform(-12.0, math.log10(1.0 - 1e-6))
        L = -math.log(u)
        J = np.diag([-float(g) for g in gaps] + [0.0]) + np.diag(np.ones(m - 1), 1)
        want = linalg.expm(J * L)[0, m - 1]
        assert _outer_weight(a)(u) == pytest.approx(want, rel=1e-12, abs=0), (a, u)


def test_aw_four_cube_third_order_drift():
    # W(u) = (-ln u)^3 / 3! makes the ratio 1 - 3 psi/L + 3 (psi^2 + psi')/L^2
    # - (psi^3 + 3 psi psi' + psi'')/L^3 up to O(L^3/n), psi = psi(2), L = ln n
    a = (1.0, 1.0, 1.0, 1.0)
    psi, psi1, psi2 = special.digamma(2.0), special.polygamma(1, 2.0), special.polygamma(2, 2.0)
    for n in (1e6, 1e9):
        L = math.log(n)
        drift = (1.0 - 3.0 * psi / L + 3.0 * (psi**2 + psi1) / L**2
                 - (psi**3 + 3.0 * psi * psi1 + psi2) / L**3)
        r = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
        assert r == pytest.approx(drift, abs=1e-4)


def test_aw_one_gap_of_one_second_order_drift():
    # a = (2,1,1,1): the weight's Laplace transform 1/(s^3 (s+1)) inverts to
    # W = L^2/2 - L + 1 - u, L = -ln u (the reference cancels near u = 1),
    # and its polynomial part makes the ratio 1 - 2 (psi + 1)/ln n
    # + (psi^2 + psi' + 2 psi + 2)/ln^2 n up to O(1/n), psi = psi(2)
    a = (2.0, 1.0, 1.0, 1.0)
    weight = _outer_weight(a)
    for u in 10.0 ** np.linspace(-12.0, math.log10(0.5), 25):
        L = -math.log(u)
        assert weight(u) == pytest.approx(L * L / 2.0 - L + 1.0 - u, rel=1e-14, abs=0), u
    psi, psi1 = special.digamma(2.0), special.polygamma(1, 2.0)
    for n in (1e6, 1e9):
        L = math.log(n)
        drift = 1.0 - 2.0 * (psi + 1.0) / L + (psi**2 + psi1 + 2.0 * psi + 2.0) / L**2
        r = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
        assert r == pytest.approx(drift, abs=1e-4)


@pytest.mark.parametrize("rel_err, raises", [(1e-14, False), (1e-3, True)])
def test_aw_raises_when_quad_warns_with_a_large_error(monkeypatch, rel_err, raises):
    a, n = (1.0, 0.5), 1e6
    want = aw_integral_numeric(a, n)
    real = integrate.quad

    def warning_quad(*args, **kwargs):
        y, _, info = real(*args, **kwargs)
        return y, rel_err * abs(y), info, "The maximum number of subdivisions (200) has been achieved."

    monkeypatch.setattr(integrate, "quad", warning_quad)
    if raises:
        with pytest.raises(QuadratureError, match="maximum number of subdivisions"):
            aw_integral_numeric(a, n)
    else:                              # a warning with a small error keeps the value
        assert aw_integral_numeric(a, n) == want


# --- rate fitting -------------------------------------------------------


def synth(ns, fn):
    return np.array([[n, fn(n), 0.0] for n in ns])


PRED_HALF = predict_rate(BlockStructure((3,)), BetaParams.uniform(1))


def test_fit_rate_exact_power_law():
    data = synth([100, 300, 1000, 3000, 10000, 30000], lambda n: 7.0 * n ** 0.5)
    fit = fit_rate(data, PRED_HALF.log_power)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_recovers_log_factor():
    pred = predict_rate(BlockStructure((2, 2)), BetaParams.uniform(2))
    assert pred.log_power == 1
    data = synth(
        [100, 300, 1000, 3000, 10000, 100000],
        lambda n: 3.0 * n ** (1.0 / 3.0) * math.log(n),
    )
    fit = fit_rate(data, pred.log_power)
    assert fit.exponent == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert math.exp(fit.log_coeff) == pytest.approx(3.0, rel=1e-10)


def test_fit_rate_weighted():
    gen = np.random.default_rng(0)
    ns = np.geomspace(100, 100000, 8)
    mean = 5.0 * ns ** 0.5
    se = 0.01 * mean
    noisy = mean * np.exp(gen.normal(0.0, 0.01, size=len(ns)))
    data = np.stack([ns, noisy, se], axis=1)
    fit = fit_rate(data, PRED_HALF.log_power)
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
