"""Boundary-layer integrals, their growth laws, and rate fitting.

The integral

    I(n) = int_{[0,1]^m} (1 - x_1...x_m)^n prod x_i^{a_i} dx

with a_1 >= ... >= a_m > 0 controls expected face counts.
Substituting t = n x_1...x_m in the innermost variable and integrating
the outer coordinates exactly turns it into a single smooth integral

    I(n) = n^-(a_m+1) int_0^n (1 - t/n)^n t^{a_m} W(t/n) dt

where W(u) is the outer integral, for any m the divided difference of
exp at the exponent gaps times ln(1/u)^(m-1).
Its leading term is Gamma(a_l+1) n^-(a_l+1) (ln n)^(m-l) divided by
(m-l)! prod_{i<l} (a_i - a_l), with l the first index tied with a_m.

fit_rate estimates growth exponents from simulated means and
local_slopes their adjacent-row log-log slopes; efron_check
tests the exact identity E f_0(hull of n) = n (1 - E vol ratio of n-1)
for uniform sampling, both sides by independent Monte Carlo; verify_aw
holds numeric/asymptotic ratios of I(n) to their known approach rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .core import TIE_REL_TOL, BetaParams, BlockStructure, as_int
from .hull import contains_points, convex_hull
from .metacube import QuadratureError
from .report import Check, Report
from .sampler import as_generator, sample_block_beta

AW_REL_TOL = 1e-10           # relative tolerance asked of each quad block
EFRON_PROBES = 20_000         # uniform probes per volume-ratio estimate


def _exponents(a) -> tuple[float, ...]:
    """The exponents of I(n) as floats, sorted descending, all finite and
    positive."""
    a = tuple(sorted((float(x) for x in a), reverse=True))
    if not a or not all(math.isfinite(x) for x in a) or a[-1] <= 0:
        raise ValueError(f"need one or more finite positive exponents, got {a}")
    return a


def _size(n) -> float:
    """The n of I(n) as a float: finite and at least 3."""
    n = float(n)
    if not (math.isfinite(n) and n >= 3.0):
        raise ValueError(f"need finite n >= 3, got n={n}")
    return n


def _outer_weight(a: tuple[float, ...]):
    """W(u) = integral over the outer m-1 coordinates of the region
    {prod x_i >= u} with weights x_i^(a_i - a_m - 1): L^(m-1) exp[z_1..z_m]
    with L = -ln u, the divided difference of exp at z_i = (a_i - a_m) ln u
    (McCurdy, Ng and Parlett, Math. Comp. 1984).  Nodes 1 or more apart take
    the quotient, closer ones the series exp(c) sum_p h_p(z - c) / (p + r)!
    about their midpoint c, h_p the complete homogeneous sums."""
    gaps = [x - a[-1] for x in a]
    m = len(a)
    inv_fact = [1.0 / math.factorial(k) for k in range(m + 19)]

    def w(u: float) -> float:
        lu = math.log(u)
        z = [g * lu for g in gaps]
        f = [math.exp(x) for x in z]
        for r in range(1, m):
            for i in range(m - r):
                if z[i + r] - z[i] >= 1.0:
                    f[i] = (f[i + 1] - f[i]) / (z[i + r] - z[i])
                    continue
                c = 0.5 * (z[i] + z[i + r])
                # every node lies within 1/2 of c, so |h_p| <= C(p+r, r) 2^-p
                # and the terms past the first 20 add under 1e-24 of the first
                h = [1.0] + [0.0] * 19
                for x in z[i:i + r + 1]:
                    for p in range(1, 20):
                        h[p] += (x - c) * h[p - 1]
                f[i] = math.exp(c) * sum(hp * inv_fact[p + r] for p, hp in enumerate(h))
        return (-lu) ** (m - 1) * f[0]

    return w


def aw_integral_numeric(a, n: float) -> float:
    """Deterministic evaluation of I(n) for exponents a, any m = len(a).

    Accuracy is limited by the 1-D adaptive quadrature (relative
    tolerance AW_REL_TOL requested); the integrand is evaluated in log
    space to stay stable at large n.  Raises QuadratureError when quad
    warns and its error estimate exceeds 100 times that tolerance.
    """
    a = _exponents(a)
    n = _size(n)
    w = _outer_weight(a)
    am = a[-1]

    def integrand(t: float) -> float:
        if t <= 0.0 or t >= n:
            return 0.0
        lg = n * math.log1p(-t / n) + am * math.log(t)
        return math.exp(lg) * w(t / n)

    # the mass sits at t = O(log n); integrate outward in decades and
    # stop once a block stops contributing
    cuts = [0.0, 1.0]
    while cuts[-1] < n:
        cuts.append(min(cuts[-1] * 10.0, n))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        piece, abserr, _, *warning = scipy.integrate.quad(
            integrand, lo, hi, epsabs=1e-300, epsrel=AW_REL_TOL, limit=200, full_output=1
        )
        total += piece
        if warning and abserr > 100.0 * AW_REL_TOL * abs(total):
            raise QuadratureError(warning[0], best=n ** -(am + 1.0) * total,
                                  err=n ** -(am + 1.0) * abserr)
        if piece < 1e-14 * total and lo >= 1.0:
            break
    return n ** -(am + 1.0) * total


def aw_asymptotic(a, n: float) -> float:
    """Leading-order growth law of I(n) for exponents a.

    With l the smallest index tied with a_m (ties within 1e-12):
    Gamma(a_l + 1) n^-(a_l+1) (ln n)^(m-l) / ((m-l)! prod_{i<l} (a_i - a_l)).
    The (m-l)! comes from the m-l outer coordinates tied with a_m: their
    share of W(u) is the simplex volume (-ln u)^(m-l) / (m-l)!.
    """
    a = _exponents(a)
    n = _size(n)
    m = len(a)
    ell = m
    while ell > 1 and a[ell - 2] - a[-1] <= TIE_REL_TOL * max(1.0, abs(a[-1])):
        ell -= 1
    a_l = a[ell - 1]
    denom = math.factorial(m - ell)
    for i in range(ell - 1):
        denom *= a[i] - a_l
    return math.gamma(a_l + 1.0) * n ** -(a_l + 1.0) * math.log(n) ** (m - ell) / denom


@dataclass(frozen=True)
class RateFit:
    """Fitted growth law mean ~ exp(log_coeff) n^exponent (ln n)^p, for the
    log power p the fit was given."""

    exponent: float
    exponent_se: float
    log_coeff: float
    r_squared: float


class InsufficientSpan(ValueError):
    """Fit data must cover >= 5 distinct n over >= 1.5 decades."""


def _as_triples(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("data must be (n, mean, se) triples")
    if np.any(arr[:, 0] < 3) or np.any(arr[:, 1] <= 0):
        raise ValueError("need n >= 3 and positive means")
    return arr


def fit_rate(data, log_power: int) -> RateFit:
    """Weighted least squares for the growth exponent of mean counts.

    data: triples (n, mean, se).  The (ln n) power is pinned to
    log_power, so only slope and intercept are free.  Weights are 1/se^2
    on the log scale; rows with se == 0 switch the fit to unweighted.
    """
    arr = _as_triples(data)
    ns = np.unique(arr[:, 0])
    if len(ns) < 5:
        raise InsufficientSpan(f"need >= 5 distinct n values, got {len(ns)}")
    span = math.log10(ns.max() / ns.min())
    if span < 1.5:
        raise InsufficientSpan(f"n spans {span:.2f} decades, need >= 1.5")

    n, mean, se = arr[:, 0], arr[:, 1], arr[:, 2]
    ln_n = np.log(n)
    y = np.log(mean) - float(log_power) * np.log(np.log(n))
    X = np.stack([np.ones_like(ln_n), ln_n], axis=1)

    weighted = np.all(se > 0)
    # delta method: var(log mean) = (se/mean)^2
    wts = (mean / se) ** 2 if weighted else np.ones_like(y)
    sw = np.sqrt(wts)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    cov = np.linalg.pinv((X * wts[:, None]).T @ X)
    resid = y - X @ coef
    if not weighted:                    # unit weights: scale by the residual variance
        cov *= float(resid @ resid) / max(len(y) - X.shape[1], 1)
    tss = float(np.sum(wts * (y - np.average(y, weights=wts)) ** 2))
    rss = float(np.sum(wts * resid ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0

    return RateFit(
        exponent=float(coef[1]),
        exponent_se=float(math.sqrt(max(cov[1, 1], 0.0))),
        log_coeff=float(coef[0]),
        r_squared=r2,
    )


def local_slopes(data) -> tuple[np.ndarray, np.ndarray]:
    """Log-log slopes of the mean between adjacent rows, and their se.

    data: triples (n, mean, se) in increasing n.  The se follows by the
    delta method, var(ln mean) = (se / mean)^2, the rows independent.
    """
    arr = _as_triples(data)
    with np.errstate(divide="ignore", invalid="ignore"):
        dlog_n = np.diff(np.log(arr[:, 0]))
        slopes = np.diff(np.log(arr[:, 1])) / dlog_n
        rel_var = (arr[:, 2] / arr[:, 1]) ** 2
        slope_se = np.sqrt(rel_var[1:] + rel_var[:-1]) / dlog_n
    return slopes, slope_se


def efron_check(
    bs: BlockStructure,
    n: int,
    reps: int = 200,
    *,
    rng,
) -> Report:
    """Mean vertex count vs the volume-ratio identity, uniform sampling.

    E f_0(hull of n points) = n (1 - E Vol(hull of n-1)/Vol(container)).
    The left side averages vertex counts; the right side estimates each
    volume ratio by hit-or-miss membership of fresh uniform probes.
    Passes when the 3-sigma intervals overlap.
    """
    # at n = d+1 the identity is vacuous (f_0 = n a.s., the n-1 point
    # hull is flat) and the volume estimator has no hull to probe
    n = as_int(n, "n", least=bs.dim + 2)
    reps = as_int(reps, "reps", least=2)      # a standard error needs two
    gen = as_generator(rng)
    bp = BetaParams.uniform(bs.m)
    f0 = np.empty(reps)
    ratio = np.empty(reps)
    for r in range(reps):
        pts = sample_block_beta(bs, bp, gen, size=n)
        f0[r] = len(convex_hull(pts).vertex_ids)
        pts2 = sample_block_beta(bs, bp, gen, size=n - 1)
        hull2 = convex_hull(pts2)
        probes = sample_block_beta(bs, bp, gen, size=EFRON_PROBES)
        ratio[r] = contains_points(hull2, probes).mean()
    lhs = float(f0.mean())
    se_l = float(f0.std(ddof=1) / math.sqrt(reps))
    rhs = float(n * (1.0 - ratio.mean()))
    se_r = float(n * ratio.std(ddof=1) / math.sqrt(reps))
    gapped = abs(lhs - rhs) <= 3.0 * (se_l + se_r)
    rep = Report(title=f"vertex-count identity dims={bs.dims} n={n}")
    rep.add(Check(
        name="f0_vs_volume_identity",
        value=lhs, reference=rhs,
        stat_name="z",
        stat=(lhs - rhs) / math.hypot(se_l, se_r) if se_l + se_r > 0 else 0.0,
        passed=gapped,
    ))
    return rep


def verify_aw(n: float) -> Report:
    """Numeric/asymptotic ratios against their known approach rates.

    Distinct exponents converge at a power of n, so the ratio sits at 1.
    A tie at the bottom drifts like 1 - c2/ln n with c2 = psi(a_min + 1)
    plus 1/(a_i - a_min) for each untied exponent above (digamma from
    integrating t^a ln t, the reciprocal gaps from the outer coordinates'
    constant modes); the checks compare against that corrected value.
    """
    rep = Report(title=f"boundary-layer integral ratios at n={n:g}")
    gamma = 0.5772156649015329
    cases = [
        ((2.0,), 0.0),
        ((2.0, 1.0), 0.0),
        ((3.0, 2.0, 1.0), 0.0),
        ((1.0, 1.0), 1.0 - gamma),            # psi(2)
        ((3.0, 2.0, 2.0), 1.5 - gamma + 1.0),  # psi(3) + 1/(3-2)
    ]
    for a, c2 in cases:
        ratio = aw_integral_numeric(a, n) / aw_asymptotic(a, n)
        ref = 1.0 - c2 / math.log(n)
        rep.add(Check(
            name=f"ratio[a={a}]", value=ratio, reference=ref,
            stat_name="|ratio-ref|", stat=abs(ratio - ref),
            passed=abs(ratio - ref) <= 0.01,
        ))
    return rep
