"""Weighted caps and sections of the cube [-1,1]^m, and the reduction
of halfspace mass in a ball product to such cube integrals.

Integrating the block-beta density over a halfspace {x . w >= s} of the
ball product collapses, block by block, onto the cube [-1,1]^m carrying
the product density prod_i c_{beta~_i} (1 - y_i^2)^{beta~_i} with
shifted weights beta~_i = (d_i - 1)/2 + beta_i.  The direction w turns
into a nonnegative unit vector v of block norms, the halfspace into the
meta-cap C+(v, s) = [-1,1]^m cap {y . v >= s}.  The conversion constant
prod_i c_{beta_i,d_i} / (c_{beta_i,d_i-1} c_{beta~_i,1}) telescopes to
exactly 1; reduction_constant computes it anyway so the verification
multiplies by what the identity states rather than assuming it.

Cap and section contents are evaluated by nested adaptive quadrature.
Caps and sections share one outer level, _outer_levels, which clamps
each coordinate to where the later ones can still reach the cap or
slice; each route supplies its own innermost level, for caps in closed
form through the incomplete beta function.  The cap routes hoist that
closed form's constants (density constant, 2 4^beta, the beta function
B(a, a)) out of the integrand, computing them once per cap, and call
the scalar scipy.special.cython_special.betainc per point instead of
the special.betainc ufunc.  The floating-point operations keep the order
incomplete_beta gives them, so every cap value is bit-identical to
evaluating the closed form through incomplete_beta; the tests hold the
two equal.  Thin caps near the corner (one_norm - s < min v_i) are
first mapped onto the unit cube by the corner-simplex substitution
y_i = 1 - t_i (1 - z_i) prod_{l<i} z_l, which removes the cancellation
that direct integration of a sliver would suffer.  The quadrature
tolerances are module constants, the same for every call: absolute
QUAD_ABS_TOL, relative QUAD_REL_TOL, at most QUAD_LIMIT subintervals.

The verify_* functions are the numeric referees: each compares two
independent routes (Monte Carlo vs quadrature, sphere decomposition,
chord decomposition, order-of-magnitude bounds) and emits a Report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from .core import BetaParams, BlockStructure, _check_pair, as_int, beta_floats
from .report import Check, Report
from .sampler import (
    CHUNK_ROWS,
    RngStream,
    as_generator,
    ball_density_const,
    block_beta_chunks,
    row_norms,
)

ZERO_COMPONENT_TOL = 1e-14
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 512                 # QUADPACK's cap on subintervals

# Gap grid for the order-of-magnitude bound checks.  Gaps are log-spaced
# over BOUNDS_DECADES, topping out at BOUNDS_TOP_FRACTION of the
# admissible range, so the grid stays in the regime where the two-sided
# bounds have settled.
BOUNDS_SEED = 2024
BOUNDS_DIRECTIONS = 3
BOUNDS_GAPS = 12
BOUNDS_DECADES = 3.0
BOUNDS_TOP_FRACTION = 0.05
BOUNDS_SLOPE_TOL = 0.05
BOUNDS_SPREAD_MAX = 1e3
BOUNDS_MIN_COMPONENT = 0.25


class QuadratureError(RuntimeError):
    """Adaptive integration failed to converge; carries the best estimate."""

    def __init__(self, message: str, best: float, err: float):
        super().__init__(message)
        self.best = best
        self.err = err


@dataclass(frozen=True, eq=False)
class MetaCap:
    """Halfspace slice of the cube: {y in [-1,1]^m : y . v >= s}."""

    v: np.ndarray
    s: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("v must be a nonempty vector")
        if np.any(v < 0):
            raise ValueError("v must have nonnegative components")
        # written so that a NaN norm fails it too
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
            raise ValueError(f"v must be a unit vector, got {v}")
        s = float(self.s)
        # s = +-inf is the empty or the full cap; NaN is neither
        if math.isnan(s):
            raise ValueError("s must not be NaN")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", s)

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def one_norm(self) -> float:
        return float(self.v.sum())

    @property
    def s1(self) -> float:
        """Largest s at which the cap still touches all 2^m corners' simplex
        structure; below it the cap is no longer a corner simplex."""
        return float(self.v.sum() - 2.0 * self.v.min())


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Unnormalized incomplete beta B(a,b;x) = int_0^x z^(a-1)(1-z)^(b-1) dz."""
    if a <= 0 or b <= 0:
        raise ValueError(f"parameters must be positive, got a={a}, b={b}")
    x = min(max(float(x), 0.0), 1.0)
    if x == 0.0:
        return 0.0
    return float(scipy.special.betainc(a, b, x) * math.exp(scipy.special.betaln(a, b)))


def _quad(f, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    # read at each call: perfbench's Tracer and the tests patch scipy.integrate.quad
    out = scipy.integrate.quad(
        f, lo, hi,
        epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
        limit=QUAD_LIMIT, full_output=1,
    )
    y, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 100.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(y)):
        raise QuadratureError(str(out[3]), best=float(y), err=float(abserr))
    return float(y)


def _outer_levels(s, consts, betas, v, outer, below, above, inner, inner_floor=None):
    """Chain the outer quadrature levels of a cap or section around inner.

    Level i integrates coordinate j = outer[i] against its weight
    consts[j] (1 - y^2)^betas[j], handing partial + v_j y on to the next
    level and the last level to inner.  The coordinates after level i can
    move y . v by at most below[i] down and above[i] up, so outside
    [(s - partial - below[i]) / v_j, (s - partial + above[i]) / v_j] the
    integrand vanishes; clamping to it keeps quadrature panels on the
    actual support when the cap or slice is thin.  The next level's lower
    limit stops at -1 once the partial sum it gets reaches a floor
    (inner_floor for inner), which kinks the integrand there.  Given
    inner_floor (caps do), a level whose range holds that point strictly
    inside is integrated in two pieces split at it; without it (sections)
    every level is one piece.  Returns level 0 as a function of the
    partial sum.
    """
    def level(c: float, b: float, vj: float, down: float, up: float, floor, nxt):
        def val(partial: float) -> float:
            lo = max(-1.0, (s - partial - down) / vj)
            hi = min(1.0, (s - partial + up) / vj)
            if lo >= hi:
                return 0.0

            def f(y: float) -> float:
                return c * (1.0 - y * y) ** b * nxt(partial + vj * y)

            if floor is not None:
                kink = (floor - partial) / vj
                if lo < kink < hi:
                    return _quad(f, lo, kink) + _quad(f, kink, hi)
            return _quad(f, lo, hi)

        return val

    val, floor = inner, inner_floor
    for i in reversed(range(len(outer))):
        j = outer[i]
        # v as Python floats: the same arithmetic as numpy scalars, but faster
        vj, down = float(v[j]), float(below[i])
        val = level(consts[j], betas[j], vj, down, float(above[i]), floor, val)
        if floor is not None:       # where this level's lower limit reaches -1
            floor = s - down + vj
    return val


def _cap_general(v, s, betas) -> float:
    # imported by name: cython_special is not an attribute of scipy.special
    from scipy.special.cython_special import betainc

    consts = [ball_density_const(1, b) for b in betas]
    order = np.argsort(v)          # innermost = largest component
    inner = int(order[-1])
    outer = [int(i) for i in order[:-1]]
    # sup of what coordinates after level i can still contribute to y.v
    rest = [v[inner] + sum(v[j] for j in outer[i + 1:]) for i in range(len(outer))]
    # int_lo^1 (1 - t^2)^beta dt = 2 4^beta B(beta+1, beta+1; (1-lo)/2);
    # lo in [-1, 1) keeps (1-lo)/2 in (0, 1], inside incomplete_beta's clamp
    # v as Python floats: the same arithmetic as numpy scalars, but faster
    c_in, v_in, a = consts[inner], float(v[inner]), betas[inner] + 1.0
    scale = 2.0 * 4.0 ** betas[inner]
    beta_fn = math.exp(scipy.special.betaln(a, a))

    def inner_val(partial: float) -> float:
        lo = (s - partial) / v_in
        if lo >= 1.0:
            return 0.0
        if lo < -1.0:
            lo = -1.0
        return c_in * (scale * (betainc(a, a, (1.0 - lo) / 2.0) * beta_fn))

    # a cap has no upper limit: raising y . v never leaves it; inner's
    # lower limit reaches -1 at partial = s + v_in
    inf = [math.inf] * len(outer)
    return _outer_levels(s, consts, betas, v, outer, rest, inf, inner_val, s + v_in)(0.0)


def _cap_corner(v, s, betas) -> float:
    """Corner-simplex route for thin caps: gap = one_norm - s < min(v).

    After y_i = 1 - t_i (1-z_i) prod_{l<i} z_l with t_i = gap / v_i the
    cap becomes the unit cube, the prefactor prod c_i t_i^(beta_i + 1)
    carries the scale, and the z_m integral is again an incomplete beta.
    """
    # imported by name: cython_special is not an attribute of scipy.special
    from scipy.special.cython_special import betainc

    m = len(v)
    gap = float(np.sum(v)) - s
    t = gap / np.asarray(v, dtype=float)
    betas = np.asarray(betas, dtype=float)
    consts = [ball_density_const(1, b) for b in betas]
    prefactor = float(np.prod([c * ti ** (b + 1.0) for c, ti, b in zip(consts, t, betas)]))
    # exponents of z_i: cube-to-simplex jacobian plus later betas
    tail = np.concatenate([np.cumsum(betas[::-1])[::-1][1:], [0.0]])
    expo = np.array([(m - 1 - i) + tail[i] for i in range(m)])
    # Python floats do the same IEEE arithmetic as numpy scalars, without
    # numpy's per-operation overhead
    t_in, b_in = float(t[m - 1]), float(betas[m - 1])
    a = b_in + 1.0
    beta_fn = math.exp(scipy.special.betaln(a, a))

    def inner_val(zprod: float) -> float:
        # t_in < 1 and zprod <= 1 keep x / 2 in [0, 1/2), inside
        # incomplete_beta's clamp
        x = t_in * zprod
        return (4.0 / x) ** b_in * (2.0 / x) * (betainc(a, a, x / 2.0) * beta_fn)

    def z_level(b: float, e: float, ti: float, nxt):
        def val(zprod: float) -> float:
            def f(z: float) -> float:
                alpha = (1.0 - z) * zprod
                return (1.0 - z) ** b * z ** e * (2.0 - ti * alpha) ** b * nxt(zprod * z)

            return _quad(f, 0.0, 1.0)

        return val

    val = inner_val
    for i in reversed(range(m - 1)):
        val = z_level(float(betas[i]), float(expo[i]), float(t[i]), val)
    return prefactor * val(1.0)


def _nonzero_components(cap: MetaCap, betas: Sequence[float]):
    """Check one finite weight > -1 per component; return v and the
    weights with the components of v below ZERO_COMPONENT_TOL dropped."""
    if len(betas) != cap.m:
        raise ValueError(f"{cap.m} components but {len(betas)} beta weights")
    betas = beta_floats(betas)
    mask = cap.v > ZERO_COMPONENT_TOL
    return cap.v[mask], [b for b, keep in zip(betas, mask) if keep]


def cap_content_meta(cap: MetaCap, betas: Sequence[float]) -> float:
    """Weighted content of the meta-cap C+(v, s), a probability in [0,1]."""
    v, betas = _nonzero_components(cap, betas)
    one_norm = float(v.sum())
    s = cap.s
    if s >= one_norm:
        return 0.0
    if s <= -one_norm:
        return 1.0
    if one_norm - s < float(v.min()):
        return _cap_corner(v, s, betas)
    return _cap_general(v, s, betas)


def section_content_meta(cap: MetaCap, betas: Sequence[float]) -> float:
    """Weighted (m-1)-content of the slice {y in [-1,1]^m : y . v = s}.

    The slice is parametrized over the remaining coordinates after
    solving for the largest-v one, which contributes the 1/v_max
    surface jacobian; equals -d/ds of cap_content_meta.
    """
    v, betas = _nonzero_components(cap, betas)
    s = cap.s
    one_norm = float(v.sum())
    m = len(v)
    consts = [ball_density_const(1, b) for b in betas]

    if m == 1:
        if abs(s) > 1.0:
            return 0.0
        return consts[0] * (1.0 - s * s) ** betas[0]

    if abs(s) >= one_norm:
        # the slice touches at most a corner: zero (m-1)-content
        return 0.0

    solve = int(np.argmax(v))
    free = [i for i in range(m) if i != solve]
    free.sort(key=lambda i: v[i])      # innermost = largest free component
    inner = free[-1]
    outer = free[:-1]

    def inner_val(partial: float) -> float:
        lo = max(-1.0, (s - v[solve] - partial) / v[inner])
        hi = min(1.0, (s + v[solve] - partial) / v[inner])
        if lo >= hi:
            return 0.0

        def f(tval: float) -> float:
            y_solve = (s - partial - v[inner] * tval) / v[solve]
            if y_solve < -1.0:
                y_solve = -1.0
            elif y_solve > 1.0:
                y_solve = 1.0
            return (
                consts[inner] * (1.0 - tval * tval) ** betas[inner]
                * consts[solve] * (1.0 - y_solve * y_solve) ** betas[solve]
            )

        return _quad(f, lo, hi)

    # sup of what the coordinates after level i (plus inner and solved
    # ones) can still contribute, either way
    rest = [
        v[inner] + v[solve] + sum(v[j] for j in outer[i + 1:])
        for i in range(len(outer))
    ]
    return _outer_levels(s, consts, betas, v, outer, rest, rest, inner_val)(0.0) / float(v[solve])


def cap_content_full_mc(
    bs: BlockStructure,
    bp: BetaParams,
    w,
    s: float,
    n_samples: int,
    rng,
) -> float:
    """Monte Carlo mass of {x . w >= s} under the block-beta law: the
    fraction of n_samples draws that land in the halfspace.

    The draws are sample_block_beta's, taken chunk by chunk from
    block_beta_chunks.  Each chunk's columns are added into its rows of a
    projection that starts at zero, in column order through one
    chunk-long buffer, and the chunk is dropped before the next one is
    drawn.  So the call holds the (n_samples,) projection, one block's
    (n_samples, d_i) array (n_samples sign bytes for d_i = 1) and a few
    chunk-long arrays: a peak of about (1 + max d_i) n_samples doubles,
    or 1.125 n_samples when every block is one-dimensional, with no
    (n_samples, dim) cloud.
    """
    n = as_int(n_samples, "n_samples", least=1)
    w = np.asarray(w, dtype=float)
    if w.shape != (bs.dim,):
        raise ValueError(f"expected a direction of shape ({bs.dim},), got {w.shape}")
    if not np.all(np.isfinite(w)) or math.isnan(s):
        raise ValueError(f"need a finite direction and an s that is not NaN, got w={w}, s={s}")
    proj = np.zeros(n)
    term = np.empty(min(n, CHUNK_ROWS))
    # no BLAS: a threaded matmul leaves OpenBLAS's worker spinning on the cores verify's pool uses
    for rows, cols, chunk in block_beta_chunks(bs, bp, rng, n):
        part, buf = proj[rows], term[:len(chunk)]
        for x, w_j in zip(chunk.T, w[cols]):
            part += np.multiply(x, w_j, out=buf)
        del chunk, x  # either would pin this block while the next one is drawn
    return float((proj >= s).mean())


def reduction_constant(bs: BlockStructure, bp: BetaParams) -> float:
    """prod_i c_{beta_i,d_i} / (c_{beta_i,d_i-1} c_{beta~_i,1}).

    The Gamma factors cancel pairwise, so the value is exactly 1; it is
    computed from the definition so the reduction test multiplies by
    the stated constant instead of hard-coding the cancellation.
    """
    _check_pair(bs, bp)
    const = 1.0
    for d, b in zip(bs.dims, bp.as_floats()):
        shifted = (d - 1) / 2.0 + b
        const *= ball_density_const(d, b) / (
            ball_density_const(d - 1, b) * ball_density_const(1, shifted)
        )
    return const


def shifted_betas(bs: BlockStructure, bp: BetaParams) -> list[float]:
    """Meta-cube weights (d_i - 1)/2 + beta_i."""
    _check_pair(bs, bp)
    return [(d - 1) / 2.0 + b for d, b in zip(bs.dims, bp.as_floats())]


def embed_direction(bs: BlockStructure, v, units) -> np.ndarray:
    """Assemble w = (v_1 u_1, ..., v_m u_m) from block norms and units."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v[i] * np.asarray(units[i], float) for i in range(bs.m)])


def _unit_vector(gen: np.random.Generator, d: int) -> np.ndarray:
    x = gen.standard_normal(d)
    return x / np.linalg.norm(x)


def sphere_area(d: int) -> float:
    """Surface measure of S^{d-1}: 2 pi^{d/2} / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / scipy.special.gamma(d / 2.0)


def verify_reduction(
    bs: BlockStructure,
    bp: BetaParams,
    trials: int = 50,
    n_samples: int = 10 ** 6,
    *,
    rng,
) -> Report:
    """Halfspace mass two ways: direct Monte Carlo against the cube
    quadrature times the stated conversion constant.

    Draws (v, s) with s strictly between s1(v) and ||v||_1, redrawing s
    when the target mass would be too small for a sound binomial z-test
    (fewer than ~100 expected hits).  A trial whose 64 candidates are all
    refused is a failed check with NaN values, and draws no Monte Carlo
    sample.
    """
    trials = as_int(trials, "trials", least=1)
    n_samples = as_int(n_samples, "n_samples", least=1)
    gen = as_generator(rng)
    const = reduction_constant(bs, bp)
    metas = shifted_betas(bs, bp)
    rep = Report(
        title=f"reduction dims={bs.dims} betas={bp.as_floats()}",
        min_pass_fraction=0.98,
    )
    min_hits = 100.0
    for t in range(trials):
        for _ in range(64):
            v = np.abs(_unit_vector(gen, bs.m))
            if bs.m > 1 and v.min() < 0.1:
                continue
            cap = MetaCap(v, 0.0)
            gap = gen.uniform(0.05, 1.0) * (cap.one_norm - cap.s1)
            s = cap.one_norm - gap
            p_ref = const * cap_content_meta(MetaCap(v, s), metas)
            if min_hits / n_samples <= p_ref <= 0.9:
                break
        else:
            rep.add(Check(
                name=f"halfspace_mass[{t}] no admissible cap in 64 candidates",
                value=math.nan, reference=math.nan,
                stat_name="z", stat=math.nan, passed=False,
            ))
            continue
        units = [_unit_vector(gen, d) for d in bs.dims]
        w = embed_direction(bs, v, units)
        p_hat = cap_content_full_mc(bs, bp, w, s, n_samples, gen)
        se_ref = math.sqrt(p_ref * (1.0 - p_ref) / n_samples)
        z = (p_hat - p_ref) / se_ref if se_ref > 0 else math.inf
        rep.add(Check(
            name=f"halfspace_mass[{t}]",
            value=p_hat, reference=p_ref,
            stat_name="z", stat=z, passed=abs(z) <= 3.0,
        ))
    return rep


def _ratio_checks(rep, label, gaps, ratios):
    ratios = np.asarray(ratios)
    finite = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0))
    if not finite:
        rep.add(Check(name=f"{label} finite", value=float("nan"), reference=0.0,
                      stat_name="slope", stat=float("nan"), passed=False))
        return
    slope = float(np.polyfit(np.log(gaps), np.log(ratios), 1)[0])
    spread = float(ratios.max() / ratios.min())
    rep.add(Check(name=f"{label} slope", value=slope, reference=0.0,
                  stat_name="slope", stat=slope, passed=abs(slope) <= BOUNDS_SLOPE_TOL))
    rep.add(Check(name=f"{label} spread", value=spread, reference=1.0,
                  stat_name="ratio", stat=spread, passed=spread <= BOUNDS_SPREAD_MAX))


def verify_bounds(betas: Sequence[float]) -> Report:
    """Cap and section contents against their power-law envelopes.

    In the corner range s in (s1(v), ||v||_1) the cap is comparable to
    gap^(sum beta + m) prod v_i^-(beta_i+1) and the section to the same
    with one less power of the gap; comparability means the log-log
    slope of measured/bound is flat and the ratio spread is bounded.
    The cube has one dimension per weight.
    """
    betas = [float(b) for b in betas]
    m = len(betas)
    if m > 1 and any(b < 0 for b in betas):
        raise ValueError("section bounds need nonnegative beta weights for m >= 2")
    rep = Report(title=f"bounds m={m} betas={tuple(betas)}")
    gen = RngStream(BOUNDS_SEED, 0).generator()
    beta_sum = sum(betas)
    n_dirs = 1 if m == 1 else BOUNDS_DIRECTIONS
    steps = 10.0 ** -np.linspace(0.0, BOUNDS_DECADES, BOUNDS_GAPS)
    for k in range(n_dirs):
        if m == 1:
            v = np.array([1.0])
        else:
            v = np.abs(_unit_vector(gen, m))
            while v.min() < BOUNDS_MIN_COMPONENT:
                v = np.abs(_unit_vector(gen, m))
        corner = MetaCap(v, 0.0)
        one_norm, s1 = corner.one_norm, corner.s1
        vs_factor = float(np.prod(v ** -(np.asarray(betas) + 1.0)))

        # cap against gap^(beta_sum + m) in (s1, one_norm)
        gaps = (one_norm - s1) * BOUNDS_TOP_FRACTION * steps
        caps = [cap_content_meta(MetaCap(v, one_norm - g), betas) for g in gaps]
        bound = gaps ** (beta_sum + m) * vs_factor
        _ratio_checks(rep, f"cap[v{k}]", gaps, np.asarray(caps) / bound)

        # section against gap^(beta_sum + m - 1) in (max(s1, 0), one_norm)
        gaps = (one_norm - max(s1, 0.0)) * BOUNDS_TOP_FRACTION * steps
        secs = [section_content_meta(MetaCap(v, one_norm - g), betas) for g in gaps]
        bound = gaps ** (beta_sum + m - 1.0) * vs_factor
        _ratio_checks(rep, f"section[v{k}]", gaps, np.asarray(secs) / bound)
    return rep


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of values and its standard error (NaN for one value)."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def _two_route_report(title: str, name: str, left, right, exact) -> Report:
    """z-test of the Monte Carlo (mean, se) of two routes to one integral,
    and of the second route against the exact value when there is one."""
    (lhs, se_l), (rhs, se_r) = left, right
    rep = Report(title=title)
    se = math.hypot(se_l, se_r)
    # a NaN se (one sample) gives a NaN z, which fails the check
    z = (lhs - rhs) / se if se != 0 else 0.0
    rep.add(Check(name=name, value=rhs, reference=lhs,
                  stat_name="z", stat=z, passed=abs(z) <= 3.0))
    if exact is not None:
        ze = (rhs - exact) / se_r if se_r != 0 else 0.0
        rep.add(Check(name="exact_value", value=rhs, reference=exact,
                      stat_name="z", stat=ze, passed=abs(ze) <= 3.0))
    return rep


def _test_functions(bs: BlockStructure) -> dict:
    d1 = bs.dims[0]

    def block1_sq(w):
        return np.sum(w[:, :d1] ** 2, axis=1)

    return {
        "one": (lambda w: np.ones(len(w)), sphere_area(bs.dim)),
        "first_block_sq": (block1_sq, sphere_area(bs.dim) * bs.dims[0] / bs.dim),
        "exp_first": (lambda w: np.exp(w[:, 0]), None),
    }


def verify_polyspherical(bs: BlockStructure, n_samples: int = 200_000, *, rng) -> list[Report]:
    """Sphere integral vs its block-radial decomposition, both by MC.

    The decomposition integrates over block norms v on the positive
    unit hemisphere-quadrant and unit vectors per block, with density
    weight prod v_i^(d_i - 1).  One set of draws serves every test
    function: one Report each, in the order of _test_functions.  Each
    route is reduced to one (mean, se) per test function as soon as it
    is drawn, and each array is dropped or overwritten once used.
    """
    gen = as_generator(rng)
    n_samples = as_int(n_samples, "n_samples", least=1)
    fns = _test_functions(bs)
    d, m = bs.dim, bs.m

    w_full = gen.standard_normal((n_samples, d))
    w_full /= row_norms(w_full)[:, None]
    left = [_mean_se(f(w_full) * sphere_area(d)) for f, _ in fns.values()]
    del w_full

    v = np.abs(gen.standard_normal((n_samples, m)))
    v /= row_norms(v)[:, None]
    # block i of the made point is v_i times its unit vector; w_made is
    # allocated once the first block's norms are dropped
    w_made, start = None, 0
    for i, di in enumerate(bs.dims):
        u = gen.standard_normal((n_samples, di))
        u /= row_norms(u)[:, None]
        if w_made is None:
            w_made = np.empty((n_samples, d))
        np.multiply(v[:, i:i + 1], u, out=w_made[:, start:start + di])
        start += di
        del u
    weight = np.prod(np.power(v, np.asarray(bs.dims) - 1.0, out=v), axis=1)
    del v
    measure = (sphere_area(m) / 2.0 ** m) * float(
        np.prod([sphere_area(di) for di in bs.dims])
    )
    reports = []
    for (t, (f, exact)), lhs in zip(fns.items(), left):
        reports.append(_two_route_report(
            f"polyspherical dims={bs.dims} f={t}", "decomposition",
            lhs, _mean_se(f(w_made) * weight * measure), exact,
        ))
    return reports


def _square_chord(w: np.ndarray, s: np.ndarray):
    """Chord interval [lo, hi] of {x . w = s} inside [-1,1]^2, in the
    arclength parameter along w_perp; empty chords give lo > hi."""
    wp = np.stack([-w[:, 1], w[:, 0]], axis=1)
    lo = np.full(len(w), -np.inf)
    hi = np.full(len(w), np.inf)
    for j in range(2):
        a = wp[:, j]
        # near-parallel slab: the line misses or lies inside it outright
        tiny = np.abs(a) < 1e-12
        b = s * w[:, j]
        inside = np.abs(b) <= 1.0
        # (-1 - b) / a and (1 - b) / a, the second one in b's place
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.subtract(-1.0, b)
            t1 /= a
            t2 = np.subtract(1.0, b, out=b)
            t2 /= a
        lo_j = np.minimum(t1, t2)
        hi_j = np.maximum(t1, t2, out=t1)
        lo_j[tiny] = np.where(inside[tiny], -np.inf, np.inf)
        hi_j[tiny] = np.where(inside[tiny], np.inf, -np.inf)
        np.maximum(lo, lo_j, out=lo)
        np.minimum(hi, hi_j, out=hi)
        # free this slab's arrays before the next slab's are made
        del b, t1, t2, lo_j, hi_j
    return lo, hi, wp


# test functions f(y1, y2) of the pair integral over [-1,1]^2 x [-1,1]^2,
# each with its exact value where known
_BP_TEST_FUNCTIONS = {
    "square": (lambda y1, y2: np.ones(len(y1)), 16.0),
    "disk": (lambda y1, y2: ((np.sum(y1 ** 2, axis=1) <= 1.0)
                             & (np.sum(y2 ** 2, axis=1) <= 1.0)).astype(float), math.pi ** 2),
    "gauss_diff": (lambda y1, y2: np.exp(-np.sum((y1 - y2) ** 2, axis=1)), None),
}


def verify_blaschke_petkantschin_2d(n_samples: int = 400_000, *, rng) -> list[Report]:
    """Planar pair integral vs its line decomposition, both by MC.

    For point pairs in the square [-1,1]^2 the decomposition samples a
    line by direction and signed distance, then two points on its chord,
    weighted by chord length squared and the segment length |t1 - t2|
    (with the 1/2 orientation factor).  One set of draws and chords
    serves every test function: one Report each, in the order of
    _BP_TEST_FUNCTIONS.  Each route is reduced to one (mean, se) per
    test function as soon as it is drawn.
    """
    gen = as_generator(rng)
    n = as_int(n_samples, "n_samples", least=1)

    x1 = gen.uniform(-1.0, 1.0, size=(n, 2))
    x2 = gen.uniform(-1.0, 1.0, size=(n, 2))
    left = [_mean_se(16.0 * f(x1, x2)) for f, _ in _BP_TEST_FUNCTIONS.values()]
    del x1, x2

    # each array is dropped or overwritten once used; the draws keep
    # their order (theta, s, then the two chord points)
    theta = gen.uniform(0.0, 2.0 * math.pi, size=n)
    w = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    del theta
    s = gen.uniform(-2.0, 2.0, size=n)
    lo, hi, wp = _square_chord(w, s)
    base = s[:, None] * w
    del w, s
    length = np.clip(hi - lo, 0.0, None)
    del hi
    empty = ~(length > 0)
    t1 = lo + gen.uniform(0.0, 1.0, size=n) * length
    t2 = lo + gen.uniform(0.0, 1.0, size=n) * length
    del lo
    # densities: 1/(2 pi) for direction, 1/4 for s, 1/L per chord point;
    # integrand carries |t1 - t2| Vol_1 and the 1/2 orientation factor
    weight = 4.0 * math.pi * length ** 2 * np.abs(t1 - t2)
    del length
    # y = base + t wp for each chord point; y2 takes wp's place
    y1 = base + t1[:, None] * wp
    y2 = np.multiply(t2[:, None], wp, out=wp)
    y2 += base
    del base, t1, t2
    reports = []
    for (t, (f, exact)), lhs in zip(_BP_TEST_FUNCTIONS.items(), left):
        vals = f(y1, y2) * weight
        vals[empty] = 0.0
        reports.append(_two_route_report(
            f"pair integral via lines f={t}", "line_decomposition",
            lhs, _mean_se(vals), exact,
        ))
    return reports
