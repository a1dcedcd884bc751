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

Cap and section contents are evaluated by nested adaptive quadrature
with the innermost coordinate in closed form through the incomplete
beta function.  Thin caps near the corner (one_norm - s < min v_i) are
first mapped onto the unit cube by the corner-simplex substitution
y_i = 1 - t_i (1 - z_i) prod_{l<i} z_l, which removes the cancellation
that direct integration of a sliver would suffer.

The verify_* functions are the numeric referees: each compares two
independent routes (Monte Carlo vs quadrature, sphere decomposition,
chord decomposition, order-of-magnitude bounds) and emits a Report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, special

from .core import BetaParams, BlockStructure
from .report import Check, Report
from .sampler import as_generator, ball_density_const, sample_block_beta

ZERO_COMPONENT_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 9

    @property
    def limit(self) -> int:
        # max_depth counts bisections; QUADPACK wants a subinterval cap
        return min(2 ** self.max_depth, 512)


DEFAULT_SPEC = QuadratureSpec()


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
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("v must be a unit vector")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", float(self.s))

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
    return float(special.betainc(a, b, x) * math.exp(special.betaln(a, b)))


def _quad(f, lo: float, hi: float, spec: QuadratureSpec) -> float:
    if hi <= lo:
        return 0.0
    out = integrate.quad(
        f, lo, hi,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=spec.limit, full_output=1,
    )
    y, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 100.0 * max(spec.abs_tol, spec.rel_tol * abs(y)):
        raise QuadratureError(str(out[3]), best=float(y), err=float(abserr))
    return float(y)


def _weight_integral(beta: float, lo: float) -> float:
    """int_lo^1 (1 - t^2)^beta dt, unweighted by the density constant."""
    if lo >= 1.0:
        return 0.0
    lo = max(lo, -1.0)
    return 2.0 * 4.0 ** beta * incomplete_beta(beta + 1.0, beta + 1.0, (1.0 - lo) / 2.0)


def _cap_general(v, s, betas, spec) -> float:
    m = len(v)
    consts = [ball_density_const(1, b) for b in betas]
    order = np.argsort(v)          # innermost = largest component
    inner = int(order[-1])
    outer = [int(i) for i in order[:-1]]
    # sup of what coordinates after level i can still contribute to y.v
    rest = [v[inner] + sum(v[j] for j in outer[i + 1:]) for i in range(len(outer))]

    def inner_val(partial: float) -> float:
        lo = (s - partial) / v[inner]
        if lo >= 1.0:
            return 0.0
        return consts[inner] * _weight_integral(betas[inner], lo)

    def level(i: int, partial: float) -> float:
        if i == len(outer):
            return inner_val(partial)
        j = outer[i]
        # below lo the later coordinates cannot reach the halfspace, so
        # the integrand vanishes; clamping keeps quadrature panels on
        # the actual support when the cap is thin
        lo = max(-1.0, (s - partial - rest[i]) / v[j])
        if lo >= 1.0:
            return 0.0

        def f(y: float) -> float:
            return consts[j] * (1.0 - y * y) ** betas[j] * level(i + 1, partial + v[j] * y)

        return _quad(f, lo, 1.0, spec)

    return level(0, 0.0)


def _cap_corner(v, s, betas, spec) -> float:
    """Corner-simplex route for thin caps: gap = one_norm - s < min(v).

    After y_i = 1 - t_i (1-z_i) prod_{l<i} z_l with t_i = gap / v_i the
    cap becomes the unit cube, the prefactor prod c_i t_i^(beta_i + 1)
    carries the scale, and the z_m integral is again an incomplete beta.
    """
    m = len(v)
    gap = float(np.sum(v)) - s
    t = gap / np.asarray(v, dtype=float)
    betas = np.asarray(betas, dtype=float)
    consts = [ball_density_const(1, b) for b in betas]
    prefactor = float(np.prod([c * ti ** (b + 1.0) for c, ti, b in zip(consts, t, betas)]))
    # exponents of z_i: cube-to-simplex jacobian plus later betas
    tail = np.concatenate([np.cumsum(betas[::-1])[::-1][1:], [0.0]])
    expo = np.array([(m - 1 - i) + tail[i] for i in range(m)])

    def inner_val(zprod: float) -> float:
        x = t[m - 1] * zprod
        return (4.0 / x) ** betas[m - 1] * (2.0 / x) * incomplete_beta(
            betas[m - 1] + 1.0, betas[m - 1] + 1.0, x / 2.0
        )

    def level(i: int, zprod: float) -> float:
        if i == m - 1:
            return inner_val(zprod)

        def f(z: float) -> float:
            alpha = (1.0 - z) * zprod
            return (
                (1.0 - z) ** betas[i]
                * z ** expo[i]
                * (2.0 - t[i] * alpha) ** betas[i]
                * level(i + 1, zprod * z)
            )

        return _quad(f, 0.0, 1.0, spec)

    return prefactor * level(0, 1.0)


def _drop_zero_components(v: np.ndarray, betas: Sequence[float]):
    mask = v > ZERO_COMPONENT_TOL
    return v[mask], [b for b, keep in zip(betas, mask) if keep]


def cap_content_meta(
    cap: MetaCap, betas: Sequence[float], spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Weighted content of the meta-cap C+(v, s), a probability in [0,1]."""
    if len(betas) != cap.m:
        raise ValueError(f"{cap.m} components but {len(betas)} beta weights")
    betas = [float(b) for b in betas]
    if any(b <= -1.0 for b in betas):
        raise ValueError("beta weights must exceed -1")
    v, betas = _drop_zero_components(cap.v, betas)
    one_norm = float(v.sum())
    s = cap.s
    if s >= one_norm:
        return 0.0
    if s <= -one_norm:
        return 1.0
    if one_norm - s < float(v.min()):
        return _cap_corner(v, s, betas, spec)
    return _cap_general(v, s, betas, spec)


def section_content_meta(
    cap: MetaCap, betas: Sequence[float], spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Weighted (m-1)-content of the slice {y in [-1,1]^m : y . v = s}.

    The slice is parametrized over the remaining coordinates after
    solving for the largest-v one, which contributes the 1/v_max
    surface jacobian; equals -d/ds of cap_content_meta.
    """
    if len(betas) != cap.m:
        raise ValueError(f"{cap.m} components but {len(betas)} beta weights")
    betas = [float(b) for b in betas]
    if any(b <= -1.0 for b in betas):
        raise ValueError("beta weights must exceed -1")
    v, betas = _drop_zero_components(cap.v, betas)
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
            y_solve = min(max(y_solve, -1.0), 1.0)
            return (
                consts[inner] * (1.0 - tval * tval) ** betas[inner]
                * consts[solve] * (1.0 - y_solve * y_solve) ** betas[solve]
            )

        return _quad(f, lo, hi, spec)

    # sup of what the coordinates after level i (plus inner and solved
    # ones) can still contribute; outside [lo, hi] the slice is empty
    rest = [
        v[inner] + v[solve] + sum(v[j] for j in outer[i + 1:])
        for i in range(len(outer))
    ]

    def level(i: int, partial: float) -> float:
        if i == len(outer):
            return inner_val(partial)
        j = outer[i]
        lo = max(-1.0, (s - partial - rest[i]) / v[j])
        hi = min(1.0, (s - partial + rest[i]) / v[j])
        if lo >= hi:
            return 0.0

        def f(y: float) -> float:
            return consts[j] * (1.0 - y * y) ** betas[j] * level(i + 1, partial + v[j] * y)

        return _quad(f, lo, hi, spec)

    return level(0, 0.0) / float(v[solve])


def cap_content_full_mc(
    bs: BlockStructure,
    bp: BetaParams,
    w,
    s: float,
    n_samples: int,
    rng,
) -> tuple[float, float]:
    """Monte Carlo mass of {x . w >= s} under the block-beta law.

    Returns (estimate, stderr) with the binomial standard error.
    """
    gen = as_generator(rng)
    w = np.asarray(w, dtype=float)
    pts = sample_block_beta(bs, bp, gen, size=int(n_samples))
    hits = pts @ w >= s
    p = float(hits.mean())
    se = math.sqrt(max(p * (1.0 - p), 0.0) / len(hits))
    return p, se


def reduction_constant(bs: BlockStructure, bp: BetaParams) -> float:
    """prod_i c_{beta_i,d_i} / (c_{beta_i,d_i-1} c_{beta~_i,1}).

    The Gamma factors cancel pairwise, so the value is exactly 1; it is
    computed from the definition so the reduction test multiplies by
    the stated constant instead of hard-coding the cancellation.
    """
    const = 1.0
    for d, b in zip(bs.dims, bp.as_floats()):
        shifted = (d - 1) / 2.0 + b
        const *= ball_density_const(d, b) / (
            ball_density_const(d - 1, b) * ball_density_const(1, shifted)
        )
    return const


def shifted_betas(bs: BlockStructure, bp: BetaParams) -> list[float]:
    """Meta-cube weights (d_i - 1)/2 + beta_i."""
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
    return 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)


def verify_reduction(
    bs: BlockStructure,
    bp: BetaParams,
    trials: int = 50,
    n_samples: int = 10 ** 6,
    rng=None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Report:
    """Halfspace mass two ways: direct Monte Carlo against the cube
    quadrature times the stated conversion constant.

    Draws (v, s) with s strictly between s1(v) and ||v||_1, redrawing s
    when the target mass would be too small for a sound binomial z-test
    (fewer than ~100 expected hits).
    """
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    const = reduction_constant(bs, bp)
    metas = shifted_betas(bs, bp)
    rep = Report(
        title=f"reduction dims={bs.dims} betas={bp.as_floats()}",
        min_pass_fraction=0.98,
    )
    min_hits = 100.0
    for t in range(trials):
        p_ref, v, s = 0.0, None, 0.0
        for _ in range(64):
            v = np.abs(gen.standard_normal(bs.m))
            v /= np.linalg.norm(v)
            if bs.m > 1 and v.min() < 0.1:
                continue
            cap = MetaCap(v, 0.0)
            gap = gen.uniform(0.05, 1.0) * (cap.one_norm - cap.s1)
            s = cap.one_norm - gap
            p_ref = const * cap_content_meta(MetaCap(v, s), metas, spec)
            if min_hits / n_samples <= p_ref <= 0.9:
                break
        units = [_unit_vector(gen, d) for d in bs.dims]
        w = embed_direction(bs, v, units)
        p_hat, _ = cap_content_full_mc(bs, bp, w, s, n_samples, gen)
        se_ref = math.sqrt(p_ref * (1.0 - p_ref) / n_samples)
        z = (p_hat - p_ref) / se_ref if se_ref > 0 else math.inf
        rep.add(Check(
            name=f"halfspace_mass[{t}]",
            value=p_hat, reference=p_ref,
            stat_name="z", stat=z, passed=abs(z) <= 3.0,
        ))
    return rep


@dataclass(frozen=True)
class BoundsGrid:
    """Gap grid for the order-of-magnitude bound checks.

    Gaps are log-spaced over `decades`, topping out at `top_fraction`
    of the admissible range, so the grid stays in the regime where the
    two-sided bounds have settled.
    """

    seed: int = 2024
    n_directions: int = 3
    n_gaps: int = 12
    decades: float = 3.0
    top_fraction: float = 0.05
    slope_tol: float = 0.05
    spread_max: float = 1e3
    min_component: float = 0.25


def _ratio_checks(rep, label, gaps, ratios, grid):
    ratios = np.asarray(ratios)
    finite = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0))
    if not finite:
        rep.add(Check(name=f"{label} finite", value=float("nan"), reference=0.0,
                      stat_name="slope", stat=float("nan"), passed=False))
        return
    slope = float(np.polyfit(np.log(gaps), np.log(ratios), 1)[0])
    spread = float(ratios.max() / ratios.min())
    rep.add(Check(name=f"{label} slope", value=slope, reference=0.0,
                  stat_name="slope", stat=slope, passed=abs(slope) <= grid.slope_tol))
    rep.add(Check(name=f"{label} spread", value=spread, reference=1.0,
                  stat_name="ratio", stat=spread, passed=spread <= grid.spread_max))


def verify_bounds(
    m: int,
    betas: Sequence[float],
    grid: BoundsGrid = BoundsGrid(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Report:
    """Cap and section contents against their power-law envelopes.

    In the corner range s in (s1(v), ||v||_1) the cap is comparable to
    gap^(sum beta + m) prod v_i^-(beta_i+1) and the section to the same
    with one less power of the gap; comparability means the log-log
    slope of measured/bound is flat and the ratio spread is bounded.
    """
    betas = [float(b) for b in betas]
    if len(betas) != m:
        raise ValueError(f"m={m} but {len(betas)} beta weights")
    if m > 1 and any(b < 0 for b in betas):
        raise ValueError("section bounds need nonnegative beta weights for m >= 2")
    rep = Report(title=f"bounds m={m} betas={tuple(betas)}")
    gen = np.random.default_rng(grid.seed)
    beta_sum = sum(betas)
    n_dirs = 1 if m == 1 else grid.n_directions
    for k in range(n_dirs):
        if m == 1:
            v = np.array([1.0])
        else:
            v = np.abs(gen.standard_normal(m))
            v /= np.linalg.norm(v)
            while v.min() < grid.min_component:
                v = np.abs(gen.standard_normal(m))
                v /= np.linalg.norm(v)
        one_norm = float(v.sum())
        s1 = one_norm - 2.0 * float(v.min())
        vs_factor = float(np.prod(v ** -(np.asarray(betas) + 1.0)))

        # cap against gap^(beta_sum + m) in (s1, one_norm)
        gap_max = (one_norm - s1) * grid.top_fraction
        gaps = gap_max * 10.0 ** -np.linspace(0.0, grid.decades, grid.n_gaps)
        caps = [
            cap_content_meta(MetaCap(v, one_norm - g), betas, spec) for g in gaps
        ]
        bound = gaps ** (beta_sum + m) * vs_factor
        _ratio_checks(rep, f"cap[v{k}]", gaps, np.asarray(caps) / bound, grid)

        # section against gap^(beta_sum + m - 1) in (max(s1, 0), one_norm)
        gap_max = (one_norm - max(s1, 0.0)) * grid.top_fraction
        gaps = gap_max * 10.0 ** -np.linspace(0.0, grid.decades, grid.n_gaps)
        secs = [
            section_content_meta(MetaCap(v, one_norm - g), betas, spec) for g in gaps
        ]
        bound = gaps ** (beta_sum + m - 1.0) * vs_factor
        _ratio_checks(rep, f"section[v{k}]", gaps, np.asarray(secs) / bound, grid)
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


def verify_polyspherical(
    bs: BlockStructure,
    test_fn_id: str = "one",
    n_samples: int = 200_000,
    rng=None,
) -> Report:
    """Sphere integral vs its block-radial decomposition, both by MC.

    The decomposition integrates over block norms v on the positive
    unit hemisphere-quadrant and unit vectors per block, with density
    weight prod v_i^(d_i - 1).
    """
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    fns = _test_functions(bs)
    if test_fn_id not in fns:
        raise ValueError(f"unknown test function {test_fn_id!r}; have {sorted(fns)}")
    f, exact = fns[test_fn_id]
    d, m = bs.dim, bs.m

    w_full = gen.standard_normal((n_samples, d))
    w_full /= np.linalg.norm(w_full, axis=1, keepdims=True)
    vals = f(w_full) * sphere_area(d)
    lhs, se_l = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))

    v = np.abs(gen.standard_normal((n_samples, m)))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    blocks = []
    for i, di in enumerate(bs.dims):
        u = gen.standard_normal((n_samples, di))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        blocks.append(v[:, i:i + 1] * u)
    w_made = np.concatenate(blocks, axis=1)
    weight = np.prod(v ** (np.asarray(bs.dims) - 1.0), axis=1)
    measure = (sphere_area(m) / 2.0 ** m) * float(
        np.prod([sphere_area(di) for di in bs.dims])
    )
    vals_r = f(w_made) * weight * measure
    rhs, se_r = float(vals_r.mean()), float(vals_r.std(ddof=1) / math.sqrt(n_samples))

    rep = Report(title=f"polyspherical dims={bs.dims} f={test_fn_id}")
    se = math.hypot(se_l, se_r)
    z = (lhs - rhs) / se if se > 0 else 0.0
    rep.add(Check(name="decomposition", value=rhs, reference=lhs,
                  stat_name="z", stat=z, passed=abs(z) <= 3.0))
    if exact is not None:
        ze = (rhs - exact) / se_r if se_r > 0 else 0.0
        rep.add(Check(name="exact_value", value=rhs, reference=exact,
                      stat_name="z", stat=ze, passed=abs(ze) <= 3.0))
    return rep


def _square_chord(w: np.ndarray, s: np.ndarray):
    """Chord interval [lo, hi] of {x . w = s} inside [-1,1]^2, in the
    arclength parameter along w_perp; empty chords give lo > hi."""
    wp = np.stack([-w[:, 1], w[:, 0]], axis=1)
    lo = np.full(len(w), -np.inf)
    hi = np.full(len(w), np.inf)
    for j in range(2):
        a = wp[:, j]
        b = s * w[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-1.0 - b) / a
            t2 = (1.0 - b) / a
        lo_j = np.minimum(t1, t2)
        hi_j = np.maximum(t1, t2)
        # near-parallel slab: the line misses or lies inside it outright
        tiny = np.abs(a) < 1e-12
        inside = np.abs(b) <= 1.0
        lo_j = np.where(tiny, np.where(inside, -np.inf, np.inf), lo_j)
        hi_j = np.where(tiny, np.where(inside, np.inf, -np.inf), hi_j)
        lo = np.maximum(lo, lo_j)
        hi = np.minimum(hi, hi_j)
    return lo, hi, wp


def _bp_f(test_fn_id: str, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    if test_fn_id == "square":
        return np.ones(len(y1))
    if test_fn_id == "disk":
        return (
            (np.sum(y1 ** 2, axis=1) <= 1.0) & (np.sum(y2 ** 2, axis=1) <= 1.0)
        ).astype(float)
    if test_fn_id == "gauss_diff":
        return np.exp(-np.sum((y1 - y2) ** 2, axis=1))
    raise ValueError(f"unknown test function {test_fn_id!r}; have disk, gauss_diff, square")


def verify_blaschke_petkantschin_2d(
    test_fn_id: str = "square",
    n_samples: int = 400_000,
    rng=None,
) -> Report:
    """Planar pair integral vs its line decomposition, both by MC.

    For point pairs in the square [-1,1]^2 the decomposition samples a
    line by direction and signed distance, then two points on its chord,
    weighted by chord length squared and the segment length |t1 - t2|
    (with the 1/2 orientation factor).
    """
    gen = as_generator(rng) if rng is not None else np.random.default_rng(0)
    n = int(n_samples)

    x1 = gen.uniform(-1.0, 1.0, size=(n, 2))
    x2 = gen.uniform(-1.0, 1.0, size=(n, 2))
    vals_l = 16.0 * _bp_f(test_fn_id, x1, x2)
    lhs, se_l = float(vals_l.mean()), float(vals_l.std(ddof=1) / math.sqrt(n))

    theta = gen.uniform(0.0, 2.0 * math.pi, size=n)
    w = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    s = gen.uniform(-2.0, 2.0, size=n)
    u1 = gen.uniform(0.0, 1.0, size=n)
    u2 = gen.uniform(0.0, 1.0, size=n)
    lo, hi, wp = _square_chord(w, s)
    length = np.clip(hi - lo, 0.0, None)
    ok = length > 0
    t1 = lo + u1 * length
    t2 = lo + u2 * length
    base = s[:, None] * w
    y1 = base + t1[:, None] * wp
    y2 = base + t2[:, None] * wp
    f_vals = np.where(ok, _bp_f(test_fn_id, y1, y2), 0.0)
    # densities: 1/(2 pi) for direction, 1/4 for s, 1/L per chord point;
    # integrand carries |t1 - t2| Vol_1 and the 1/2 orientation factor
    vals_r = np.where(
        ok, 4.0 * math.pi * length ** 2 * np.abs(t1 - t2) * f_vals, 0.0
    )
    rhs, se_r = float(vals_r.mean()), float(vals_r.std(ddof=1) / math.sqrt(n))

    exact = {"square": 16.0, "disk": math.pi ** 2}.get(test_fn_id)
    rep = Report(title=f"pair integral via lines f={test_fn_id}")
    se = math.hypot(se_l, se_r)
    z = (lhs - rhs) / se if se > 0 else 0.0
    rep.add(Check(name="line_decomposition", value=rhs, reference=lhs,
                  stat_name="z", stat=z, passed=abs(z) <= 3.0))
    if exact is not None:
        ze = (rhs - exact) / se_r if se_r > 0 else 0.0
        rep.add(Check(name="exact_value", value=rhs, reference=exact,
                      stat_name="z", stat=ze, passed=abs(ze) <= 3.0))
    return rep
