"""Exact samplers for beta-weighted ball laws.

The law on B_2^k with weight beta > -1 has density
c_{beta,k} (1 - ||y||^2)^beta, where

    c_{beta,k} = Gamma(k/2 + beta + 1) / (pi^{k/2} Gamma(beta + 1)).

Its squared radius is Beta(k/2, beta + 1) distributed and independent
of the (uniform) direction, so sampling needs one beta variate and one
normalized Gaussian per point.  No rejection, valid for every beta > -1.
Block products draw each factor independently and concatenate.

Reproducibility contract: a stream is identified by (root_seed,
stream_index); equal identifiers give bit-identical draws.  Within one
generator the draw order is fixed (block by block, directions first,
then radii), so vectorized and repeated calls stay deterministic.
block_draws is the one definition of that order: sample_block_beta
concatenates its blocks, and cap_content_full_mc folds each block into
its projection and drops it before the next one is drawn.
RngStream(s, 0) draws the same bits as np.random.default_rng(s), so a
generator seeded directly with s would share stream 0 with whoever
holds it: seed only through RngStream.

verify_sampler holds the radial law and the projection property to
Kolmogorov-Smirnov tests.  The one-sample statistic D = max(D+, D-)
needs the CDF F only where the supremum can lie: F is evaluated at
every KS_BLOCK-th sorted point and at the last, and for a block between
such points a < b every i in it obeys

    (i+1)/n - F(x_i) <= (b+1)/n - F(x_a),    F(x_i) - i/n <= F(x_b) - a/n,

so only blocks whose bound exceeds the best evaluated value minus
KS_SLACK are evaluated in full.  KS_SLACK covers betainc's ulp-level
non-monotonicity and the rounding of the bounds.  The statistic and its
exact p-value are equal bit for bit to scipy.stats.kstest.  _kstwo_sf
takes that p-value as scipy.stats.kstwo.sf(D, n), except in the one
case where kstwo.sf sums about n terms in 2 scipy.special.smirnov(n, D)
(n > 140, 1 < nD < n - 1, D < 1/2, 2.2 <= nD^2 < 370; 0.2-0.3 s at
n = 200 000).  There it makes that same smirnov call itself, on an array
padded to KS_GIL_FREE_LEN elements: numpy runs a ufunc loop that long
without the GIL, so the other verify thread runs meanwhile.

row_norms is np.linalg.norm(x, axis=1) bit for bit without the (n, k)
array of squares (see its docstring).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy

from .core import BetaParams, BlockStructure, _check_pair, as_int
from .report import Check, Report

# coarse stride of _ks_one_sample, and how far below the best value a
# block's bound may fall and still be evaluated in full
KS_BLOCK = 32
KS_SLACK = 1e-12
# numpy releases the GIL for a ufunc loop over more than 500 elements
KS_GIL_FREE_LEN = 501
# from this many columns on, numpy's add.reduce sums a row pairwise
ROW_NORM_PAIRWISE = 8


@dataclass(frozen=True)
class BetaBallLaw:
    """Beta-weighted law on the unit ball of dimension dim."""

    dim: int
    beta: float

    def __post_init__(self):
        dim = as_int(self.dim, "dimension")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not math.isfinite(float(self.beta)):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if float(self.beta) <= -1.0:
            raise ValueError(f"beta must exceed -1, got {self.beta}")
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class RngStream:
    """Named random stream: (root_seed, stream_index) -> generator."""

    root_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence([int(self.root_seed), int(self.stream_index)])
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def ball_density_const(k: int, beta: float) -> float:
    """c_{beta,k}, the normalizing constant of the weighted ball law."""
    return math.exp(
        scipy.special.gammaln(k / 2.0 + beta + 1.0)
        - scipy.special.gammaln(beta + 1.0)
        - (k / 2.0) * math.log(math.pi)
    )


def ball_volume(k: int) -> float:
    """Volume of the Euclidean unit ball B_2^k."""
    return math.pi ** (k / 2.0) / scipy.special.gamma(k / 2.0 + 1.0)


def container_volume(bs: BlockStructure) -> float:
    """Volume of the ball product, prod_i Vol(B_2^{d_i})."""
    v = 1.0
    for d in bs.dims:
        v *= ball_volume(d)
    return v


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real 2-D x, equal bit for bit to
    np.linalg.norm(x, axis=1).

    Below ROW_NORM_PAIRWISE columns numpy's reduction adds a row's squares
    in column order, so they are summed here column by column into one
    (n,) array, with no (n, k) array of squares.  From there on numpy sums
    a row pairwise, and its own reduction is kept.
    """
    k = x.shape[1]
    if k >= ROW_NORM_PAIRWISE:
        return np.sqrt(np.add.reduce(x * x, axis=1))
    total = np.multiply(x[:, 0], x[:, 0])
    if k > 1:
        square = np.empty_like(total)
        for j in range(1, k):
            total += np.multiply(x[:, j], x[:, j], out=square)
    return np.sqrt(total, out=total)


def sample_beta_ball(law: BetaBallLaw, rng, size: int) -> np.ndarray:
    """Draw size points from the beta-weighted ball law; shape (size, dim)."""
    gen = as_generator(rng)
    n = int(size)
    dirs = gen.standard_normal((n, law.dim))
    dirs /= row_norms(dirs)[:, None]
    radii = np.sqrt(gen.beta(law.dim / 2.0, float(law.beta) + 1.0, size=n))
    dirs *= radii[:, None]
    return dirs


def block_draws(bs: BlockStructure, bp: BetaParams, rng, size: int) -> Iterator[np.ndarray]:
    """Yield each block's size draws, shape (size, d_i), in the stream's order."""
    _check_pair(bs, bp)
    gen = as_generator(rng)
    for d, b in zip(bs.dims, bp.betas):
        yield sample_beta_ball(BetaBallLaw(d, float(b)), gen, size=size)


def sample_block_beta(bs: BlockStructure, bp: BetaParams, rng, size: int) -> np.ndarray:
    """Draw size block-beta points in the ball product; blocks independent."""
    parts = list(block_draws(bs, bp, rng, size))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _kstwo_sf(d, n: int) -> np.float64:
    """scipy.stats.kstwo.sf(d, n) clipped to [0, 1], bit for bit; its
    2 smirnov(n, d) case runs without the GIL (see the module docstring)."""
    n = int(n)
    t = n * d
    # scipy's own tests, in its order and arithmetic (stats._ksstats._kolmogn)
    if n > 140 and 1.0 < t < n - 1 and d < 0.5 and 2.2 <= t * d < 370.0:
        padded = np.ones(KS_GIL_FREE_LEN)     # smirnov(n, 1) returns 0 at once
        padded[0] = d
        return np.clip(2 * scipy.special.smirnov(n, padded)[0], 0.0, 1.0)
    return np.clip(np.asarray(scipy.stats.kstwo.sf(d, n), dtype=np.float64), 0.0, 1.0)


def _ks_one_sample(x, cdf) -> tuple[np.float64, np.float64]:
    """Two-sided one-sample KS statistic and exact p-value of x against cdf.

    Equal bit for bit to scipy.stats.kstest(x, cdf) for a non-decreasing
    elementwise cdf, while calling cdf on a fraction of the points: see
    the module docstring for the block bound.  Raises ValueError on an
    empty or non-finite x.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    n = x.size
    if n == 0 or not np.isfinite(x).all():
        raise ValueError("KS test needs a nonempty sample of finite values")
    # every KS_BLOCK-th index, the first one at or past n - 1 clipped to it
    coarse = np.minimum(np.arange(0, n + KS_BLOCK - 1, KS_BLOCK), n - 1)
    f = cdf(x[coarse])
    best = max(np.max((coarse + 1.0) / n - f), np.max(f - coarse / n))
    bound = np.maximum((coarse[1:] + 1.0) / n - f[:-1], f[1:] - coarse[:-1] / n)
    full = bound > best - KS_SLACK
    starts, stops = coarse[:-1][full] + 1, coarse[1:][full]
    lengths = stops - starts
    # the indices starts[j] .. stops[j] - 1 of every block evaluated in full
    inner = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                 lengths)
    idx = np.concatenate([coarse, inner])
    f = np.concatenate([f, cdf(x[inner])])
    # scipy's expressions: arange(1.0, n + 1) / n - F and F - arange(0.0, n) / n
    d_plus = np.max((idx + 1.0) / n - f)
    d_minus = np.max(f - idx / n)
    d = d_plus if d_plus > d_minus else d_minus
    return d, _kstwo_sf(d, n)


def verify_sampler(n_samples: int, *, rng) -> Report:
    """Radial law and projection property via Kolmogorov-Smirnov.

    The radial law is tested by _ks_one_sample.  It evaluates betainc at
    every KS_BLOCK-th sorted point, and in full only in the blocks a < b
    whose bound max((b+1)/n - F(x_a), F(x_b) - a/n) exceeds the best value
    minus KS_SLACK, which covers betainc's ulp-level non-monotonicity and
    the rounding of the bounds.  Its D and p are equal bit for bit to
    scipy.stats.kstest.  The projection checks use ks_2samp.
    """
    # loaded before the first cloud is drawn, not at the first p-value:
    # loading it with the clouds alive raises verify's peak RSS by about 6 MiB
    scipy.stats
    rep = Report(title="sampler laws")
    gen = as_generator(rng)
    for k in (1, 2, 3, 4):
        for beta in (0.0, 0.5, 2.0):
            pts = sample_beta_ball(BetaBallLaw(k, beta), gen, size=n_samples)
            tsq = np.sum(np.square(pts, out=pts), axis=1)
            del pts
            d, p = _ks_one_sample(tsq, lambda t: scipy.special.betainc(k / 2.0, beta + 1.0, t))
            del tsq
            rep.add(Check(
                name=f"radial_law[k={k},beta={beta}]",
                value=d, reference=0.0, stat_name="p", stat=p, passed=p > 0.01,
            ))
    # projecting the uniform ball law down k dimensions matches beta=(gap)/2
    for k, full in ((2, 4), (3, 5)):
        beta = (full - k) / 2.0
        # each cloud is reduced to its radii before the next is drawn
        direct = sample_beta_ball(BetaBallLaw(k, beta), gen, size=n_samples)
        r1 = row_norms(direct)
        del direct
        lifted = sample_beta_ball(BetaBallLaw(full, 0.0), gen, size=n_samples)
        r2 = row_norms(lifted[:, :k])
        del lifted
        res = scipy.stats.ks_2samp(r1, r2)
        del r1, r2
        rep.add(Check(
            name=f"projection[k={k},from={full}]",
            value=res.statistic, reference=0.0,
            stat_name="p", stat=res.pvalue, passed=res.pvalue > 0.01,
        ))
    return rep
