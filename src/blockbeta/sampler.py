"""Exact samplers for beta-weighted ball laws.

The law on B_2^k with weight beta > -1 has density
c_{beta,k} (1 - ||y||^2)^beta, where

    c_{beta,k} = Gamma(k/2 + beta + 1) / (pi^{k/2} Gamma(beta + 1)).

Its squared radius is Beta(k/2, beta + 1) distributed and independent
of the (uniform) direction, so sampling needs one beta variate and one
normalized Gaussian per point.  No rejection, valid for every beta > -1.
Block products draw each factor independently, side by side.

Reproducibility contract: a stream is identified by (root_seed,
stream_index); equal identifiers give bit-identical draws.  Within one
generator the draw order is fixed: block by block, all of a block's
Gaussian directions, then its radii, so vectorized and repeated calls
stay deterministic.  block_beta_chunks is the one definition of the
block order, beta_ball_chunks of the order within a ball.  The latter
yields a ball's draws in chunks of CHUNK_ROWS rows, normalizing each
chunk and drawing its radii as it goes; numpy gives the same bits for a
count drawn in one call or in consecutive chunks, so the chunk length
changes no bit and leaves the generator where one whole draw would.  A
one-dimensional block draws its Gaussians in CHUNK_ROWS steps into one
reused buffer and keeps only their sign bits, packed eight to a byte:
for a nonzero double g, sqrt(g*g) is |g| exactly (the smallest nonzero
Gaussian, about 1e-17, is far above where g*g underflows), so g/|g| is
exactly +-1 and the radius times the sign has the bits of the normalized
direction times the radius.  A Gaussian of exactly +-0.0 gives +-radius
there, where 0/0 would give NaN.  The bits are unpacked against each
chunk's radii CHUNK_ROWS at a time, at whatever bit offset the chunk
starts, so even a one-chunk draw of n rows holds n/8 bytes of bits and
no n-sized array besides its result.  sample_beta_ball is the one-chunk
case of beta_ball_chunks; sample_block_beta copies block_beta_chunks'
chunks into the cloud, and cap_content_full_mc folds them into its
projection.
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
exact p-value are equal bit for bit to scipy.stats.kstest.

_kstwo_sf gives that p-value, scipy.stats.kstwo.sf(D, n), bit for bit.
It ports the two routes verify's draws reach from scipy 1.17's
stats._ksstats._kolmogn (Simard and L'Ecuyer, "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11), 2011), op for
op: for n > 140 and nD > 1, 2 smirnov(n, D) where 2.2 <= nD^2 < 370 and
D < 1/2, and 1 minus the Pelz-Good approximation where nD^2 < 2.2
outside the Durbin-matrix corner (n <= 100 000 and n D^1.5 <= 1.4).
Every other (D, n) calls kstwo.sf itself, which loads scipy.stats there:
n <= 140, the corner, and the D that only a broken sampler gives: nD <= 1,
a sample spread more evenly than a lattice, and D >= 1/2 or nD^2 >= 370,
where nD^2 >= 35 and p < 1e-30.  At verify's default 200 000
samples a radial check (n = 200 000) never reaches the corner, and a
projection check (n = 100 000) only at D <= 5.8e-4, to which kstwo gives
probability 2.2e-15.  The smirnov sum holds about n terms (0.2-0.3 s at
n = 200 000); it is called on an array padded to KS_GIL_FREE_LEN
elements, which numpy loops over without the GIL, so the other verify
thread runs meanwhile.

_ks_two_sample is scipy.stats.ks_2samp bit for bit.  Up to KS_EXACT_MAX
points in the larger sample ks_2samp's method="auto" is exact, and it is
called itself.  Above, both samples are sorted in place, and D is the
extreme difference of the two empirical cdfs, taken at each sample's
own points with searchsorted(side="right") in ks_2samp's expressions,
so no pooled array is built; p is _kstwo_sf(D, round(mn / (m + n))), as
in ks_2samp's asymptotic path.

row_norms is np.linalg.norm(x, axis=1) bit for bit without the (n, k)
array of squares (see its docstring).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy

from .core import BetaParams, BlockStructure, _check_pair, as_int, beta_floats
from .report import Check, Report

# coarse stride of _ks_one_sample, and how far below the best value a
# block's bound may fall and still be evaluated in full
KS_BLOCK = 32
KS_SLACK = 1e-12
# numpy releases the GIL for a ufunc loop over more than 500 elements
KS_GIL_FREE_LEN = 501
# ks_2samp's method="auto" is exact up to this many points in the larger
# sample (its MAX_AUTO_N)
KS_EXACT_MAX = 10_000
# constants of scipy.stats._ksstats, in its arithmetic
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
_SQRT2PI = np.sqrt(2 * np.pi)
_SQRT3 = np.sqrt(3)
_MIN_LOG = -708
# from this many columns on, numpy's add.reduce sums a row pairwise
ROW_NORM_PAIRWISE = 8
# rows per chunk of the draw stream: 128 KiB per column
CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class BetaBallLaw:
    """Beta-weighted law on the unit ball of dimension dim."""

    dim: int
    beta: float

    def __post_init__(self):
        dim = as_int(self.dim, "dimension", least=1)
        beta_floats((self.beta,))
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


def beta_ball_chunks(law: BetaBallLaw, rng, size: int,
                     rows: int = CHUNK_ROWS) -> Iterator[np.ndarray]:
    """Yield size draws from the beta-weighted ball law in row chunks of
    at most rows, in the stream's order (see the module docstring).

    For dim >= 2 each chunk is a view into one (size, dim) array: the
    caller must drop it before drawing on, or it pins that whole array.
    For dim 1 each chunk is a fresh (k, 1) array and the call holds one
    sign bit per point.  size 0 yields one empty chunk.  The size is
    checked here, not at the first chunk.
    """
    gen = as_generator(rng)
    n = as_int(size, "size", least=0)
    if law.dim == 1:
        return _segment_chunks(gen, n, float(law.beta) + 1.0, rows)
    return _ball_chunks(gen, n, law.dim, float(law.beta) + 1.0, rows)


def _ball_chunks(gen, n: int, dim: int, b: float, rows: int) -> Iterator[np.ndarray]:
    pts = gen.standard_normal((n, dim))
    for lo in range(0, max(n, 1), rows):
        chunk = pts[lo:lo + rows]
        chunk /= row_norms(chunk)[:, None]
        radii = gen.beta(dim / 2.0, b, size=len(chunk))
        chunk *= np.sqrt(radii, out=radii)[:, None]
        del radii      # not held while the next chunk is normalized
        yield chunk


def _segment_chunks(gen, n: int, b: float, rows: int) -> Iterator[np.ndarray]:
    # g/|g| is exactly +-1 for every nonzero double g, so a 1-D direction
    # is kept as its sign bit; g = +-0.0 gives +-1 where g/|g| is NaN.  The
    # bits are packed in CHUNK_ROWS steps, whole bytes whatever rows is
    negative = np.empty((n + 7) >> 3, dtype=np.uint8)
    buf = np.empty(min(n, CHUNK_ROWS))
    for lo in range(0, n, CHUNK_ROWS):
        k = min(CHUNK_ROWS, n - lo)
        gen.standard_normal(out=buf[:k])
        negative[lo >> 3:(lo + k + 7) >> 3] = np.packbits(np.signbit(buf[:k]))
    del buf            # not held while the radii are drawn
    for lo in range(0, max(n, 1), rows):
        radii = gen.beta(0.5, b, size=min(rows, n - lo))
        yield _signed(np.sqrt(radii, out=radii), negative, lo)[:, None]
        del radii      # not held while the next chunk's radii are drawn


def _signed(root: np.ndarray, negative: np.ndarray, lo: int) -> np.ndarray:
    """root times -1 in place where bit lo + i of negative is set, one
    CHUNK_ROWS step at a time so a one-chunk draw unpacks no n bytes."""
    for j in range(0, len(root), CHUNK_ROWS):
        part = root[j:j + CHUNK_ROWS]
        first, k = lo + j, len(part)
        sign = np.unpackbits(negative[first >> 3:(first + k + 7) >> 3],
                             count=(first & 7) + k)[first & 7:].view(np.int8)
        sign *= -2
        sign += 1      # 1 - 2 bit: an int8 +-1, with no chunk of doubles
        part *= sign
    return root


def sample_beta_ball(law: BetaBallLaw, rng, size: int) -> np.ndarray:
    """Draw size points from the beta-weighted ball law; shape (size, dim)."""
    n = as_int(size, "size", least=0)
    (pts,) = beta_ball_chunks(law, rng, n, rows=max(n, 1))
    return pts


def block_beta_chunks(bs: BlockStructure, bp: BetaParams, rng, size: int) -> Iterator:
    """Yield size block-beta draws as (rows, cols, chunk), cloud[rows,
    cols] = chunk, block by block in beta_ball_chunks' chunks.  The caller
    must drop each chunk before asking for the next, or a block's last
    chunk pins that block while the next one is drawn.  The inputs are
    checked here, not at the first chunk.
    """
    _check_pair(bs, bp)
    return _block_chunks(as_generator(rng), as_int(size, "size", least=0), bs, bp)


def _block_chunks(gen, n: int, bs: BlockStructure, bp: BetaParams):
    col = 0
    for d, b in zip(bs.dims, bp.betas):
        lo = 0
        for chunk in beta_ball_chunks(BetaBallLaw(d, float(b)), gen, n):
            yield slice(lo, lo + len(chunk)), slice(col, col + d), chunk
            lo += len(chunk)
            del chunk  # else it is held while the next chunk is drawn, and pins this block
        col += d


def sample_block_beta(bs: BlockStructure, bp: BetaParams, rng, size: int) -> np.ndarray:
    """Draw size block-beta points in the ball product; blocks independent.

    Each block's chunks are copied into one (size, dim) array as they are
    drawn, so the peak is the cloud plus the largest block.
    """
    gen = as_generator(rng)
    chunks = block_beta_chunks(bs, bp, gen, size)      # checks the inputs
    if bs.m == 1:       # the one block's array is the cloud, uncopied
        return sample_beta_ball(BetaBallLaw(bs.dims[0], float(bp.betas[0])), gen, size)
    cloud = np.empty((as_int(size, "size", least=0), bs.dim))
    for rows, cols, chunk in chunks:
        cloud[rows, cols] = chunk
        del chunk      # else a block's last chunk pins it while the next one is drawn
    return cloud


def _kstwo_sf(d, n: int) -> np.float64:
    """scipy.stats.kstwo.sf(d, n) clipped to [0, 1], bit for bit.

    The two routes verify's draws reach, 2 smirnov(n, d) and 1 minus
    Pelz-Good, are scipy.stats._ksstats._kolmogn(n, d, cdf=False) op for
    op; every other (d, n) goes to kstwo.sf itself (see the module
    docstring).
    """
    n = int(n)
    x = np.asarray(d, dtype=np.float64)      # a 0-d array, as kstwo.sf hands it on
    t = n * x
    # under t > 1 each route's condition rules out every branch _kolmogn
    # tests before it; a NaN d fails every comparison
    if n > 140 and t > 1.0:
        nxsquared = t * x
        if 2.2 <= nxsquared < 370.0 and x < 0.5:
            return np.clip(_two_smirnov(n, x), 0.0, 1.0)
        if nxsquared < 2.2 and (n > 100_000 or n * x ** 1.5 > 1.4):
            return np.clip(1.0 - _pelz_good_cdf(n, x), 0.0, 1.0)
    return np.clip(np.asarray(scipy.stats.kstwo.sf(d, n), dtype=np.float64), 0.0, 1.0)


def _two_smirnov(n: int, x) -> np.float64:
    """2 scipy.special.smirnov(n, x), computed without the GIL: numpy loops
    over an array padded to KS_GIL_FREE_LEN elements without it, and
    smirnov(n, 1) returns 0 at once."""
    padded = np.ones(KS_GIL_FREE_LEN)
    padded[0] = x
    return 2 * scipy.special.smirnov(n, padded)[0]


def _pelz_good_cdf(n: int, x) -> np.float64:
    """The Pelz-Good approximation to P(D_n <= x), 0 < x < 1: scipy.stats.
    _ksstats._kolmogn_PelzGood(n, x, cdf=True) op for op."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return np.float64(0.0)

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2), a sum over the odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sum, over all integers k: (pi^2 k^2) q^(k^2) for K2,
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) for K3
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


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


def _ks_two_sample(x, y) -> tuple[np.float64, np.float64]:
    """Two-sided two-sample KS statistic and p-value of the float arrays x
    and y, equal bit for bit to scipy.stats.ks_2samp(x, y).

    Sorts x and y in place.  Up to KS_EXACT_MAX points in the larger
    sample ks_2samp is exact, and is called itself.  Above, D comes from
    the cdf differences at each sample's own points, in ks_2samp's
    expressions, with no pooled array, and p from _kstwo_sf as in
    ks_2samp's asymptotic path.  Raises ValueError on an empty or
    non-finite sample.
    """
    n1, n2 = x.size, y.size
    if min(n1, n2) == 0 or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("KS test needs two nonempty samples of finite values")
    if max(n1, n2) <= KS_EXACT_MAX:
        res = scipy.stats.ks_2samp(x, y)
        return res.statistic, res.pvalue
    x.sort()
    y.sort()
    # the extremes of cdf1 - cdf2 over x and y, pooled in ks_2samp
    lows, highs = [], []
    for pts in (x, y):
        diff = np.searchsorted(x, pts, side="right") / n1
        diff -= np.searchsorted(y, pts, side="right") / n2
        lows.append(diff.min())
        highs.append(diff.max())
        del diff
    min_s = np.clip(-min(lows), 0, 1)
    max_s = max(highs)
    d = min_s if min_s > max_s else max_s
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return np.float64(d), _kstwo_sf(d, np.round(m * n / (m + n)))


def verify_sampler(n_samples: int, *, rng) -> Report:
    """Radial law and projection property via Kolmogorov-Smirnov.

    The radial law is tested by _ks_one_sample, equal bit for bit to
    scipy.stats.kstest, and the projection checks by _ks_two_sample, equal
    bit for bit to scipy.stats.ks_2samp; the module docstring describes
    both and the p-value routes of _kstwo_sf.
    """
    n_samples = as_int(n_samples, "n_samples", least=1)
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
        d, p = _ks_two_sample(r1, r2)
        del r1, r2
        rep.add(Check(
            name=f"projection[k={k},from={full}]",
            value=d, reference=0.0, stat_name="p", stat=p, passed=p > 0.01,
        ))
    return rep
