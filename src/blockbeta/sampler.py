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
generator the draw order is fixed (directions first, then radii, block
by block), so vectorized and repeated calls stay deterministic.

verify_sampler holds the radial law and the projection property to
Kolmogorov-Smirnov tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .core import BetaParams, BlockStructure
from .report import Check, Report


@dataclass(frozen=True)
class BetaBallLaw:
    """Beta-weighted law on the unit ball of dimension dim."""

    dim: int
    beta: float

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if float(self.beta) <= -1.0:
            raise ValueError(f"beta must exceed -1, got {self.beta}")
        object.__setattr__(self, "dim", int(self.dim))


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
        special.gammaln(k / 2.0 + beta + 1.0)
        - special.gammaln(beta + 1.0)
        - (k / 2.0) * math.log(math.pi)
    )


def ball_volume(k: int) -> float:
    """Volume of the Euclidean unit ball B_2^k."""
    return math.pi ** (k / 2.0) / special.gamma(k / 2.0 + 1.0)


def container_volume(bs: BlockStructure) -> float:
    """Volume of the ball product, prod_i Vol(B_2^{d_i})."""
    v = 1.0
    for d in bs.dims:
        v *= ball_volume(d)
    return v


def sample_beta_ball(law: BetaBallLaw, rng, size: int) -> np.ndarray:
    """Draw size points from the beta-weighted ball law; shape (size, dim)."""
    gen = as_generator(rng)
    n = int(size)
    dirs = gen.standard_normal((n, law.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.sqrt(gen.beta(law.dim / 2.0, float(law.beta) + 1.0, size=n))
    dirs *= radii[:, None]
    return dirs


def sample_block_beta(bs: BlockStructure, bp: BetaParams, rng, size: int) -> np.ndarray:
    """Draw size block-beta points in the ball product; blocks independent."""
    if bs.m != len(bp.betas):
        raise ValueError(f"{bs.m} blocks but {len(bp.betas)} beta weights")
    gen = as_generator(rng)
    parts = [
        sample_beta_ball(BetaBallLaw(d, float(b)), gen, size=size)
        for d, b in zip(bs.dims, bp.betas)
    ]
    return np.concatenate(parts, axis=1)


def verify_sampler(seed: int, n_samples: int) -> Report:
    """Radial law and projection property via Kolmogorov-Smirnov."""
    rep = Report(title="sampler laws")
    gen = RngStream(seed, 0).generator()
    for k in (1, 2, 3, 4):
        for beta in (0.0, 0.5, 2.0):
            pts = sample_beta_ball(BetaBallLaw(k, beta), gen, size=n_samples)
            tsq = np.sum(np.square(pts, out=pts), axis=1)
            del pts
            res = stats.kstest(tsq, lambda t: special.betainc(k / 2.0, beta + 1.0, t))
            rep.add(Check(
                name=f"radial_law[k={k},beta={beta}]",
                value=res.statistic, reference=0.0,
                stat_name="p", stat=res.pvalue, passed=res.pvalue > 0.01,
            ))
    # projecting the uniform ball law down k dimensions matches beta=(gap)/2
    for k, full in ((2, 4), (3, 5)):
        beta = (full - k) / 2.0
        # each cloud is reduced to its radii before the next is drawn
        direct = sample_beta_ball(BetaBallLaw(k, beta), gen, size=n_samples)
        r1 = np.linalg.norm(direct, axis=1)
        del direct
        lifted = sample_beta_ball(BetaBallLaw(full, 0.0), gen, size=n_samples)
        r2 = np.linalg.norm(lifted[:, :k], axis=1)
        del lifted
        res = stats.ks_2samp(r1, r2)
        rep.add(Check(
            name=f"projection[k={k},from={full}]",
            value=res.statistic, reference=0.0,
            stat_name="p", stat=res.pvalue, passed=res.pvalue > 0.01,
        ))
    return rep
