import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from blockbeta.core import BetaParams, BlockStructure
from blockbeta.sampler import (
    BetaBallLaw,
    RngStream,
    as_generator,
    ball_density_const,
    ball_volume,
    container_volume,
    sample_beta_ball,
    sample_block_beta,
)


def test_ball_density_const_known_values():
    # k=1, beta=1: c = Gamma(5/2)/(sqrt(pi) Gamma(2)) = 3/4
    assert ball_density_const(1, 1.0) == pytest.approx(0.75)
    # k=2, beta=0: uniform on the disk, 1/pi
    assert ball_density_const(2, 0.0) == pytest.approx(1.0 / math.pi)
    # k=0 blocks drop out of products entirely
    assert ball_density_const(0, 2.5) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.5])
def test_density_normalizes(k, beta):
    #radial reduction: total mass = c * surface(S^{k-1}) * int r^{k-1}(1-r^2)^beta
    surface = 2.0 * math.pi ** (k / 2.0) / special.gamma(k / 2.0)
    radial, _ = integrate.quad(
        lambda r: r ** (k - 1) * (1.0 - r * r) ** beta, 0.0, 1.0
    )
    total = ball_density_const(k, beta) * surface * radial
    assert total == pytest.approx(1.0, abs=1e-6)


def test_ball_volume_values():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_container_volume_product():
    bs = BlockStructure((2, 1))
    assert container_volume(bs) == pytest.approx(2.0 * math.pi)


def test_law_validation():
    with pytest.raises(ValueError):
        BetaBallLaw(0, 0.0)
    with pytest.raises(ValueError):
        BetaBallLaw(2, -1.0)


def test_rng_stream_determinism():
    a = sample_beta_ball(BetaBallLaw(3, 0.5), RngStream(42, 7), size=10)
    b = sample_beta_ball(BetaBallLaw(3, 0.5), RngStream(42, 7), size=10)
    c = sample_beta_ball(BetaBallLaw(3, 0.5), RngStream(42, 8), size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("beta", [-0.9, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scaling_directions_in_place_keeps_every_bit(k, beta):
    # the reference makes the same generator calls and scales into a new array
    ref_gen = RngStream(17, k).generator()
    dirs = ref_gen.standard_normal((1000, k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.sqrt(ref_gen.beta(k / 2.0, beta + 1.0, size=1000))
    want = dirs * radii[:, None]
    got = sample_beta_ball(BetaBallLaw(k, beta), RngStream(17, k), size=1000)
    assert np.array_equal(got, want)


def test_as_generator_rejects_ints():
    with pytest.raises(TypeError):
        as_generator(12345)


def test_sample_shapes():
    gen = RngStream(0, 0).generator()
    many = sample_beta_ball(BetaBallLaw(4, 1.0), gen, size=17)
    assert many.shape == (17, 4)
    bs = BlockStructure((2, 3))
    pts = sample_block_beta(bs, BetaParams((0, 1)), gen, size=9)
    assert pts.shape == (9, 5)


def test_samples_inside_ball():
    gen = RngStream(1, 0).generator()
    pts = sample_beta_ball(BetaBallLaw(3, 0.0), gen, size=2000)
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    k=st.integers(1, 4),
    beta=st.floats(-1.0 + 1e-12, -0.9),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_samples_finite_and_inside_ball_near_beta_minus_one(k, beta, seed):
    # the radial law piles up at r = 1 as beta -> -1: most radii round to
    # exactly 1.0 there, and a unit direction times 1.0 may overshoot by
    # an ulp, but never by more
    pts = sample_beta_ball(BetaBallLaw(k, beta), RngStream(seed, 0), size=500)
    assert np.all(np.isfinite(pts))
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("k,beta", [(1, 0.0), (2, 0.5), (3, 2.0), (4, 1.0)])
def test_radial_law(k, beta):
    # ||X||^2 ~ Beta(k/2, beta+1)
    gen = RngStream(2024, k).generator()
    pts = sample_beta_ball(BetaBallLaw(k, beta), gen, size=40_000)
    tsq = np.sum(pts ** 2, axis=1)
    res = stats.kstest(tsq, stats.beta(k / 2.0, beta + 1.0).cdf)
    assert res.pvalue > 0.01, f"KS p={res.pvalue:.4g}"


def test_one_dim_uniform_is_uniform():
    gen = RngStream(5, 0).generator()
    xs = sample_beta_ball(BetaBallLaw(1, 0.0), gen, size=40_000)[:, 0]
    res = stats.kstest(xs, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert res.pvalue > 0.01


def test_projection_property():
    # dropping the last 2 of 4 uniform-ball coordinates lands on beta = 1
    gen = RngStream(7, 0).generator()
    full = sample_beta_ball(BetaBallLaw(4, 0.0), gen, size=40_000)
    direct = sample_beta_ball(BetaBallLaw(2, 1.0), gen, size=40_000)
    res = stats.ks_2samp(
        np.linalg.norm(full[:, :2], axis=1),
        np.linalg.norm(direct, axis=1),
    )
    assert res.pvalue > 0.01


def test_block_sampling_marginals_independent():
    bs = BlockStructure((2, 1))
    bp = BetaParams((0, 0))
    pts = sample_block_beta(bs, bp, RngStream(11, 0), size=50_000)
    r1 = np.linalg.norm(pts[:, :2], axis=1)
    x2 = pts[:, 2]
    assert np.all(r1 <= 1.0 + 1e-12) and np.all(np.abs(x2) <= 1.0 + 1e-12)
    corr = np.corrcoef(r1, np.abs(x2))[0, 1]
    assert abs(corr) < 0.02


def test_density_matches_mc_mass():
    # P(X in A) for A = {x_3 > 0.5} against the quadrature of the marginal
    bs = BlockStructure((2, 1))
    bp = BetaParams((0, 2))
    pts = sample_block_beta(bs, bp, RngStream(13, 0), size=200_000)
    p_hat = float((pts[:, 2] > 0.5).mean())
    c = ball_density_const(1, 2.0)
    p_ref, _ = integrate.quad(lambda t: c * (1 - t * t) ** 2, 0.5, 1.0)
    se = math.sqrt(p_ref * (1 - p_ref) / len(pts))
    assert abs(p_hat - p_ref) < 4 * se
