import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special, stats

from blockbeta.core import BetaParams, BlockStructure
from blockbeta.sampler import (
    CHUNK_ROWS,
    KS_BLOCK,
    KS_EXACT_MAX,
    ROW_NORM_PAIRWISE,
    BetaBallLaw,
    RngStream,
    as_generator,
    ball_density_const,
    ball_volume,
    beta_ball_chunks,
    block_beta_chunks,
    container_volume,
    row_norms,
    sample_beta_ball,
    sample_block_beta,
    verify_sampler,
    _ks_one_sample,
    _ks_two_sample,
    _kstwo_sf,
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
    for dim in (2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            BetaBallLaw(dim, 0.0)
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            BetaBallLaw(2, beta)
    law = BetaBallLaw(np.int64(3), 0.5)
    assert law.dim == 3 and type(law.dim) is int


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


@pytest.mark.parametrize("k", range(1, 11))
def test_sample_beta_ball_keeps_the_bits_of_the_reduce_expression(k):
    # the directions were once scaled by sqrt(add.reduce(dirs * dirs)); row_norms
    # must keep those bits in every dimension, pairwise sums included
    ref_gen = RngStream(2024, k).generator()
    dirs = ref_gen.standard_normal((5000, k))
    dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=1, keepdims=True))
    dirs *= np.sqrt(ref_gen.beta(k / 2.0, 1.5, size=5000))[:, None]
    got = sample_beta_ball(BetaBallLaw(k, 0.5), RngStream(2024, k), size=5000)
    assert got.tobytes() == dirs.tobytes()


@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("k", range(1, 17))
def test_row_norms_equal_linalg_norm_bit_for_bit(k, n):
    gen = RngStream(k, n).generator()
    # columns of unequal scale, so the order of the sums shows in the bits
    wide = gen.standard_normal((n, k + 3)) * np.geomspace(0.01, 100.0, k + 3)
    for x in (np.ascontiguousarray(wide[:, :k]), wide[:, :k], wide[:, 3:], wide[::2, 1:k + 1]):
        assert row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def whole_draw(law, gen, n):
    """One ball's draws as sample_beta_ball made them in a single pass."""
    dirs = gen.standard_normal((n, law.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.sqrt(gen.beta(law.dim / 2.0, float(law.beta) + 1.0, size=n))
    dirs *= radii[:, None]
    return dirs


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    k=st.integers(1, ROW_NORM_PAIRWISE + 1),
    beta=st.floats(-1.0, 3.0, exclude_min=True),
    n=st.integers(0, 1500),
    rows=st.integers(1, 1600),
    seed=st.integers(0, 2 ** 32 - 1),
)
# one-dimensional balls keep their directions as sign bits: empty, one
# point, many short chunks, radii piled up at 1, and chunks that start and
# end inside a byte of bits across several steps of packed bits
@example(k=1, beta=0.5, n=0, rows=CHUNK_ROWS, seed=3)
@example(k=1, beta=2.0, n=1, rows=1, seed=5)
@example(k=1, beta=0.0, n=1500, rows=7, seed=11)
@example(k=1, beta=-0.999, n=1000, rows=300, seed=29)
@example(k=1, beta=0.5, n=2 * CHUNK_ROWS + 5, rows=CHUNK_ROWS - 3, seed=37)
def test_chunked_draws_equal_the_whole_draw_bit_for_bit(k, beta, n, rows, seed):
    law = BetaBallLaw(k, beta)
    whole, chunked = RngStream(seed, k).generator(), RngStream(seed, k).generator()
    want = whole_draw(law, whole, n)
    chunks = [c.copy() for c in beta_ball_chunks(law, chunked, n, rows=rows)]
    assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
    assert np.concatenate(chunks).tobytes() == want.tobytes()
    assert chunked.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("dims,n", [
    ((2, 1), 1000), ((1, 1, 1), 2 * CHUNK_ROWS + 3), ((3, 2), 0), ((4,), 50), ((9, 1), 700)])
def test_sample_block_beta_equals_concatenated_whole_block_draws(dims, n):
    bs = BlockStructure(dims)
    bp = BetaParams(tuple(0.5 * i - 0.5 for i in range(bs.m)))
    ref, gen = RngStream(31, n).generator(), RngStream(31, n).generator()
    want = np.concatenate(
        [whole_draw(BetaBallLaw(d, b), ref, n) for d, b in zip(bs.dims, bp.betas)], axis=1)
    got = sample_block_beta(bs, bp, gen, size=n)
    assert got.shape == (n, bs.dim) and got.tobytes() == want.tobytes()
    assert gen.bit_generator.state == ref.bit_generator.state


def test_sample_block_beta_holds_the_cloud_and_one_block():
    # (2,1,1): the 4n-double cloud, the 2n-double first block and a few
    # chunk-long arrays; concatenating the blocks would hold 8n
    bs = BlockStructure((2, 1, 1))
    n = 200_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample_block_beta(bs, BetaParams.uniform(3), RngStream(5, 0), size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((4 + 2) * n + 4 * CHUNK_ROWS) * np.dtype(float).itemsize


def test_sample_block_beta_drops_each_block_before_drawing_the_next():
    # (3,3): the 6n-double cloud, one 3n-double block and a few chunk-long
    # arrays; a block's last chunk kept while the next block is drawn
    # would pin the first block too, 12n
    bs = BlockStructure((3, 3))
    n = 1_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample_block_beta(bs, BetaParams.uniform(2), RngStream(5, 0), size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((6 + 3) * n + 8 * CHUNK_ROWS) * np.dtype(float).itemsize


def test_one_dim_draws_hold_a_sign_bit_per_point():
    # the (n, 1) result, n sign bits and a few chunk-long arrays (under
    # 512 KiB), though the draw is one n-row chunk; a sign byte per point
    # held 9n bytes, and normalizing a whole (n, 1) array of normals 2n doubles
    n = 1_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample_beta_ball(BetaBallLaw(1, 0.5), RngStream(5, 0), size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (np.dtype(float).itemsize + 1 / 8) * n + (1 << 19)


@pytest.mark.parametrize("size", [2.5, True, -1])
@pytest.mark.parametrize("draw", [
    lambda size: beta_ball_chunks(BetaBallLaw(1, 0.0), RngStream(0, 0), size),
    lambda size: sample_beta_ball(BetaBallLaw(2, 0.0), RngStream(0, 0), size),
    lambda size: sample_block_beta(BlockStructure((2, 1)), BetaParams.uniform(2),
                                   RngStream(0, 0), size),
    lambda size: block_beta_chunks(BlockStructure((2, 1)), BetaParams.uniform(2),
                                   RngStream(0, 0), size),
], ids=["beta_ball_chunks", "sample_beta_ball", "sample_block_beta", "block_beta_chunks"])
def test_sizes_are_never_truncated(draw, size):
    with pytest.raises(ValueError, match="size"):
        draw(size)


def test_integral_sizes_of_any_type_are_accepted():
    for size in (np.int64(3), 3.0):
        assert sample_beta_ball(BetaBallLaw(1, 0.0), RngStream(0, 0), size).shape == (3, 1)
        assert sample_block_beta(BlockStructure((2, 1)), BetaParams.uniform(2),
                                 RngStream(0, 0), size).shape == (3, 3)


def _first_true(pred, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats (a, b) in [lo, hi] with pred(a) false and pred(b)
    true, for a predicate that turns true once as the float grows."""
    assert not pred(lo) and pred(hi)
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return lo, hi


def _smirnov_route(d: float, n: int) -> bool:
    # scipy's test for kstwo.sf = 2 smirnov(n, d), in its own arithmetic
    t = n * d
    return n > 140 and 1.0 < t < n - 1 and d < 0.5 and 2.2 <= t * d < 370.0


def _pelz_good_route(d: float, n: int) -> bool:
    # scipy's test for kstwo.sf = 1 - Pelz-Good at n > 140, in its own
    # arithmetic: d inside the support, nd^2 below the smirnov route and
    # outside the Durbin-matrix corner n <= 100 000, n d^1.5 <= 1.4
    x = np.asarray(d, dtype=np.float64)
    t = n * x
    return (n > 140 and 0.5 / n < x < 1.0 and 1.0 < t < n - 1 and x < 0.5 and t * x < 2.2
            and not (n <= 100_000 and n * x ** 1.5 <= 1.4))


def _carried_route(d: float, n: int) -> bool:
    # _kstwo_sf leaves kstwo.sf uncalled exactly on its two ported routes
    return _smirnov_route(d, n) or _pelz_good_route(d, n)


def _pelz_good_underflows(d: float, n: int) -> bool:
    # Pelz-Good's own cut, qlog < -708, in its arithmetic
    z = np.sqrt(n) * np.asarray(d, dtype=np.float64)
    return -np.pi ** 2 / 8 / z ** 2 < -708


def _route_edges():
    # (n, d) on both sides of each edge of kstwo.sf's routes
    for n in (140, 141):
        yield n, math.sqrt(5.0 / n)
        yield n, math.sqrt(1.0 / n)             # Pelz-Good at 141
    for n, level in ((141, 2.2), (1000, 2.2), (200_000, 2.2), (150_000, 18.0),
                     (2000, 370.0), (200_000, 370.0)):
        yield from zip((n, n), _first_true(lambda d, n=n, level=level: n * d * d >= level,
                                           0.0, 0.5))
    # the Durbin-matrix corner n <= 100 000, n d^1.5 <= 1.4
    for n in (100_000, 100_001):
        yield from zip((n, n), _first_true(lambda d, n=n: n * np.asarray(d) ** 1.5 > 1.4,
                                           0.0, 0.01))
    yield from zip((1000, 1000), _first_true(lambda d: d >= 0.5, 0.25, 0.75))
    for n in (141, 1000, 200_000):
        yield from zip((n, n), _first_true(lambda d, n=n: n * d > 1.0, 0.0, 1.0))
        yield from zip((n, n), _first_true(lambda d, n=n: n * d >= n - 1, 0.0, 1.0))
        # the edges of kstwo's support (1/(2n), 1)
        yield from zip((n, n), _first_true(lambda d, n=n: d > 0.5 / n, 0.0, 1.0))
    # D outside kstwo's support; a negative D with n D^2 >= 2.2 would take
    # the smirnov route without _kstwo_sf's nD > 1 guard
    for n in (100, 141, 1000, 200_000):
        for d in (math.nan, math.inf, -math.inf, -1.0, -0.1, 0.0, 1.0, 2.0):
            yield n, d
    yield from zip((200_000, 200_000),
                   _first_true(lambda d: not _pelz_good_underflows(d, 200_000), 1e-6, 1e-3))


def test_kstwo_sf_equals_scipy_on_both_sides_of_the_smirnov_route(monkeypatch):
    edges = list(_route_edges())
    assert {_smirnov_route(d, n) for n, d in edges} == {True, False}
    assert {_carried_route(d, n) for n, d in edges} == {True, False}
    scipy_sf = stats.kstwo.sf
    for n, d in edges:
        want = np.clip(np.asarray(scipy_sf(d, n), dtype=np.float64), 0.0, 1.0)
        calls = []
        monkeypatch.setattr(stats.kstwo, "sf", lambda *args: calls.append(args) or scipy_sf(*args))
        got = _kstwo_sf(np.float64(d), n)
        monkeypatch.undo()
        assert type(got) is type(want) and got.tobytes() == want.tobytes(), (n, d)
        # only the two ported routes leave kstwo.sf uncalled
        assert (not calls) == _carried_route(d, n), (n, d)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(141, 10 ** 6), level=st.floats(1e-4, 2.2, exclude_max=True))
def test_kstwo_sf_equals_scipy_below_the_smirnov_route(n, level):
    # the Pelz-Good route, the Durbin-matrix corner and, at nd <= 1, what
    # kstwo.sf gives: none of them sums n terms
    d = np.float64(math.sqrt(level / n))
    want = np.clip(np.asarray(stats.kstwo.sf(d, n), dtype=np.float64), 0.0, 1.0)
    got = _kstwo_sf(d, n)
    assert type(got) is type(want) and got.tobytes() == want.tobytes(), (n, d)


def test_kstwo_sf_lets_other_threads_run_on_the_smirnov_route():
    d, n = np.float64(0.004), 200_000
    assert _smirnov_route(d, n)
    _kstwo_sf(d, 1000)                  # load scipy.stats before the clock starts
    stop = threading.Event()
    gaps = []

    def tick():
        last = time.perf_counter()
        while not stop.is_set():
            time.sleep(0.001)
            now = time.perf_counter()
            gaps.append(now - last)
            last = now

    ticker = threading.Thread(target=tick)
    ticker.start()
    try:
        time.sleep(0.02)
        start = time.perf_counter()
        _kstwo_sf(d, n)
        took = time.perf_counter() - start
    finally:
        stop.set()
        ticker.join()
    # holding the GIL for the whole sum would leave one gap as long as the call
    assert max(gaps) < took / 4, (max(gaps), took)


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


def _ks_case(kind, n, seed):
    """A sample of size n and a CDF to test it against, by kind."""
    rng = np.random.default_rng(seed)
    identity = lambda t: np.clip(t, 0.0, 1.0)  # noqa: E731
    a, b = rng.choice([0.5, 1.0, 1.5, 3.0], size=2)
    betainc = lambda t: special.betainc(a, b, t)  # noqa: E731
    if kind == "uniform":
        return rng.uniform(size=n), identity
    if kind == "beta":
        return rng.beta(a, b, size=n), betainc
    if kind == "ties":
        return np.round(rng.beta(a, b, size=n), 2), betainc
    if kind == "first":
        # every point in the upper half: D- peaks at or next to the first point
        return 0.5 + 0.5 * rng.uniform(size=n), identity
    # every point in the lower half: D+ peaks at or next to the last point
    return 0.5 * rng.uniform(size=n), identity


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["uniform", "beta", "ties", "first", "last"]),
    n=st.one_of(st.integers(1, 3 * KS_BLOCK + 3), st.integers(9_990, 10_010)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_ks_one_sample_equals_scipy_kstest_bit_for_bit(kind, n, seed):
    x, cdf = _ks_case(kind, n, seed)
    d, p = _ks_one_sample(x, cdf)
    ref = stats.kstest(x, cdf)
    assert d == ref.statistic and p == ref.pvalue


def test_ks_one_sample_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            _ks_one_sample(np.array([0.1, bad, 0.5]), lambda t: t)


def test_ks_one_sample_evaluates_a_quarter_of_the_cdf_at_most():
    x = RngStream(31, 0).generator().beta(1.5, 3.0, size=200_000)
    seen = []

    def cdf(t):
        seen.append(t.size)
        return special.betainc(1.5, 3.0, t)

    d, p = _ks_one_sample(x, cdf)
    assert sum(seen) <= 0.25 * x.size
    ref = stats.kstest(x, lambda t: special.betainc(1.5, 3.0, t))
    assert d == ref.statistic and p == ref.pvalue


def _two_sample_case(n1: int, n2: int, kind: str, seed: int):
    # "apart" samples two laws far enough apart that n D^2 >= 370, p = 0
    gen = RngStream(seed, 0).generator()
    x = gen.beta(1.5, 3.0, size=n1)
    y = gen.beta(1.5, 8.0 if kind == "apart" else 3.03, size=n2)
    if kind == "ties":
        x, y = np.round(x, 3), np.round(y, 3)
    return x, y


@pytest.mark.parametrize("n1, n2", [(2000, 2000), (1500, 2500), (KS_EXACT_MAX, KS_EXACT_MAX),
                                    (KS_EXACT_MAX + 1, KS_EXACT_MAX + 1),
                                    (KS_EXACT_MAX, KS_EXACT_MAX + 1), (30_000, 30_000),
                                    (12_000, 31_000), (31_000, 12_000)])
@pytest.mark.parametrize("kind", ["plain", "ties", "apart"])
def test_ks_two_sample_equals_scipy_ks_2samp_bit_for_bit(n1, n2, kind):
    for seed in range(3):
        x, y = _two_sample_case(n1, n2, kind, seed)
        ref = stats.ks_2samp(x, y)
        d, p = _ks_two_sample(x.copy(), y.copy())
        assert type(d) is type(ref.statistic) and d.tobytes() == ref.statistic.tobytes()
        assert type(p) is type(ref.pvalue) and p.tobytes() == ref.pvalue.tobytes()


def test_ks_two_sample_sorts_in_place_and_leaves_scipy_stats_uncalled(monkeypatch):
    # past KS_EXACT_MAX neither ks_2samp nor (outside the Durbin corner) kstwo.sf runs
    x, y = _two_sample_case(KS_EXACT_MAX + 1, 20_000, "plain", 4)
    ref = stats.ks_2samp(x, y)
    for name in ("ks_2samp", "kstest"):
        monkeypatch.setattr(stats, name, None)
    monkeypatch.setattr(stats.kstwo, "sf", None)
    d, p = _ks_two_sample(x, y)
    assert (d, p) == (ref.statistic, ref.pvalue)
    assert np.all(x[1:] >= x[:-1]) and np.all(y[1:] >= y[:-1])


def test_ks_two_sample_rejects_empty_and_non_finite():
    for x in (np.array([]), np.array([0.1, np.nan, 0.5]), np.full(KS_EXACT_MAX + 1, np.inf)):
        with pytest.raises(ValueError):
            _ks_two_sample(x, np.linspace(0.0, 1.0, 7))


def test_verify_sampler_radial_checks_equal_scipy_kstest():
    seed, n = 4, 20_000
    checks = {c.name: c for c in verify_sampler(n, rng=RngStream(seed, 0)).checks}
    # the suite's draws, in its order, from the same stream
    gen = RngStream(seed, 0).generator()
    for k in (1, 2, 3, 4):
        for beta in (0.0, 0.5, 2.0):
            tsq = np.sum(np.square(sample_beta_ball(BetaBallLaw(k, beta), gen, size=n)), axis=1)
            ref = stats.kstest(tsq, lambda t: special.betainc(k / 2.0, beta + 1.0, t))
            check = checks[f"radial_law[k={k},beta={beta}]"]
            assert check.value == ref.statistic and check.stat == ref.pvalue
    # and the projection checks equal scipy.stats.ks_2samp
    for k, full in ((2, 4), (3, 5)):
        direct = sample_beta_ball(BetaBallLaw(k, (full - k) / 2.0), gen, size=n)
        lifted = sample_beta_ball(BetaBallLaw(full, 0.0), gen, size=n)
        ref = stats.ks_2samp(np.linalg.norm(direct, axis=1), np.linalg.norm(lifted[:, :k], axis=1))
        check = checks[f"projection[k={k},from={full}]"]
        assert check.value == ref.statistic and check.stat == ref.pvalue
