import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special
from scipy.special.cython_special import betainc

import blockbeta.metacube as metacube
from blockbeta.core import BetaParams, BlockStructure
from blockbeta.metacube import (
    MetaCap,
    QuadratureError,
    _cap_corner,
    _cap_general,
    _quad,
    cap_content_full_mc,
    cap_content_meta,
    embed_direction,
    incomplete_beta,
    reduction_constant,
    section_content_meta,
    shifted_betas,
    sphere_area,
    verify_blaschke_petkantschin_2d,
    verify_bounds,
    verify_polyspherical,
    verify_reduction,
)
from blockbeta.sampler import CHUNK_ROWS, RngStream, ball_density_const, sample_block_beta


def simpson_adaptive(f, a, b, tol=1e-12, depth=50):
    """Plain recursive Simpson; reference integrator with no scipy."""

    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, hi, flo, fmid, fhi, whole, eps, d):
        mid = (lo + hi) / 2.0
        fl = f((lo + mid) / 2.0)
        fr = f((mid + hi) / 2.0)
        left = simp(lo, mid, flo, fl, fmid)
        right = simp(mid, hi, fmid, fr, fhi)
        if d <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, fl, fmid, left, eps / 2.0, d - 1) + rec(
            mid, hi, fmid, fr, fhi, right, eps / 2.0, d - 1
        )

    mid = (a + b) / 2.0
    fa, fm, fb = f(a), f(mid), f(b)
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol, depth)


def test_incomplete_beta_against_simpson():
    for a, b, x in [(2.0, 3.0, 0.5), (1.5, 1.5, 0.25), (0.5, 2.0, 0.9)]:
        # integrate the (possibly singular) head [0, eps] by series:
        # z^(a-1)(1-z)^(b-1) ~ z^(a-1), so the head carries eps^a / a
        eps = 1e-14
        head = eps ** a / a
        ref = head + simpson_adaptive(
            lambda z: z ** (a - 1.0) * (1.0 - z) ** (b - 1.0), eps, x
        )
        assert incomplete_beta(a, b, x) == pytest.approx(ref, abs=1e-10)


def test_incomplete_beta_edges():
    assert incomplete_beta(2.0, 2.0, 0.0) == 0.0
    full = incomplete_beta(2.0, 2.0, 1.0)
    assert full == pytest.approx(1.0 / 6.0)     # B(2,2)
    with pytest.raises(ValueError):
        incomplete_beta(0.0, 1.0, 0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # 4^beta is a power of two for the first five, not for 0.3
    beta=st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0, 0.3]),
    x=st.floats(0.0, 1.0, exclude_min=True),
)
@example(beta=-0.5, x=1.0)
@example(beta=2.0, x=1.0)
def test_hoisted_closed_form_is_bit_identical_to_incomplete_beta(beta, x):
    # the cap routes evaluate B(a, a; x) as the scalar betainc times a
    # beta function computed once per cap; it must equal the referee
    a = beta + 1.0
    beta_fn = math.exp(special.betaln(a, a))
    assert betainc(a, a, x) * beta_fn == incomplete_beta(a, a, x)
    # for m = 1 and s in (-1, 0] the general route is the closed form alone
    s = 1.0 - 2.0 * x
    if -1.0 < s <= 0.0:
        want = ball_density_const(1, beta) * (
            2.0 * 4.0 ** beta * incomplete_beta(a, a, (1.0 - s) / 2.0)
        )
        assert cap_content_meta(MetaCap(np.array([1.0]), s), [beta]) == want


H = float.fromhex

# (v, s, betas) -> cap_content_meta as recorded before the innermost
# closed form was hoisted: a general and a corner cap for m = 1, 2, 3
# (plus an m = 2 general cap whose 4^beta is not a power of two, so the
# order of the closed form's products shows), then the caps
# verify_reduction draws on stream (404, 7) for dims (1,1,1) at beta 1/2
# (corner, general, general)
PINNED_CAPS = [
    ([1.0], -0.3, [0.5], "0x1.604c2cbfc0957p-1"),
    ([1.0], 0.95, [2.0], "0x1.3b83cf2cf95e4p-13"),
    ([H("0x1.1c66e2b4bfd46p-2"), H("0x1.ebdb487e3ecafp-1")],
     H("0x1.a4c18fd10ed5ep-1"), [1.0, 1.0], "0x1.9cb09fde26de1p-6"),
    ([H("0x1.1c66e2b4bfd46p-2"), H("0x1.ebdb487e3ecafp-1")],
     H("0x1.197a8095b7600p+0"), [-0.5, 2.0], "0x1.08ee456bb257fp-11"),
    ([H("0x1.1c66e2b4bfd46p-2"), H("0x1.ebdb487e3ecafp-1")],
     0.25, [0.3, 1.7], "0x1.25b5853d34388p-2"),
    ([H("0x1.126c10030c60cp-1"), H("0x1.ea61931bb09c7p-2"), H("0x1.63f98eb12b361p-1")],
     H("0x1.fbcd39ed4b6fbp-1"), [-0.5, 0.0, 2.0], "0x1.ea672b3fb121fp-6"),
    ([H("0x1.3824e845b8e05p-1"), H("0x1.6a0f1eaa4356ep-1"), H("0x1.6ebb9ece3abdap-2")],
     H("0x1.a8335f95c5a8ap+0"), [2.0, 2.0, 2.0], "0x1.0b340ea3592ecp-54"),
    ([H("0x1.72b7a84c67e2fp-1"), H("0x1.27ead1a7c26bdp-1"), H("0x1.8176b8113ce81p-2")],
     H("0x1.517e4ec53d6bbp+0"), [0.5] * 3, "0x1.608612dda2d7cp-10"),
    ([H("0x1.8b11be32deec6p-1"), H("0x1.5b8bf30be0919p-3"), H("0x1.39def3f6f815dp-1")],
     H("0x1.5d822ddcbcac8p+0"), [0.5] * 3, "0x1.b79dfc8303b49p-13"),
    ([H("0x1.74123569caa8dp-1"), H("0x1.0cff394ce711ep-1"), H("0x1.c5335dc7a6ed6p-2")],
     H("0x1.a9f5bda243a5bp-1"), [0.5] * 3, "0x1.8cfb8150cef90p-5"),
]


@pytest.mark.parametrize("v, s, betas, want", PINNED_CAPS)
def test_cap_values_are_pinned_to_the_bit(v, s, betas, want):
    assert cap_content_meta(MetaCap(np.array(v), s), betas).hex() == want


# (v, s, betas) -> section_content_meta as recorded while sections had
# their own outer quadrature level: m = 1 (closed form), m = 2 (inner
# level only), m = 3 (one outer level: unequal weights, a weight of -1/2
# with s near -||v||_1, a slice within min v of ||v||_1, equal weights)
# and m = 4 (two outer levels)
_V2 = [H("0x1.0932da32eeabcp-1"), H("0x1.b5f7239c13e10p-1")]
_V3 = [H("0x1.9b575be15eb3ep-3"), H("0x1.5c2cb954ec74fp-2"), H("0x1.d662ae5424674p-1")]
PINNED_SECTIONS = [
    ([1.0], 0.3, [0.5], "0x1.36ef9308cc423p-1"),
    ([1.0], -0.8, [-0.5], "0x1.0f9fdb0d2d1c4p-1"),
    (_V2, 0.4, [1.0, 2.0], "0x1.40b31cb8b5f34p-1"),
    (_V2, -0.2, [-0.5, 1.0], "0x1.5612a3a5eae25p-1"),
    (_V3, 0.5, [0.0, 1.0, 0.5], "0x1.19befb34e1a8bp-1"),
    (_V3, -0.9, [-0.5, 0.5, 2.0], "0x1.758862c96200ap-4"),
    (_V3, H("0x1.5bf1fb3d633c2p+0"), [0.5, 1.0, 2.0], "0x1.712e78c23870ep-17"),
    (_V3, 0.0, [1.0, 1.0, 1.0], "0x1.9286dbc4ce831p-1"),
    ([H("0x1.a17f10f929701p-2"), H("0x1.f92744bbf466ep-4"), H("0x1.aeabef935d492p-1"),
      H("0x1.55311af4b6f90p-2")], 0.6, [0.5, 0.0, 1.0, 2.0], "0x1.a5834af4b1787p-2"),
]


@pytest.mark.parametrize("v, s, betas, want", PINNED_SECTIONS)
def test_section_values_are_pinned_to_the_bit(v, s, betas, want):
    assert section_content_meta(MetaCap(np.array(v), s), betas).hex() == want


def test_quad_raises_when_the_subinterval_limit_is_reached():
    # 1/x on (0, 1] diverges: QUADPACK uses up its 512 subintervals with
    # an error estimate far above the tolerances, and _quad reports it
    with pytest.raises(QuadratureError, match=r"subdivisions \(512\)") as exc:
        _quad(lambda x: 1.0 / x, 0.0, 1.0)
    assert exc.value.err > 0.0
    assert _quad(lambda x: 3.0 * x * x, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert _quad(lambda x: 1.0, 1.0, 1.0) == 0.0


def test_metacap_validation():
    with pytest.raises(ValueError):
        MetaCap(np.array([0.6, -0.8]), 0.0)
    with pytest.raises(ValueError):
        MetaCap(np.array([0.5, 0.5]), 0.0)      # not unit
    cap = MetaCap(np.array([0.6, 0.8]), 0.2)
    assert cap.m == 2
    assert cap.one_norm == pytest.approx(1.4)
    assert cap.s1 == pytest.approx(1.4 - 1.2)


def test_metacap_s1_single_block():
    assert MetaCap(np.array([1.0]), 0.0).s1 == pytest.approx(-1.0)


# --- closed-form references ------------------------------------------


def test_cap_m1_closed_form():
    cap = MetaCap(np.array([1.0]), 0.5)
    got = cap_content_meta(cap, [1.0])
    want = 0.75 * integrate.quad(lambda t: 1 - t * t, 0.5, 1)[0]
    assert got == pytest.approx(want, rel=1e-12)
    assert cap_content_meta(MetaCap(np.array([1.0]), 0.0), [0.0]) == pytest.approx(0.5)


def test_cap_m2_uniform_is_area():
    # with zero weights the content is area/4; check a corner triangle
    v = np.array([0.6, 0.8])
    s = 1.2                                    # gap = 0.2 < min(v)
    gap = 1.4 - s
    want = gap ** 2 / (2 * 0.6 * 0.8) / 4.0
    assert cap_content_meta(MetaCap(v, s), [0.0, 0.0]) == pytest.approx(want, rel=1e-10)
    # and a general-position value against direct area quadrature
    s2 = 0.3
    area = integrate.quad(
        lambda y1: max(0.0, 1.0 - max(-1.0, (s2 - 0.6 * y1) / 0.8)), -1.0, 1.0
    )[0]
    assert cap_content_meta(MetaCap(v, s2), [0.0, 0.0]) == pytest.approx(
        area / 4.0, rel=1e-8
    )


def test_cap_extremes():
    v = np.array([0.6, 0.8])
    assert cap_content_meta(MetaCap(v, 1.5), [0.0, 0.0]) == 0.0
    assert cap_content_meta(MetaCap(v, -1.5), [0.0, 0.0]) == 1.0


def test_cap_zero_component_dropped():
    v3 = np.array([0.8, 0.6, 0.0])
    v2 = np.array([0.8, 0.6])
    a = cap_content_meta(MetaCap(v3, 0.4), [0.5, 1.0, 3.0])
    b = cap_content_meta(MetaCap(v2, 0.4), [0.5, 1.0])
    assert a == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("content", [cap_content_meta, section_content_meta])
def test_caps_and_sections_refuse_a_weight_that_is_not_finite_and_above_minus_one(
        content, bad):
    # a NaN or infinite weight gave a NaN content; BetaParams refuses it too
    for betas in ([bad, 0.5], [0.5, bad]):
        with pytest.raises(ValueError, match="beta weights must be finite and exceed -1"):
            content(MetaCap(np.array([0.8, 0.6]), 0.4), betas)


_BS, _BP = BlockStructure((2, 1)), BetaParams.uniform(2)


@pytest.mark.parametrize("call,match", [
    (lambda: MetaCap(np.array([0.8, 0.6]), math.nan), "s must not be NaN"),
    (lambda: MetaCap(np.array([math.nan, 1.0]), 0.2), "unit vector"),
    (lambda: MetaCap(np.array([1.0, math.nan]), 0.2), "unit vector"),
    (lambda: cap_content_full_mc(_BS, _BP, [1.0, 0.0, 0.0], math.nan, 10, RngStream(0, 0)),
     "finite direction and an s that is not NaN"),
    (lambda: cap_content_full_mc(_BS, _BP, [math.nan, 0.0, 1.0], 0.2, 10, RngStream(0, 0)),
     "finite direction"),
    (lambda: cap_content_full_mc(_BS, _BP, [0.0, math.inf, 0.0], 0.2, 10, RngStream(0, 0)),
     "finite direction"),
], ids=["cap_s", "cap_v0", "cap_v1", "mc_s", "mc_w_nan", "mc_w_inf"])
def test_a_nan_offset_or_direction_is_refused(call, match):
    # a NaN s gave NaN caps and 0.5-0.78 sections, v = (NaN, 1) read as the
    # 1-D cap, and the Monte Carlo mass read 0.0
    with pytest.raises(ValueError, match=match):
        call()


def test_an_infinite_offset_is_the_empty_or_the_full_cap():
    v, w = np.array([0.8, 0.6]), [0.8, 0.6, 0.0]
    for s, want in ((math.inf, 0.0), (-math.inf, 1.0)):
        assert cap_content_meta(MetaCap(v, s), [0.0, 0.5]) == want
        assert section_content_meta(MetaCap(v, s), [0.0, 0.5]) == 0.0
        assert cap_content_full_mc(_BS, _BP, w, s, 10, RngStream(0, 0)) == want


def test_cap_corner_handles_thin_slivers():
    # direct quadrature would see ~1e-30 of cancelling mass here
    v = np.array([0.6, 0.8])
    gap = 1e-10
    got = cap_content_meta(MetaCap(v, 1.4 - gap), [0.0, 0.0])
    want = gap ** 2 / (2 * 0.6 * 0.8) / 4.0
    assert got == pytest.approx(want, rel=1e-8)


unit_vec_st = st.lists(
    st.floats(0.05, 1.0), min_size=1, max_size=3
).map(lambda xs: np.asarray(xs) / np.linalg.norm(xs))


@settings(max_examples=40, deadline=None)
@given(v=unit_vec_st, data=st.data())
def test_cap_complement_identity(v, data):
    betas = [
        data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in range(len(v))
    ]
    s = data.draw(st.floats(0.0, float(v.sum()) * 0.95))
    total = cap_content_meta(MetaCap(v, s), betas) + cap_content_meta(
        MetaCap(v, -s), betas
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_a_large_cap_is_split_where_its_inner_limit_reaches_minus_one():
    # the outer level crosses y* = (s + v_in) / v_0, where the inner lower
    # limit clamps to -1; integrated in one piece the cap read
    # 0.9006889343574143, and cap + complement = 1 + 2.2e-6
    v = np.array([0.48564293, 0.87415728])
    v /= np.linalg.norm(v)
    s = -0.5941436307320409
    cap = cap_content_meta(MetaCap(v, s), [1.0, 1.0])
    complement = cap_content_meta(MetaCap(v, -s), [1.0, 1.0])
    assert cap + complement == pytest.approx(1.0, abs=metacube.QUAD_ABS_TOL)
    # one level over y_0, the inner integral of 3/4 (1 - t^2) in closed form
    c = ball_density_const(1, 1.0)

    def f(y):
        lo = max(-1.0, (s - v[0] * y) / v[1])
        return c * (1.0 - y * y) * c * ((1.0 - lo) - (1.0 - lo ** 3) / 3.0)

    kink = (s + v[1]) / v[0]
    assert -1.0 < kink < 1.0
    ref = integrate.quad(f, -1.0, 1.0, points=[kink], epsabs=1e-13, epsrel=1e-13)[0]
    assert cap == pytest.approx(ref, abs=metacube.QUAD_ABS_TOL)


betas_st = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(v=unit_vec_st, data=st.data())
def test_cap_corner_and_general_routes_agree(v, data):
    # both routes are valid whenever gap = one_norm - s < min v
    betas = [data.draw(betas_st) for _ in v]
    gap = data.draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)) * float(v.min())
    s = float(v.sum()) - gap
    assert _cap_corner(v, s, betas) == pytest.approx(_cap_general(v, s, betas), rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(v=unit_vec_st, data=st.data())
def test_cap_continuous_where_the_route_switches(v, data):
    # cap_content_meta takes the corner route just above one_norm - min v
    # and the general route just below it; across the 2e-9 step the cap
    # drops by the section content (its -d/ds) times the step, which
    # alone reaches 1.6e-7 of the cap when min v is small
    betas = [data.draw(betas_st) for _ in v]
    switch = float(v.sum()) - float(v.min())
    below = cap_content_meta(MetaCap(v, switch - 1e-9), betas)
    above = cap_content_meta(MetaCap(v, switch + 1e-9), betas)
    drop = 2e-9 * section_content_meta(MetaCap(v, switch), betas)
    assert above == pytest.approx(below - drop, rel=1e-7)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(v=unit_vec_st, data=st.data())
def test_cap_monotone_in_s(v, data):
    betas = [0.5] * len(v)
    s1 = data.draw(st.floats(-0.5, 0.5))
    s2 = s1 + data.draw(st.floats(0.01, 0.4))
    assert cap_content_meta(MetaCap(v, s1), betas) >= cap_content_meta(
        MetaCap(v, s2), betas
    ) - 1e-9


# --- sections ----------------------------------------------------------


def test_section_m1():
    c = ball_density_const(1, 2.0)
    got = section_content_meta(MetaCap(np.array([1.0]), 0.3), [2.0])
    assert got == pytest.approx(c * (1 - 0.09) ** 2, rel=1e-12)
    assert section_content_meta(MetaCap(np.array([1.0]), 1.2), [2.0]) == 0.0


def test_section_diagonal_uniform():
    # the central diagonal of the square has length 2*sqrt(2); density 1/4
    r = math.sqrt(0.5)
    got = section_content_meta(MetaCap(np.array([r, r]), 0.0), [0.0, 0.0])
    assert got == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-9)


def test_section_is_cap_derivative():
    v = np.array([0.6, 0.8])
    betas = [0.5, 1.0]
    for s in (0.1, 0.6, 1.1):
        eps = 1e-5
        diff = (
            cap_content_meta(MetaCap(v, s - eps), betas)
            - cap_content_meta(MetaCap(v, s + eps), betas)
        ) / (2 * eps)
        assert section_content_meta(MetaCap(v, s), betas) == pytest.approx(
            diff, rel=1e-4
        )


def test_section_outside_support():
    v = np.array([0.6, 0.8])
    assert section_content_meta(MetaCap(v, 1.45), [0.0, 0.0]) == 0.0


def test_section_thin_corner_m3():
    # near the corner the slice support is a sliver of width ~gap/v_j in
    # each free coordinate; the quadrature has to find it
    v = np.array([0.5, 0.6, 0.6243])
    v = v / np.linalg.norm(v)
    betas = [0.0, 1.0, 0.5]
    one = float(v.sum())
    for gap in (1e-3, 1e-5):
        h = gap * 1e-3
        diff = (
            cap_content_meta(MetaCap(v, one - gap - h), betas)
            - cap_content_meta(MetaCap(v, one - gap + h), betas)
        ) / (2 * h)
        got = section_content_meta(MetaCap(v, one - gap), betas)
        assert got == pytest.approx(diff, rel=1e-3)
        assert got > 0.0


def test_caps_and_sections_are_the_same_from_two_threads():
    # verify runs its suites on two threads: quadrature from one thread
    # must not disturb the other's
    gen = np.random.default_rng(8)
    cases = []
    for k in range(40):
        m = 1 + k % 3
        v = np.abs(gen.standard_normal(m)) + 0.1
        v /= np.linalg.norm(v)
        s = gen.uniform(-1.0, 1.0) * float(v.sum())
        betas = [float(b) for b in gen.choice([0.0, 0.5, 1.0], size=m)]
        cases.append((MetaCap(v, s), betas))
    for content in (cap_content_meta, section_content_meta):
        serial = [content(cap, betas) for cap, betas in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # hand the GIL over as often as possible
        try:
            with ThreadPoolExecutor(2) as pool:
                threaded = list(pool.map(lambda case: content(*case), cases))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


# --- reduction ----------------------------------------------------------


@pytest.mark.parametrize("dims,betas", [
    ((2, 1), (0, 0)),
    ((3, 2), (0.5, 1.5)),
    ((4,), (2,)),
    ((1, 1, 1), (0, 1, 2)),
])
def test_reduction_constant_is_one(dims, betas):
    got = reduction_constant(BlockStructure(dims), BetaParams(betas))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_shifted_betas():
    got = shifted_betas(BlockStructure((3, 1)), BetaParams((0.5, 2)))
    assert got == pytest.approx([1.5, 2.0])


@pytest.mark.parametrize("betas", [(0,), (0, 0, 0)])
def test_reduction_refuses_a_beta_count_unequal_to_the_blocks(betas):
    bs, bp = BlockStructure((2, 1)), BetaParams(betas)
    with pytest.raises(ValueError, match="2 blocks but"):
        reduction_constant(bs, bp)
    with pytest.raises(ValueError, match="2 blocks but"):
        shifted_betas(bs, bp)


def test_embed_direction():
    bs = BlockStructure((2, 1))
    w = embed_direction(bs, [0.6, 0.8], [np.array([1.0, 0.0]), np.array([-1.0])])
    assert np.allclose(w, [0.6, 0.0, -0.8])
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_halfspace_mass_single_block_matches_marginal():
    # m=1: the meta-cap IS the marginal tail of one coordinate
    bs = BlockStructure((3,))
    bp = BetaParams((0.5,))
    w = np.array([1.0, 0.0, 0.0])
    s = 0.35
    n = 400_000
    p_hat = cap_content_full_mc(bs, bp, w, s, n, RngStream(3, 0))
    p_ref = cap_content_meta(
        MetaCap(np.array([1.0]), s), shifted_betas(bs, bp)
    ) * reduction_constant(bs, bp)
    assert abs(p_hat - p_ref) < 4 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def assert_hits_equal_the_matmul_reference(dims, n):
    bs = BlockStructure(dims)
    bp = BetaParams(tuple(0.5 * i for i in range(bs.m)))
    w = np.random.default_rng(len(dims)).standard_normal(bs.dim)
    w /= np.linalg.norm(w)
    pts = sample_block_beta(bs, bp, RngStream(11, 0), size=n)
    for s in (-math.inf, -0.6, 0.0, 0.25, 0.7, math.inf):
        p_hat = cap_content_full_mc(bs, bp, w, s, n, RngStream(11, 0))
        assert type(p_hat) is float and p_hat == float((pts @ w >= s).mean())


@pytest.mark.parametrize("dims", [(2, 1), (1, 1, 1), (3, 2), (4,), (1, 1, 1, 1, 1, 1)])
def test_halfspace_hits_equal_the_matmul_reference(dims):
    assert_hits_equal_the_matmul_reference(dims, 50_000)


def test_halfspace_hits_equal_the_matmul_reference_across_chunks():
    # three chunks per block, the last one short
    assert_hits_equal_the_matmul_reference((2, 1), 2 * CHUNK_ROWS + 7)


def test_halfspace_mass_rejects_a_direction_of_the_wrong_length():
    bs = BlockStructure((2, 1))
    for w in ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="shape"):
            cap_content_full_mc(bs, BetaParams.uniform(2), w, 0.0, 10, RngStream(0, 0))


@pytest.mark.parametrize("n_samples", [0, -5, 2.7, True])
def test_halfspace_mass_rejects_a_sample_count_that_is_not_a_positive_integer(n_samples):
    bs = BlockStructure((2, 1))
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
        cap_content_full_mc(bs, BetaParams.uniform(2), [1.0, 0.0, 0.0], 0.0, n_samples,
                            RngStream(0, 0))
    # an integral float is a count, as sample_block_beta takes it
    assert (cap_content_full_mc(bs, BetaParams.uniform(2), [1.0, 0.0, 0.0], 0.0, 1000.0,
                                RngStream(0, 0))
            == cap_content_full_mc(bs, BetaParams.uniform(2), [1.0, 0.0, 0.0], 0.0, 1000,
                                   RngStream(0, 0)))


def test_halfspace_mass_never_holds_the_whole_cloud():
    # six one-dimensional blocks: the (n, 6) cloud would be 6 n doubles.
    # The fold holds the projection, one sign bit per point of the block
    # being drawn and a few chunk-long arrays; a sign byte per point or an
    # n-byte hit mask would add n bytes, holding that block's (n, 1) normals
    # would read 2 n doubles, and its directions and radii at once 4 n
    bs = BlockStructure((1,) * 6)
    n = 1_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cap_content_full_mc(bs, BetaParams.uniform(6), np.full(6, 6 ** -0.5), 0.1, n,
                            RngStream(5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n + 4 * CHUNK_ROWS) * np.dtype(float).itemsize + n / 8


def test_halfspace_mass_drops_each_block_before_drawing_the_next():
    # (3,3): the projection, one 3n-double block and a few chunk-long
    # arrays; a block's last chunk (or a column of it) kept while the next
    # block is drawn would pin the first block too, 7n
    bs = BlockStructure((3, 3))
    n = 1_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cap_content_full_mc(bs, BetaParams.uniform(2), np.full(6, 6 ** -0.5), 0.1, n,
                            RngStream(5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((1 + 3) * n + 8 * CHUNK_ROWS) * np.dtype(float).itemsize


def test_verify_reduction_smoke():
    rep = verify_reduction(
        BlockStructure((2, 1)), BetaParams.uniform(2),
        trials=4, n_samples=100_000, rng=RngStream(17, 0),
    )
    assert rep.passed, "\n" + str(rep)


@pytest.mark.parametrize("n_samples", [0, -5, 2.7, True])
def test_verify_reduction_rejects_a_sample_count_that_is_not_a_positive_integer(n_samples):
    # 0 raised ZeroDivisionError from the cap filter's min_hits / n_samples
    gen = RngStream(17, 0).generator()
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
        verify_reduction(BlockStructure((2, 1)), BetaParams.uniform(2), trials=2,
                         n_samples=n_samples, rng=gen)
    assert gen.bit_generator.state == state        # refused before the first draw


def test_verify_reduction_fails_a_trial_with_no_admissible_cap(monkeypatch):
    # every candidate cap is refused: the trial must fail as such, not
    # z-test a Monte Carlo draw against a stale or out-of-range reference
    drawn = []
    monkeypatch.setattr(metacube, "cap_content_meta", lambda cap, betas: 0.0)
    monkeypatch.setattr(metacube, "cap_content_full_mc",
                        lambda *args, **kwargs: drawn.append(args) or 0.0)
    rep = verify_reduction(BlockStructure((2, 1)), BetaParams.uniform(2),
                           trials=3, n_samples=1000, rng=RngStream(17, 0))
    assert not drawn and not rep.passed
    assert [c.name for c in rep.checks] == [
        f"halfspace_mass[{t}] no admissible cap in 64 candidates" for t in range(3)]
    assert all(math.isnan(c.value) and math.isnan(c.reference) and not c.passed
               for c in rep.checks)


# --- the referee suites (small budgets) --------------------------------


def test_verify_polyspherical_smoke():
    reports = verify_polyspherical(BlockStructure((2, 1)), n_samples=60_000,
                                   rng=RngStream(19, 0))
    assert [rep.title for rep in reports] == [
        f"polyspherical dims=(2, 1) f={f}" for f in ("one", "first_block_sq", "exp_first")]
    for rep in reports:
        assert rep.passed, "\n" + str(rep)


def test_verify_bp2d_smoke():
    reports = verify_blaschke_petkantschin_2d(n_samples=150_000, rng=RngStream(23, 0))
    assert [rep.title for rep in reports] == [
        f"pair integral via lines f={f}" for f in ("square", "disk", "gauss_diff")]
    for rep in reports:
        assert rep.passed, "\n" + str(rep)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # std of one sample
def test_verify_bp2d_single_sample_does_not_pass():
    # with one sample the standard errors are NaN; the z-tests must fail
    # rather than read z = 0
    for rep in verify_blaschke_petkantschin_2d(n_samples=1, rng=RngStream(0, 3)):
        assert not rep.passed
        assert all(math.isnan(c.stat) and not c.passed for c in rep.checks)


@pytest.mark.parametrize("n_samples", [2.7, True])
@pytest.mark.parametrize("suite", [
    lambda n: verify_polyspherical(BlockStructure((2, 1)), n_samples=n, rng=RngStream(0, 2)),
    lambda n: verify_blaschke_petkantschin_2d(n_samples=n, rng=RngStream(0, 3)),
], ids=["polyspherical", "bp2d"])
def test_verify_suites_refuse_a_sample_count_that_is_not_an_integer(suite, n_samples):
    # 2.7 drew 2 pairs in bp2d and passed; polyspherical raised a bare TypeError
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        suite(n_samples)


def test_verify_bounds_smoke():
    rep = verify_bounds((0.5, 0.5))
    assert rep.passed, "\n" + str(rep)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
