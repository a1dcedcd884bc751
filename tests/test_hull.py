import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import blockbeta.hull as hull_module
from blockbeta.hull import (
    CONTAINS_TOL,
    RANK_TOL,
    DegenerateInput,
    HullResult,
    _certified_full_rank,
    _compress,
    _dedup,
    _subset_multiplicities,
    brute_force_facets,
    contains_points,
    convex_hull,
    euler_relation_holds,
    f_vector,
    lower_face_bounds_hold,
    lower_face_coefficient,
    ridges_regular,
    verify_hull,
    volume,
)
from blockbeta.predicates import orientation
from blockbeta.sampler import RngStream


def cube_points(d, scale=1.0):
    grid = np.array(
        np.meshgrid(*[[-scale, scale]] * d, indexing="ij")
    ).reshape(d, -1).T
    return np.ascontiguousarray(grid, dtype=float)


def test_octahedron_f_vector():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    hull = convex_hull(pts)
    assert f_vector(hull) == (6, 12, 8)
    assert sorted(hull.vertex_ids) == list(range(6))


def test_square_f_vector():
    pts = cube_points(2)
    assert f_vector(convex_hull(pts)) == (4, 4)


def test_simplex_volume():
    for d in (2, 3, 4):
        pts = np.vstack([np.zeros(d), np.eye(d)])
        hull = convex_hull(pts)
        assert volume(hull) == pytest.approx(1.0 / math.factorial(d), rel=1e-12)


@pytest.mark.parametrize("d,vol", [(2, 4.0), (3, 8.0), (4, 16.0)])
def test_cube_volume(d, vol):
    hull = convex_hull(cube_points(d))
    assert volume(hull) == pytest.approx(vol, rel=1e-12)
    assert f_vector(hull)[0] == 2 ** d


def test_interior_points_with_interior_cloud():
    # interior points must not appear among the hull vertices
    gen = np.random.default_rng(3)
    pts = np.vstack([cube_points(3), gen.uniform(-0.5, 0.5, size=(10, 3))])
    hull = convex_hull(pts)
    assert set(hull.vertex_ids) == set(range(8))


def test_contains():
    hull = convex_hull(cube_points(3))
    flags = contains_points(hull, [
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],                  # a vertex
        [1.0 + 1e-10, 0.0, 0.0],          # outside, within CONTAINS_TOL
        [1.0 + 1e-8, 0.0, 0.0],
        [1.1, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.0, 0.0, 2.0],
    ])
    assert list(flags) == [True, True, True, False, False, True, False]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_contains_points_matches_the_matmul_reference(d, seed):
    gen = np.random.default_rng(seed)
    hull = convex_hull(gen.standard_normal((2 * d + 6, d)))
    vertices = hull.points[list(hull.vertex_ids)]
    centroids = hull.points[hull.facet_vertices].mean(axis=1)
    # each facet's centroid moved along its outward normal, in and out
    near = [centroids + step * hull.normals for step in (-1e-6, -1e-12, 1e-12, 1e-6)]
    probes = np.vstack([vertices, centroids, *near, gen.standard_normal((200, d))])
    reference = np.all(probes @ hull.normals.T <= hull.offsets + CONTAINS_TOL, axis=1)
    flags = contains_points(hull, probes)
    assert flags.dtype == bool and flags.shape == (len(probes),)
    assert np.array_equal(flags, reference)
    assert flags[:len(vertices) + len(centroids)].all()
    assert not contains_points(hull, near[-1]).any()


@pytest.mark.parametrize(
    "xs", [np.zeros(3), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((1, 4, 3))],
)
def test_contains_points_rejects_queries_of_the_wrong_shape(xs):
    hull = convex_hull(cube_points(3))
    with pytest.raises(ValueError, match="shape"):
        contains_points(hull, xs)


def test_normals_point_outward():
    hull = convex_hull(cube_points(3, scale=2.0))
    # every facet plane evaluated at the origin must be strictly inside
    assert np.all(hull.normals @ np.zeros(3) < hull.offsets)
    assert np.allclose(np.linalg.norm(hull.normals, axis=1), 1.0)


def test_degenerate_inputs():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegenerateInput):
        convex_hull(line)
    with pytest.raises(DegenerateInput):
        convex_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))    # too few points
    flat3 = np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0], [0.5, 0.5, 0]]
    )
    with pytest.raises(DegenerateInput):
        convex_hull(flat3)


def whole_cloud_rank(pts):
    return np.linalg.matrix_rank(pts - pts[0], tol=RANK_TOL)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 6),
    data=st.data(),
    n=st.integers(2, 80),
    offset=st.sampled_from([0.0]) | st.floats(1e-12, 1e-6),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_rank_certificate_never_overrules_the_whole_cloud_svd(d, data, n, offset, scale, seed):
    # flat clouds of every lower rank, lifted off their flat by at most
    # offset, and clouds of a few points repeated
    gen = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="duplicated"):
        distinct = gen.standard_normal((data.draw(st.integers(1, d + 2)), d))
        pts = distinct[gen.integers(0, len(distinct), size=n)]
    else:
        flat = data.draw(st.integers(0, d - 1), label="flat rank")
        pts = gen.standard_normal((n, flat)) @ gen.standard_normal((flat, d))
    pts = scale * (pts + gen.standard_normal(d))
    pts += offset * scale * gen.uniform(-1.0, 1.0, size=pts.shape)
    if _certified_full_rank(pts):
        assert whole_cloud_rank(pts) == d


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_rank_certificate_holds_for_random_clouds(d):
    # its rows are the coordinate extremes, so it can miss a small cloud
    # whose points are interior in every coordinate, but not these
    for n in (20 * d, 10_000):
        pts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, d))
        assert _certified_full_rank(pts) and whole_cloud_rank(pts) == d


def test_exactly_flat_clouds_stay_degenerate():
    gen = np.random.default_rng(3)
    for d in (2, 3, 4):
        pts = gen.standard_normal((200, d - 1)) @ gen.standard_normal((d - 1, d))
        assert not _certified_full_rank(pts)
        with pytest.raises(DegenerateInput, match=f"affine rank {d - 1} < {d}"):
            convex_hull(pts)


def test_duplicates_merge_to_original_indices():
    pts = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
        [1.0, 0.0],          # exact duplicate of row 1
        [1.0 + 1e-15, 0.0],  # near-duplicate of row 1
    ])
    hull = convex_hull(pts)
    assert set(hull.vertex_ids) == {0, 1, 2}
    assert hull.points.shape == (5, 2)


# --- combinatorial invariants on random clouds -----------------------


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_hull_invariants(d):
    gen = np.random.default_rng(d)
    for _ in range(6):
        n = int(gen.integers(d + 2, 80))
        hull = convex_hull(gen.standard_normal((n, d)))
        fv = f_vector(hull)
        assert euler_relation_holds(fv)
        assert ridges_regular(hull)
        assert lower_face_bounds_hold(fv)
        assert fv[0] == len(hull.vertex_ids)


# --- referees for the face counting and dedup -------------------------
# Plain-Python sets and counters over the facet rows; they call no hull
# helper, so the sorted packed-key paths are checked against an
# independent count.


def reference_f_vector(facet_rows, d):
    return tuple(
        len({frozenset(c) for row in facet_rows for c in combinations(row, k)})
        for k in range(1, d + 1)
    )


def reference_ridges_regular(facet_rows, d):
    ridges = Counter(
        frozenset(c) for row in facet_rows for c in combinations(row, d - 1)
    )
    return all(count == 2 for count in ridges.values())


def reference_first_occurrences(pts):
    seen = set()
    keep = []
    for i, row in enumerate(np.round(pts, 12).tolist()):
        key = tuple(x + 0.0 for x in row)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 60), st.integers(0, 2 ** 32 - 1))
def test_f_vector_and_ridges_match_plain_python_count(d, extra, seed):
    pts = np.random.default_rng(seed).standard_normal((d + 1 + extra, d))
    hull = convex_hull(pts)
    rows = hull.facet_vertices.tolist()
    assert f_vector(hull) == reference_f_vector(rows, d)
    assert ridges_regular(hull) is reference_ridges_regular(rows, d) is True


def packed_key_multiplicities(ids, base, size):
    """The packed-key subset count, building a fresh array at each step."""
    cols = list(combinations(range(ids.shape[1]), size))
    keys = np.zeros((len(ids), len(cols)), dtype=np.int64)
    for j in range(size):
        keys = keys * base + ids[:, [c[j] for c in cols]]
    keys = np.sort(keys, axis=None)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return np.diff(starts, append=len(keys))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(0, 200), st.integers(0, 2 ** 32 - 1))
def test_subset_multiplicities_equal_the_fresh_array_count(d, extra, seed):
    pts = np.random.default_rng(seed).standard_normal((d + 1 + extra, d))
    ids, f0 = _compress(convex_hull(pts).facet_vertices)
    for size in range(d):
        got = _subset_multiplicities(ids, f0, size)
        assert got.tolist() == packed_key_multiplicities(ids, f0, size).tolist()


def synthetic_hull(facet_rows, d):
    rows = np.asarray(facet_rows, dtype=np.int64)
    return HullResult(
        points=np.zeros((0, d)), dim=d, vertex_ids=(), facet_vertices=rows,
        normals=np.zeros((len(rows), d)), offsets=np.zeros(len(rows)),
        interior_point=np.zeros(d),
    )


def test_ridges_regular_flags_open_and_doubled_surfaces():
    rows = convex_hull(np.random.default_rng(7).standard_normal((40, 4))).facet_vertices
    opened = rows[1:].tolist()
    doubled = np.vstack([rows, rows[:1]]).tolist()   # its ridges lie in 3 facets
    for bad in (opened, doubled):
        assert ridges_regular(synthetic_hull(bad, 4)) is False
        assert reference_ridges_regular(bad, 4) is False


def test_empty_facet_list_has_no_faces():
    empty = synthetic_hull(np.zeros((0, 3)), 3)
    assert f_vector(empty) == reference_f_vector([], 3) == (0, 0, 0)
    assert ridges_regular(empty) is reference_ridges_regular([], 3) is True


def test_face_counts_past_int64_packing_take_the_overflow_path():
    # twelve disjoint boundaries of 10-simplices: every ridge lies in two
    # facets, and 132 vertices make 132**9 overflow 63 bits
    d = 10
    spread = 10 ** 9                    # large, uneven raw ids
    rows = [
        [spread * (11 * s + v) + v for v in range(11) if v != skip]
        for s in range(12) for skip in range(11)
    ]
    f0 = len({i for row in rows for i in row})
    assert f0 ** (d - 1) >= 2 ** 63 and f0 ** (d - 2) < 2 ** 63
    hull = synthetic_hull(rows, d)
    assert f_vector(hull) == reference_f_vector(rows, d)
    assert f_vector(hull) == tuple(12 * math.comb(11, k) for k in range(1, d + 1))
    assert ridges_regular(hull) is True
    assert ridges_regular(synthetic_hull(rows[1:], d)) is False

    # random sorted rows over 300 ids: every k >= 8 overflows
    gen = np.random.default_rng(11)
    rows = np.sort(
        np.stack([gen.choice(300, size=d, replace=False) for _ in range(60)]), axis=1
    ).tolist()
    f0 = len({i for row in rows for i in row})
    assert f0 ** 8 >= 2 ** 63
    hull = synthetic_hull(rows, d)
    assert f_vector(hull) == reference_f_vector(rows, d)
    assert ridges_regular(hull) is reference_ridges_regular(rows, d) is False


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5), st.integers(2, 40), st.integers(0, 2 ** 32 - 1),
    st.sampled_from(["exact", "near", "zeros", "flat"]),
)
def test_dedup_keeps_first_occurrences(d, n, seed, kind):
    gen = np.random.default_rng(seed)
    pts = gen.standard_normal((n, d))
    if kind == "exact":
        pts = np.vstack([pts, pts[gen.integers(0, n, size=n)]])
    elif kind == "near":
        pts = np.vstack([pts, pts + gen.uniform(-1e-13, 1e-13, size=pts.shape)])
    elif kind == "zeros":
        pts[gen.random(pts.shape) < 0.4] = 0.0
        pts[gen.random(pts.shape) < 0.4] = -0.0
        pts = np.vstack([pts, -pts, pts])
    else:
        pts[:, -1] = 0.5                  # flat: lies in a hyperplane
    pts = pts[gen.permutation(len(pts))]
    expected = reference_first_occurrences(pts)
    assert _dedup(pts).tolist() == expected
    # keys that collide across different rows must fall back to the exact path
    row_keys = hull_module._row_keys
    for colliding in (lambda p: np.zeros(len(p), dtype=np.uint64),     # all equal
                      lambda p: row_keys(p) % np.uint64(3)):           # partly equal
        with mock.patch.object(hull_module, "_row_keys", colliding):
            assert _dedup(pts).tolist() == expected
    if kind == "flat":                    # d = 1: a single distinct point
        with pytest.raises(DegenerateInput):
            convex_hull(pts)


@pytest.mark.parametrize("points", [
    np.zeros(5),                                   # not (n, d)
    np.zeros((5, 0)),                              # no coordinate
    np.vstack([np.eye(3), [[math.nan, 0.0, 0.0]]]),
    np.vstack([np.eye(3), [[0.0, math.inf, 0.0]]]),
], ids=["1-d", "no-columns", "nan", "inf"])
def test_convex_hull_rejects_malformed_clouds(points):
    with pytest.raises(ValueError) as exc:
        convex_hull(points)
    assert not isinstance(exc.value, DegenerateInput)


def test_dedup_merges_signed_zeros_and_sub_grid_offsets():
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1e-13, 1.0], [0.0, 1.0 + 4e-13], [1.0, 0.0]])
    assert _dedup(pts).tolist() == reference_first_occurrences(pts) == [0, 4]


def traced_peak(fn, arg):
    """Peak of numpy/Python allocations while fn(arg) runs, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(arg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dedup_and_hull_stay_within_their_memory_budget():
    # no whole-cloud rounded copy in _dedup, no pts[keep] copy when nothing merged
    pts = np.random.default_rng(0).standard_normal((100_000, 4))
    assert traced_peak(_dedup, pts) < 2 * pts.nbytes
    assert traced_peak(convex_hull, pts) < 3 * pts.nbytes


def test_lower_face_coefficient_values():
    # d=4: f_1 >= 2 f_3 and f_2 >= 2 f_3 for simplicial 4-polytopes
    assert lower_face_coefficient(4, 3) == 1.0
    assert lower_face_coefficient(4, 2) == 2.0
    assert lower_face_coefficient(3, 1) == pytest.approx(1.5)


# --- exhaustive oracle ------------------------------------------------


def qhull_facet_set(pts):
    return set(map(tuple, convex_hull(pts).facet_vertices.tolist()))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_brute_force_agrees_with_qhull(d):
    gen = np.random.default_rng(100 + d)
    for _ in range(8):
        n = int(gen.integers(d + 1, 13))
        pts = gen.standard_normal((n, d))
        assert set(brute_force_facets(pts)) == qhull_facet_set(pts)


def test_brute_force_merges_duplicates_without_dedup():
    # exact, signed-zero and sub-grid copies of points, after the originals
    base = np.random.default_rng(7).standard_normal((8, 3))
    base[0, 1] = 0.0
    copies = base[[0, 0, 2, 5]]
    copies[0, 1], copies[1, 1] = -0.0, 1e-13
    want = qhull_facet_set(base)
    # the oracle must not lean on the fast path's merge, which it checks
    with mock.patch.object(hull_module, "_dedup", lambda p: np.arange(len(p))):
        assert set(brute_force_facets(np.vstack([base, copies]))) == want


def test_brute_force_simplex():
    pts = np.vstack([np.zeros(3), np.eye(3)])
    assert set(brute_force_facets(pts)) == {
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
    }


# 1-D clouds: values on a grid of steps scale, drawn with repeats from a
# small pool that may hold -0.0; probes sit on the half-steps, off every point
one_dim_values = st.lists(st.integers(-50, 50).map(float) | st.just(-0.0),
                          min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=25))


@settings(max_examples=150, deadline=None)
@example(values=[0.3, -0.5, 0.9, 0.9, 0.1], scale=1.0, probes=[0.0, -0.5, 0.9, -0.6, 1.0])
@given(values=one_dim_values, scale=st.sampled_from([1e-3, 1.0, 1e2]),
       probes=st.lists(st.integers(-120, 120).map(lambda k: k + 0.5), max_size=10))
def test_one_dimensional_hull(values, scale, probes):
    pts = np.array(values).reshape(-1, 1) * scale
    if len(set(pts[:, 0])) < 2:           # -0.0 == 0.0: one distinct point
        with pytest.raises(DegenerateInput):
            convex_hull(pts)
        return
    hull = convex_hull(pts)
    lo, hi = pts.min(), pts.max()
    facets = brute_force_facets(pts)
    assert sorted(map(tuple, hull.facet_vertices.tolist())) == facets
    assert hull.vertex_ids == tuple(i for (i,) in facets)
    assert np.all(pts @ hull.normals.T <= hull.offsets + CONTAINS_TOL)
    assert volume(hull) == pytest.approx(hi - lo, rel=1e-15)
    assert f_vector(hull) == (2,)
    assert ridges_regular(hull)
    xs = np.vstack([np.array(probes).reshape(-1, 1) * scale, [[lo], [hi]]])
    assert contains_points(hull, xs).tolist() == ((lo <= xs) & (xs <= hi)).ravel().tolist()


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_facets(np.random.default_rng(0).standard_normal((26, 3)))


# --- exact orientation predicate -------------------------------------


def test_orientation_signs():
    tri = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    assert orientation(tri, np.array([0.5, 1.0])) == -orientation(
        tri, np.array([0.5, -1.0])
    )
    assert orientation(tri, np.array([2.0, 0.0])) == 0


def test_orientation_near_degenerate_escalates():
    # almost-collinear triple that float determinants misjudge
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    q = np.array([0.5, 0.5 + 1e-17])
    s = orientation([a, b], q)
    # 0.5 + 1e-17 rounds to 0.5 exactly in binary64: truly collinear
    assert s == 0
    q2 = np.array([0.5, np.nextafter(0.5, 1.0)])
    assert orientation([a, b], q2) != 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
        min_size=3, max_size=3, unique=True,
    ),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
)
def test_orientation_antisymmetry_3d(simplex, q):
    simplex = [np.array(p, dtype=float) for p in simplex]
    q = np.array(q, dtype=float)
    s = orientation(simplex, q)
    swapped = [simplex[1], simplex[0], simplex[2]]
    assert orientation(swapped, q) == -s


def _det_sign_by_elimination(rows) -> int:
    """Sign of det(rows) by Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        if a[c][c] < 0:
            sign = -sign
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return sign


@st.composite
def integer_simplex_and_query(draw):
    """d simplex points and a query with small integer coordinates; about
    half the draws put the query on the line through two simplex points,
    so the determinant is exactly zero."""
    d = draw(st.integers(1, 5))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    simplex = draw(st.lists(point, min_size=d, max_size=d))
    if draw(st.booleans()):
        t = draw(st.integers(-2, 2))
        q = [a + t * (b - a) for a, b in zip(simplex[0], simplex[-1])]
    else:
        q = draw(point)
    return simplex, q


@settings(max_examples=300, deadline=None)
@given(integer_simplex_and_query())
def test_orientation_is_the_exact_determinant_sign(case):
    simplex, q = case
    rows = [[p_j - q_j for p_j, q_j in zip(p, q)] for p in simplex]
    got = orientation([np.array(p, dtype=float) for p in simplex], np.array(q, dtype=float))
    assert got == _det_sign_by_elimination(rows)


def test_verify_hull_fails_when_it_checks_no_hull():
    assert verify_hull(3, rng=RngStream(0, 5)).passed
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got 0"):
        verify_hull(0, rng=RngStream(0, 5))
