import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockbeta.hull import (
    DegenerateInput,
    brute_force_facets,
    contains_point,
    contains_points,
    convex_hull,
    euler_relation_holds,
    f_vector,
    lower_face_bounds_hold,
    lower_face_coefficient,
    ridges_regular,
    volume,
)
from blockbeta.predicates import orientation


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
    assert contains_point(hull, [0.0, 0.0, 0.0])
    assert contains_point(hull, [1.0, 1.0, 1.0])          # a vertex
    assert not contains_point(hull, [1.1, 0.0, 0.0])
    flags = contains_points(hull, [[0.5, 0.5, 0.5], [0.0, 0.0, 2.0]])
    assert list(flags) == [True, False]


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


def test_brute_force_simplex():
    pts = np.vstack([np.zeros(3), np.eye(3)])
    assert set(brute_force_facets(pts)) == {
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
    }


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
