"""Convex hulls with verified combinatorics.

Hull construction is delegated to qhull (scipy.spatial.ConvexHull),
which returns a triangulated facet list with unit outward normals.
This module owns everything around it: near-duplicate removal with an
index map back to the caller's cloud, degeneracy detection, the face
counts f_0..f_{d-1} recovered from the simplicial facet list, volume by
coning simplices from an interior point, and membership tests.
Degeneracy is the affine rank falling below d: a certificate from at
most 2d + 1 rows (_certified_full_rank) settles full rank for most
clouds, and the whole-cloud SVD decides the rest.

Faces are counted on 1-D integer keys.  The facet vertex ids are
first renumbered to [0, f_0); each k-subset of a facet row is then
packed into one int64 key in base f_0, the keys are sorted, and
distinct faces are the positions where adjacent keys differ.  When
f_0**k does not fit in 63 bits the k-subsets are sorted as rows with
np.lexsort and compared row by row instead.

Dedup rounds the cloud to DEDUP_DECIMALS one column at a time and
mixes the column bits into one uint64 hash key per point, then sorts
the keys in place.  It has two outcomes.  Distinct keys (the rule for
continuous draws) mean distinct points, so nothing is merged and the
caller's array goes to qhull as it is, with no copy.  Any repeated key,
a true duplicate or a 64-bit collision, sends the cloud to the exact
path, which sorts the rounded rows as opaque byte strings (a void view)
and keeps the first occurrence of each group of equal rounded points.

brute_force_facets is an independent oracle: it enumerates all d-point
subsets and keeps those whose hyperplane has every remaining point
strictly on one side, decided by the exact orientation predicate.  It
merges duplicates by its own first-occurrence rule on the dedup grid
and shares no hull code with the qhull path.  verify_hull holds qhull's
output on random clouds to the Euler relation, ridge regularity and
the lower face-count bounds, each an independent counting check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy

from .core import as_int
from .predicates import orientation
from .report import Check, Report
from .sampler import as_generator

DEDUP_DECIMALS = 12          # points equal after rounding here are merged
RANK_TOL = 1e-9              # singular values at or below this do not count
# a rank certificate's smallest singular value must exceed both
RANK_CERT_TOL = 1e3 * RANK_TOL
RANK_CERT_REL = 1e-6         # times its largest singular value
CONTAINS_TOL = 1e-9
BRUTE_FORCE_MAX_POINTS = 25
# row-key mixing: an odd multiplier (2**64 / golden ratio) and a shift
_KEY_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_KEY_SHIFT = np.uint64(31)


class DegenerateInput(ValueError):
    """Input cloud has no full-dimensional hull."""


@dataclass(eq=False)
class HullResult:
    points: np.ndarray                # the original input cloud
    dim: int
    vertex_ids: tuple[int, ...]       # hull vertices, original indices
    facet_vertices: np.ndarray        # (nfacets, d) int, original indices
    normals: np.ndarray               # (nfacets, d) unit outward
    offsets: np.ndarray               # facet plane is {x . normal = offset}
    interior_point: np.ndarray


def _row_keys(pts: np.ndarray) -> np.ndarray:
    """One uint64 hash per row of the rounded cloud; equal rows get equal keys.

    The columns are rounded one at a time, so no rounded copy of the
    whole cloud is made, and mixed into the key by multiply and
    xor-shift steps.  +0.0 normalizes -0.0 before the bits are read.
    """
    keys = np.zeros(len(pts), dtype=np.uint64)
    for j in range(pts.shape[1]):
        col = np.round(pts[:, j], DEDUP_DECIMALS)
        col += 0.0
        keys ^= col.view(np.uint64)
        del col
        keys *= _KEY_MULTIPLIER
        keys ^= keys >> _KEY_SHIFT
    return keys


def _dedup_exact(pts: np.ndarray) -> np.ndarray:
    """Indices of representatives, sorting the rounded rows as byte strings."""
    # -0.0 made +0.0: with no -0.0 and no NaN, equal bytes are equal floats
    keys = np.ascontiguousarray(np.round(pts, DEDUP_DECIMALS) + 0.0).view(np.uint64)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return np.sort(first)


def _dedup(pts: np.ndarray) -> np.ndarray:
    """Indices of representatives after merging near-duplicates.

    Distinct hash keys mean distinct rounded rows, so every row is its
    own representative.  Any repeated key, whether from equal rows or a
    collision, leaves the decision to _dedup_exact.
    """
    keys = _row_keys(pts)
    keys.sort()
    if not np.any(keys[1:] == keys[:-1]):
        return np.arange(len(pts))
    return _dedup_exact(pts)


def _certified_full_rank(core: np.ndarray) -> bool:
    """True only where matrix_rank(core - core[0], tol=RANK_TOL) is d.

    Row 0 and the argmin and argmax rows of each coordinate form a
    subset B of at most 2d + 1 rows.  Its singular values are at most
    the whole cloud's (A^T A - B^T B is positive semidefinite), so if
    B - core[0] has rank d, with its smallest singular value above
    RANK_CERT_TOL and far above its rounding, the cloud has rank d too.
    False leaves the decision to the whole-cloud SVD.
    """
    d = core.shape[1]
    rows = [0]
    for j in range(d):                 # argmin(axis=0) would copy the cloud
        rows += [int(np.argmin(core[:, j])), int(np.argmax(core[:, j]))]
    sv = np.linalg.svd(core[np.unique(rows)] - core[0], compute_uv=False)
    return len(sv) == d and sv[-1] > max(RANK_CERT_TOL, RANK_CERT_REL * sv[0])


def convex_hull(points) -> HullResult:
    """Convex hull of a full-dimensional point cloud.

    Near-duplicate points (within the rounding grid) are merged and all
    reported indices refer to the original cloud.  Raises
    DegenerateInput when the cloud is not full-dimensional or has fewer
    than d+1 distinct points.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array, got shape {pts.shape}")
    n, d = pts.shape
    if d < 1:
        raise ValueError("need at least one coordinate")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")

    keep = _dedup(pts)
    core = pts if len(keep) == n else pts[keep]   # no copy when nothing merged
    if len(core) < d + 1:
        raise DegenerateInput(
            f"{len(core)} distinct points cannot span dimension {d}"
        )
    if not _certified_full_rank(core):
        rank = np.linalg.matrix_rank(core - core[0], tol=RANK_TOL)
        if rank < d:
            raise DegenerateInput(f"cloud has affine rank {rank} < {d}")

    if d == 1:                         # qhull starts at the plane
        lo = keep[int(np.argmin(core[:, 0]))]
        hi = keep[int(np.argmax(core[:, 0]))]
        return HullResult(
            points=pts,
            dim=1,
            vertex_ids=tuple(sorted((int(lo), int(hi)))),
            facet_vertices=np.array([[lo], [hi]], dtype=int),
            normals=np.array([[-1.0], [1.0]]),
            offsets=np.array([-float(pts[lo, 0]), float(pts[hi, 0])]),
            interior_point=np.array([(pts[lo, 0] + pts[hi, 0]) / 2.0]),
        )

    try:
        qh = scipy.spatial.ConvexHull(core)
    except scipy.spatial.QhullError as exc:  # pragma: no cover - rank check catches most
        raise DegenerateInput(f"hull construction failed: {exc}") from exc

    facet_vertices = keep[qh.simplices]
    facet_vertices = np.sort(facet_vertices, axis=1)
    normals = qh.equations[:, :-1].copy()
    # qhull convention: normal . x + offset <= 0 inside
    offsets = -qh.equations[:, -1].copy()

    hull_vertex_rows = qh.vertices
    interior = core[hull_vertex_rows].mean(axis=0)
    vertex_ids = tuple(int(i) for i in np.sort(keep[hull_vertex_rows]))

    return HullResult(
        points=pts,
        dim=d,
        vertex_ids=vertex_ids,
        facet_vertices=facet_vertices,
        normals=normals,
        offsets=offsets,
        interior_point=interior,
    )


def _compress(fv: np.ndarray) -> tuple[np.ndarray, int]:
    """Vertex ids renumbered to [0, f_0), in place of each entry, and f_0.

    Renumbering keeps the order of ids, so sorted rows stay sorted.
    """
    uniq, inverse = np.unique(fv, return_inverse=True)
    return inverse.reshape(fv.shape), len(uniq)


def _subset_multiplicities(ids: np.ndarray, base: int, size: int) -> np.ndarray:
    """How often each distinct size-subset of the rows of ids occurs.

    A subset is the tuple of entries at columns i_1 < ... < i_size of
    one row; ids lie in [0, base).  Returns one count per distinct
    subset, in sorted order.
    """
    if len(ids) == 0:
        return np.zeros(0, dtype=np.int64)
    cols = list(combinations(range(ids.shape[1]), size))
    if base ** size < 2 ** 63:
        keys = np.zeros((len(ids), len(cols)), dtype=np.int64)
        for j in range(size):          # in place: keys and one column gather
            keys *= base
            keys += ids[:, [c[j] for c in cols]]
        keys = keys.ravel()
        keys.sort()
        new = keys[1:] != keys[:-1]
    else:                              # packed keys would overflow int64
        rows = ids[:, cols].reshape(-1, size)
        rows = rows[np.lexsort(rows.T[::-1])]
        new = np.any(rows[1:] != rows[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return np.diff(starts, append=len(new) + 1)


def f_vector(hull: HullResult) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{d-1}).

    Every j-face of a simplicial polytope is a (j+1)-subset of some
    facet's vertex set, and conversely, so counting distinct subsets
    per size gives the full vector.  f_0 is the number of distinct ids
    and f_{d-1} the number of facet rows.  For 2 <= k <= d-1 each
    k-subset of a (sorted) facet row becomes one int64 key in base f_0
    after the ids are renumbered to [0, f_0); f_{k-1} is the number of
    distinct keys, found by sorting them and counting adjacent
    differences.  Where f_0**k >= 2**63 the subsets are sorted as rows
    with np.lexsort and compared row by row instead.
    """
    d = hull.dim
    fv = hull.facet_vertices
    if d == 1:
        return (len(fv),)
    ids, f0 = _compress(fv)
    inner = [len(_subset_multiplicities(ids, f0, size)) for size in range(2, d)]
    return (f0, *inner, len(fv))


def volume(hull: HullResult) -> float:
    """Hull volume: sum of simplex cones from an interior point."""
    rel = hull.points[hull.facet_vertices]            # (nf, d, d)
    rel -= hull.interior_point
    dets = np.linalg.det(rel)
    return float(np.abs(dets).sum() / math.factorial(hull.dim))


def contains_points(hull: HullResult, xs) -> np.ndarray:
    """Membership, within CONTAINS_TOL of every facet plane, for an (n, d)
    array of query points.

    Each facet's distance is summed column by column into one buffer and
    folded into the mask, so no (n, facets) matrix is built.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != hull.dim:
        raise ValueError(f"expected query points of shape (n, {hull.dim}), got {xs.shape}")
    # no BLAS: a threaded matmul leaves OpenBLAS's worker spinning on the cores verify's pool uses
    cols = [np.ascontiguousarray(xs[:, j]) for j in range(hull.dim)]
    inside = np.ones(len(xs), dtype=bool)
    dist, term = np.empty(len(xs)), np.empty(len(xs))
    for normal, bound in zip(hull.normals, hull.offsets + CONTAINS_TOL):
        np.multiply(cols[0], normal[0], out=dist)
        for col, c in zip(cols[1:], normal[1:]):
            dist += np.multiply(col, c, out=term)
        inside &= dist <= bound
    return inside


def euler_relation_holds(face_counts: tuple[int, ...]) -> bool:
    """Alternating sum of face counts equals 1 - (-1)^d."""
    d = len(face_counts)
    alt = sum((-1) ** j * f for j, f in enumerate(face_counts))
    return alt == 1 - (-1) ** d


def ridges_regular(hull: HullResult) -> bool:
    """Every ridge ((d-2)-face) lies in exactly two facets.

    The (d-1)-subsets of the facet rows are packed and sorted as in
    f_vector (lexsort where f_0**(d-1) >= 2**63); every run of equal
    keys must have length exactly 2.  For d = 1 the one ridge is the
    empty face, shared by the two endpoint facets.
    """
    ids, f0 = _compress(hull.facet_vertices)
    return bool(np.all(_subset_multiplicities(ids, f0, hull.dim - 1) == 2))


def lower_face_coefficient(d: int, j: int) -> float:
    """Best constant rho(d, j) with f_j >= rho(d, j) f_{d-1} for polytopes.

    Positive exactly for j >= floor(d/2) - 1.
    """
    k = d - j - 1
    return 0.5 * (math.comb(math.ceil(d / 2), k) + math.comb(math.floor(d / 2), k))


def lower_face_bounds_hold(face_counts: tuple[int, ...]) -> bool:
    """f_j >= rho(d, j) f_{d-1} for every j where the bound is positive."""
    d = len(face_counts)
    top = face_counts[-1]
    lo = max(d // 2 - 1, 0)
    return all(
        face_counts[j] >= lower_face_coefficient(d, j) * top for j in range(lo, d)
    )


def brute_force_facets(points) -> list[tuple[int, ...]]:
    """All facets of the hull by exhaustive search, exact arithmetic.

    Returns sorted vertex-id tuples (original indices) of every d-subset
    whose hyperplane has all remaining points strictly on one side.
    Intended as an oracle for small clouds in general position.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_MAX_POINTS} points, got {n}"
        )
    # first occurrences on the dedup grid, -0.0 made +0.0; not _dedup, which it checks
    rows = [row.tobytes() for row in np.round(pts, DEDUP_DECIMALS) + 0.0]
    keep = [i for i, row in enumerate(rows) if rows.index(row) == i]
    facets = []
    for subset in combinations(keep, d):
        simplex = [pts[i] for i in subset]
        side = 0
        ok = True
        for i in keep:
            if i in subset:
                continue
            s = orientation(simplex, pts[i])
            if s == 0:
                ok = False
                break
            if side == 0:
                side = s
            elif s != side:
                ok = False
                break
        if ok and side != 0:
            facets.append(tuple(sorted(subset)))
    return facets


def verify_hull(trials: int, *, rng) -> Report:
    """Euler relation, ridge regularity and lower face bounds on random
    Gaussian clouds in dimensions 2..6."""
    trials = as_int(trials, "trials", least=1)
    rep = Report(title="hull combinatorics")
    gen = as_generator(rng)
    bad = 0
    for _ in range(trials):
        d = int(gen.integers(2, 7))
        n = int(gen.integers(d + 2, 120))
        pts = gen.standard_normal((n, d))
        hull = convex_hull(pts)
        fv = f_vector(hull)
        if not (euler_relation_holds(fv) and ridges_regular(hull)
                and lower_face_bounds_hold(fv)):
            bad += 1
    rep.add(Check(
        name=f"euler+ridges+face_bounds[{trials} hulls]",
        value=trials - bad, reference=trials,
        stat_name="failures", stat=bad, passed=bad == 0,
    ))
    return rep
