"""Orientation predicate with exact escalation.

The sign of det[p_1 - q, ..., p_d - q] decides which side of the
oriented hyperplane through p_1..p_d the query q lies on.  One subset
DP computes the determinant and a magnitude bound (the permanent of
absolute values).  Run on floats it is a filter that answers almost
every call; whenever |det| falls inside the rounding bound the same DP
runs again on Fractions, exactly (floats are exact rationals, so the
escalated sign is the true sign, including exact zero).
"""

from __future__ import annotations

from fractions import Fraction

EPS = 2.0 ** -52


def _det_and_permanent(rows):
    """Determinant and permanent-of-absolute-values via subset DP.

    The arithmetic follows the entries' type: float rows give the
    rounded values the filter tests, Fraction rows the exact ones.
    """
    d = len(rows)
    full = (1 << d) - 1
    one = type(rows[0][0])(1)
    zero = one - one
    det = [zero] * (full + 1)
    perm = [zero] * (full + 1)
    det[0] = one
    perm[0] = one
    order = sorted(range(1, full + 1), key=lambda s: s.bit_count())
    for s in order:
        r = s.bit_count() - 1
        row = rows[r]
        acc_d = zero
        acc_p = zero
        # Laplace expansion along row r: the k-th column of s has
        # cofactor sign (-1)^(r + k)
        sign = -one if r & 1 else one
        rest = s
        while rest:
            j = (rest & -rest).bit_length() - 1
            sub = s & ~(1 << j)
            acc_d += sign * row[j] * det[sub]
            acc_p += abs(row[j]) * perm[sub]
            sign = -sign
            rest &= rest - 1
        det[s] = acc_d
        perm[s] = acc_p
    return det[full], perm[full]


def orientation(simplex, q) -> int:
    """Sign (+1/-1/0) of det of rows (p_i - q), exact for float inputs."""
    d = len(q)
    if len(simplex) != d:
        raise ValueError(f"need {d} simplex points for dimension {d}")
    rows = [[float(p[j]) - float(q[j]) for j in range(d)] for p in simplex]
    det, perm = _det_and_permanent(rows)
    # Entry subtraction plus DP accumulation are all O(d) rounding steps
    # per monomial; 8*d*EPS*perm over-covers that.
    bound = 8.0 * d * EPS * perm
    if det > bound:
        return 1
    if det < -bound:
        return -1
    exact_rows = [
        [Fraction(float(p[j])) - Fraction(float(q[j])) for j in range(d)]
        for p in simplex
    ]
    exact, _ = _det_and_permanent(exact_rows)
    if exact > 0:
        return 1
    if exact < 0:
        return -1
    return 0
