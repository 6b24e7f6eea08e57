"""Exact dense linear algebra over the coefficient rings.

Determinants over Q clear denominators row by row and run fraction-free
Bareiss elimination on integers (the exact divisions are guaranteed by the
algorithm), which keeps intermediate growth polynomial.  Over every other
ring -- the local ring Q[x]_(x) and the small finite fields -- elimination
runs in the fraction field via the ring's `fraction_div` hook, and results
that must land back in the ring are membership-checked.

Matrices are plain lists of row lists of ring elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalAssertion


def identity(ring, n: int):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _det_bareiss_int(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_rational(rows) -> Fraction:
    ints = []
    scale = 1
    for row in rows:
        mult = lcm(*(c.denominator for c in row)) if row else 1
        scale *= mult
        ints.append([int(c * mult) for c in row])
    return Fraction(_det_bareiss_int(ints), scale)


def _eliminate(ring, m, n: int, above: bool) -> int:
    """Fraction-field elimination on the first n columns of m, in place:
    each pivot column is cleared below the pivot, and above it too when
    `above`.  Returns the sign of the row swaps, or 0 when m is singular."""
    sign = 1
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(0 if above else k + 1, n):
            if i != k and m[i][k]:
                f = ring.fraction_div(m[i][k], m[k][k])
                for j in range(k, len(m[i])):
                    m[i][j] = m[i][j] - f * m[k][j]
    return sign


def _det_fraction_field(ring, rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign = _eliminate(ring, m, n, above=False)
    if not sign:
        return ring.zero
    det = m[0][0]
    for k in range(1, n):
        det = det * m[k][k]
    if sign < 0:
        det = -det
    if not ring.contains(det):
        raise InternalAssertion("determinant left the coefficient ring")
    return det


def det(ring, rows):
    """Exact determinant of a square matrix over the ring."""
    n = len(rows)
    # direct expansion for tiny matrices; growth is not a concern there
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if ring.id == "Q":
        return _det_rational(rows)
    return _det_fraction_field(ring, rows)


def solve_columns(ring, a, b):
    """Solve a X = b for the matrix of right-hand-side columns b.

    Returns the solution columns as lists.  Entries live in the fraction
    field; callers that need ring membership check it themselves.  The
    matrix must be invertible over the fraction field (callers guarantee
    this; a singular matrix is a broken contract).
    """
    n = len(a)
    m = [list(a[i]) + list(b[i]) for i in range(n)]
    if not _eliminate(ring, m, n, above=True):
        raise InternalAssertion("singular system in an exact solve")
    return [[ring.fraction_div(m[i][n + j], m[i][i]) for i in range(n)] for j in range(len(b[0]))]


def solve(ring, a, rhs):
    """Solve a x = rhs for a single column vector rhs."""
    return solve_columns(ring, a, [[v] for v in rhs])[0]
