"""Exact dense linear algebra over the coefficient rings.

Integral matrices -- of Python ints, or of integer polynomials (`rings.ZX`)
-- have one fraction-free elimination, `_bareiss` (Bareiss 1968), behind
two entry points: `int_det` runs it forward and `int_solve` runs it
Gauss-Jordan.  Every division in it is exact over any integral domain and
every entry stays a minor of the matrix, so intermediate growth is
polynomial and no gcd is taken at all.  On ints `//` is the native floor
division; on `ZX` it is the quotient of `rings._zdivides`, and a division
that leaves a remainder raises InternalAssertion.  Extension elements over
Q and over Q[x]_(x), the only such matrices the library builds, hand their
integral columns to these two entry points directly.  `det` and
`solve_columns` run on any ring by elimination in the fraction field via
the ring's `fraction_div` hook; the library calls them only over the
small finite fields, and results that must land back in the ring are
membership-checked.  Determinants of order 1 to 3 are expanded directly.
`clear_denominators` writes Fractions as integer numerators over one
common denominator.

Matrices are plain lists of row lists of ring elements.
"""

from __future__ import annotations

from math import lcm

from .errors import InternalAssertion


def transpose(a):
    return [list(col) for col in zip(*a)]


def clear_denominators(values) -> tuple[list[int], int]:
    """Integer numerators over one common denominator d of the given
    Fractions: values[i] == nums[i] / d, with d the lcm of their denominators."""
    dens = [v.denominator for v in values]
    d = lcm(*dens)
    return [v.numerator * (d // e) for v, e in zip(values, dens)], d


def _bareiss(m: list[list[int]], n: int, above: bool) -> int:
    """Fraction-free elimination on the first n columns of the integral
    matrix m, in place: each pivot column is cleared below the pivot, and
    above it too when `above`.  After step k every touched entry is a
    (k+1)-minor of the row-swapped m, so the divisions by the previous pivot
    are exact; the last pivot is the determinant of the first n columns,
    and with `above` every pivot ends equal to it.  Returns the sign of the
    row swaps, or 0 when those columns are singular."""
    sign = 1
    prev = 1
    width = len(m[0])
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(0 if above else k + 1, n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            row[k] = 0
            if i < k:
                # this row's own pivot, prev, becomes pivot * prev // prev
                row[i] = pivot
        prev = pivot
    return sign


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
    n = len(rows)
    # direct expansion; growth is not a concern at this size
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
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


def int_det(rows) -> int:
    """Exact determinant of a square integral matrix (left unchanged)."""
    m = [list(r) for r in rows]
    sign = _bareiss(m, len(m), above=False)
    return sign * m[-1][-1]


def int_solve(a, b) -> tuple[list[list[int]], int]:
    """Solve a X = b for a square integral matrix a and integral right-hand
    columns b (given as rows, like a): returns the integral columns x and d
    with X = x / d.  a must be nonsingular."""
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if not _bareiss(m, n, above=True):
        raise InternalAssertion("singular system in an exact solve")
    # every pivot has ended equal to d
    return [[row[j] for row in m] for j in range(n, len(m[0]))], m[0][0]


def det(ring, rows):
    """Exact determinant of a square matrix over the ring."""
    n = len(rows)
    # direct expansion for tiny matrices
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
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
