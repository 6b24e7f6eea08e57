"""Exact dense linear algebra over the coefficient rings.

Every matrix the library builds is integral -- of Python ints, of integer
polynomials (`rings.ZX`) or of elements of a small finite field -- and has
one fraction-free elimination, `_bareiss` (Bareiss 1968), behind two entry
points: `det` runs it forward and `solve_columns` runs it Gauss-Jordan.
Every division in it is exact over any integral domain and every entry
stays a minor of the matrix, so intermediate growth is polynomial and no
gcd is taken at all.  On ints `//` is the native floor division; on `ZX`
it is the quotient of `rings._zdivides`, and a division that leaves a
remainder raises InternalAssertion; on a finite field it is the field
division.  Extension elements hand their integral columns to these two
entry points.  A singular matrix is not an error here: `det` returns 0
and `solve_columns` returns d = 0 with no columns, so a caller decides
from its one elimination whether the matrix is singular (primitivity, in
`ExtElement.coordinate_columns`) or raises (`ExtElement.inverse`).

Matrices are plain lists of row lists of ring elements.
"""

from __future__ import annotations


def transpose(a):
    return [list(col) for col in zip(*a)]


def _bareiss(m: list[list], n: int, above: bool) -> int:
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


def det(rows):
    """Exact determinant of a square integral matrix (left unchanged)."""
    m = [list(r) for r in rows]
    sign = _bareiss(m, len(m), above=False)
    return sign * m[-1][-1]


def solve_columns(a, b):
    """Solve a X = b for a square integral matrix a and integral right-hand
    columns b (given as rows, like a): returns the integral columns x and d
    with X = x / d; for a singular a, no columns and d = 0."""
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if not _bareiss(m, n, above=True):
        return [], 0
    # every pivot has ended equal to d
    return [[row[j] for row in m] for j in range(n, len(m[0]))], m[0][0]
