"""Diagonal regular quadratic forms and the square-as-product-of-values step.

A form is a list of invertible diagonal coefficients a_1 .. a_m; it
evaluates over the base ring or over any extension of it.  Membership in
the group generated by invertible form values is always carried around as
an explicit list of (vector, exponent) factors, never decided abstractly.

General symmetric Gram matrices are turned into diagonal forms first by an
exact congruence (valid over a local ring in which 2 is a unit).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import InternalAssertion, NotInvertible, NotRegular


@dataclass(frozen=True)
class ValueFactor:
    """One generator q(vector)^exponent of the value group."""

    vector: tuple
    exponent: int

    def __post_init__(self):
        # bool is an int subclass, and True == 1
        if type(self.exponent) is not int or self.exponent not in (1, -1):
            raise ValueError("exponent must be the integer +1 or -1")


class QuadraticForm:
    __slots__ = ("ring", "diag")

    def __init__(self, ring, diag):
        cs = tuple(ring.element(c) for c in diag)
        if not cs:
            raise NotRegular("a quadratic form needs at least one diagonal entry")
        for c in cs:
            if not ring.is_invertible(c):
                raise NotRegular(f"diagonal entry {c!r} is not a unit")
        self.ring = ring
        self.diag = cs

    @property
    def rank(self) -> int:
        return len(self.diag)

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.ring.id == other.ring.id and self.diag == other.diag

    def __repr__(self):
        return f"QuadraticForm<{', '.join(map(str, self.diag))}>"

    def evaluate(self, ys):
        """Sum of a_j y_j^2 over the base ring."""
        ys = [self.ring.element(y) for y in ys]
        if len(ys) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(ys)}")
        acc = self.ring.zero
        for a, y in zip(self.diag, ys):
            acc = acc + a * y * y
        return acc

    def evaluate_ext(self, xs):
        """Sum of a_j x_j^2 computed in the extension the x_j live in."""
        if len(xs) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(xs)}")
        ext = xs[0].ext
        if ext.ring.id != self.ring.id:
            raise ValueError("form and extension have different coefficient rings")
        acc = ext.zero()
        for a, x in zip(self.diag, xs):
            if x.ext != ext:
                raise ValueError("witness coordinates live in different extensions")
            acc = acc + (x * x) * a
        return acc

    def residue_form(self) -> QuadraticForm:
        """The reduced form over the residue field (self when R is a field)."""
        if self.ring.residue_ring is self.ring:
            return self
        return QuadraticForm(
            self.ring.residue_ring, tuple(self.ring.residue(a) for a in self.diag)
        )

    def square_as_value_product(self, s):
        """Two +1 factors whose value product is exactly s^2, for a unit s.

        Uses the first standard basis vector y, so the two values are
        q(y*s) = a_1 s^2 and q(y/a_1) = 1/a_1.
        """
        s = self.ring.element(s)
        if not self.ring.is_invertible(s):
            raise NotInvertible("square certificates exist only for units")
        pad = (self.ring.zero,) * (self.rank - 1)
        first = ValueFactor((s,) + pad, 1)
        second = ValueFactor((self.ring.invert(self.diag[0]),) + pad, 1)
        prod = self.evaluate(first.vector) * self.evaluate(second.vector)
        if prod != s * s:
            raise InternalAssertion("square factorization identity failed")
        return [first, second]


def diagonalize_gram(ring, gram):
    """Exact congruence of a regular symmetric matrix to a diagonal form.

    Returns (form, c) with c invertible over the ring and c^T gram c equal
    to the diagonal of the form.  Requires 2 invertible (true for every
    supported ring) and det(gram) a unit.
    """
    n = len(gram)
    g = [[ring.element(v) for v in row] for row in gram]
    for i in range(n):
        if len(g[i]) != n:
            raise NotRegular("Gram matrix must be square")
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                raise NotRegular("Gram matrix must be symmetric")
    if not ring.is_invertible(linalg.det(ring, g)):
        raise NotRegular("Gram determinant is not a unit")

    c = linalg.identity(ring, n)

    def add_multiple(src: int, dst: int, lam):
        # congruence by I + lam * E_{src,dst}: add lam*(row/col src) to row/col dst
        for j in range(n):
            g[dst][j] = g[dst][j] + lam * g[src][j]
        for i in range(n):
            g[i][dst] = g[i][dst] + lam * g[i][src]
        for i in range(n):
            c[i][dst] = c[i][dst] + lam * c[i][src]

    def swap(i: int, j: int):
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]
        for row in c:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if not ring.is_invertible(g[k][k]):
            pivot = next(
                (i for i in range(k + 1, n) if ring.is_invertible(g[i][i])), None
            )
            if pivot is not None:
                swap(k, pivot)
            else:
                # all trailing diagonal entries are non-units; a unit off-diagonal
                # entry exists because the trailing block stays regular
                found = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(k, n)
                        if i != j and ring.is_invertible(g[i][j])
                    ),
                    None,
                )
                if found is None:
                    raise InternalAssertion("regular block without any unit entry")
                i, j = found
                add_multiple(j, i, ring.one)
                if not ring.is_invertible(g[i][i]):
                    raise InternalAssertion("pivot repair failed on a regular block")
                if i != k:
                    swap(k, i)
        inv_pivot = ring.invert(g[k][k])
        for i in range(k + 1, n):
            if g[k][i]:
                add_multiple(k, i, -(g[k][i] * inv_pivot))

    return QuadraticForm(ring, [g[i][i] for i in range(n)]), c
