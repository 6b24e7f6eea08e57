"""Diagonal regular quadratic forms and the square-as-product-of-values step.

A form is a list of invertible diagonal coefficients a_1 .. a_m; it
evaluates over the base ring or over any extension of it.  Membership in
the group generated by invertible form values is always carried around as
an explicit list of (vector, exponent) factors, never decided abstractly.

A value over the base ring is computed in the integral format of
`poly` (integer or Z[x] numerators over one denominator, or over a
small finite field the coordinates over one): the diagonal is cleared
once, to A_j / E, when the form is built, and a vector y to n_j / d, so
q(y) = (sum of A_j n_j^2) / (E d^2), normalized once into one ring value.
Values over an extension are sums of extension elements, whose products
run in that same format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalAssertion, NotInvertible, NotRegular
from .poly import integral_format


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
    __slots__ = ("ring", "diag", "_fmt", "_cleared")

    def __init__(self, ring, diag):
        cs = tuple(ring.element(c) for c in diag)
        if not cs:
            raise NotRegular("a quadratic form needs at least one diagonal entry")
        for c in cs:
            if not ring.is_invertible(c):
                raise NotRegular(f"diagonal entry {c!r} is not a unit")
        self.ring = ring
        self.diag = cs
        # the diagonal as numerators over one denominator, for `evaluate`
        self._fmt = fmt = integral_format(ring)
        self._cleared = fmt.clear(cs)

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
        fmt = self._fmt
        # a_j = coeffs[j] / e and y_j = nums[j] / d
        coeffs, e = self._cleared
        nums, d = fmt.clear(ys)
        acc = fmt.zero
        for a, v in zip(coeffs, nums):
            if v:
                acc = acc + a * (v * v)
        return fmt.value(acc, e * (d * d))

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

