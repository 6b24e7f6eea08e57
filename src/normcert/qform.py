"""Diagonal regular quadratic forms and the value factors of certificates.

A form is a list of invertible diagonal coefficients a_1 .. a_m; it
evaluates over the base ring or over any extension of it.  Membership in
the group generated by invertible form values is always carried around as
an explicit list of factors q(y)^(+-1), never decided abstractly; a factor
(`ValueFactor`) is its ring, the numerators of y over one denominator and
its exponent, and no ring value of y is made.

Every value is one sum in the integral format of the form's ring, which
the ring object is (`rings.Ring`: integer or Z[x] numerators over one
denominator, or over a small finite field the coordinates over one),
normalized once: the diagonal is cleared once, to A_j / E, when the form
is built, and the coordinates are put over one common denominator D,
which takes no gcd.  Over the base ring a vector y
is n_j / D, and q(y) = (sum of A_j n_j^2) / (E D^2) becomes one ring
value (`value`), or stays that numerator over E D^2 (`integral_value`,
what the verifier multiplies).  The cleared diagonal is the attribute
`integral`, and a form read from JSON is built from it
(`from_integral`); no ring value of the diagonal is kept.  A vector of
polynomials, or of elements of an
extension, has numerator columns X_j over D, and q is the sum of
A_j X_j^2 over E D^2 (`poly_value`, one product per cross term); an
extension value reduces that sum once modulo the modulus, by the one
division by a monic polynomial, and normalizes it once.  So q_S(x) takes
no product of extension elements, and neither does q(x(t)) in `certify`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRegular
from .poly import cleared, over_common_denominator
from .rings import shown


@dataclass(frozen=True, slots=True)
class ValueFactor:
    """One generator q(vector)^exponent of the value group, for the vector
    nums[j] / den over `ring`: in lowest terms in the ring's integral
    format, with den in the ring, so equal vectors have equal fields."""

    ring: object
    nums: tuple
    den: object
    exponent: int

    def __post_init__(self):
        # bool is an int subclass, and True == 1
        if type(self.exponent) is not int or self.exponent not in (1, -1):
            raise ValueError("exponent must be the integer +1 or -1")

    def flipped(self) -> ValueFactor:
        """The same vector with the exponent negated."""
        return ValueFactor(self.ring, self.nums, self.den, -self.exponent)


class QuadraticForm:
    __slots__ = ("ring", "integral")

    def __init__(self, ring, diag):
        self._setup(ring, cleared(ring, diag))

    @classmethod
    def from_integral(cls, ring, nums, den) -> QuadraticForm:
        """The form with diagonal nums[j] / den, for a vector in lowest
        terms in the integral format of `ring` with den in the ring."""
        self = object.__new__(cls)
        self._setup(ring, (tuple(nums), den))
        return self

    def _setup(self, ring, diagonal):
        nums, _ = diagonal
        if not nums:
            raise NotRegular("a quadratic form needs at least one diagonal entry")
        for j, a in enumerate(nums):
            if not ring.is_unit(a):
                raise NotRegular(f"diagonal entry {j + 1} of {len(nums)} is not a unit")
        self.ring = ring
        # the diagonal as numerators over one denominator in lowest terms
        self.integral = diagonal

    @property
    def rank(self) -> int:
        return len(self.integral[0])

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        # a diagonal in lowest terms is unique
        return self.ring is other.ring and self.integral == other.integral

    def __repr__(self):
        return f"QuadraticForm<{', '.join(map(shown, self.ring.values(*self.integral)))}>"

    def value(self, nums, d):
        """q(y) for y_j = nums[j] / d in the integral format of the ring,
        as one ring value."""
        return self.ring.value(*self.integral_value(nums, d))

    def integral_value(self, nums, d):
        """q(y) for y_j = nums[j] / d in the integral format of the ring,
        as a numerator over the denominator e * d^2, not normalized; for d
        in the ring, the value is a unit exactly when `is_unit` holds for
        the numerator."""
        if len(nums) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(nums)}")
        # a_j = coeffs[j] / e
        coeffs, e = self.integral
        acc = self.ring.num_zero
        for a, v in zip(coeffs, nums):
            if v:
                acc = acc + a * (v * v)
        return acc, e * (d * d)

    def poly_value(self, cols, d):
        """q(y(t)) for the polynomials y_j(t) with coefficients cols[j][i] / d
        in the integral format of the ring, each list of the same length
        L: the 2L-1 numerators of the sum over its denominator e * d^2, not
        normalized; each square takes one product per cross term, doubled."""
        coeffs, e = self.integral
        size = len(cols[0])
        acc = [self.ring.num_zero] * (2 * size - 1)
        for a, col in zip(coeffs, cols):
            for i, v in enumerate(col):
                if v:
                    av = a * v
                    acc[2 * i] = acc[2 * i] + av * v
                    av = av + av
                    for k in range(i + 1, size):
                        w = col[k]
                        if w:
                            acc[i + k] = acc[i + k] + av * w
        return acc, e * (d * d)

    def evaluate_ext(self, xs):
        """Sum of a_j x_j^2 computed in the extension the x_j live in: one
        sum over one common denominator, reduced once and normalized once."""
        if len(xs) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(xs)}")
        ext = xs[0].ext
        if ext.ring is not self.ring:
            raise ValueError("form and extension have different coefficient rings")
        if any(x.ext != ext for x in xs):
            raise ValueError("witness coordinates live in different extensions")
        return ext.from_integral(*self.poly_value(
            *over_common_denominator(self.ring, [x.integral for x in xs])))
