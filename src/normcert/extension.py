"""Quotient algebras S = R[t]/(p) for a monic p with invertible constant term.

Elements are coordinate vectors in the canonical basis {1, t, ..., t^(n-1)}
where t is the class of the indeterminate.  Everything an element can do --
products, norms (determinant of left multiplication), inverses,
primitivity, coordinates in another element's power basis and minimal
polynomials -- lives here.

An element b is primitive when {1, b, ..., b^(n-1)} is again a basis over
the coefficient ring, i.e. when the determinant of its powers matrix is a
unit.  `coordinate_columns` reads that off its own elimination: the d of
its solve is the determinant of the integral power columns, which are the
power columns times unit denominators, so b is primitive exactly when d
passes the ring's unit test `is_unit` (over Q[x]_(x) a nonzero d need not
be a unit); `is_primitive` runs that elimination for no element.

Every element is held in the integral format of its ring, which the
ring object is (`rings.Ring`, read as `ext.ring`): numerators over
one denominator that shares no factor with all of them -- integers over
Q, integer polynomials (`ZX`) over Q[x]_(x), and over a small finite
field the coordinates themselves over the field's one.  `integral`
holds the coordinates, and no ring value of one is kept; `coords_in`
returns ring values.  One code path serves every ring.  The
product is the one arithmetic operation of elements, with one body for
every degree: it convolves the numerators, and
`SimpleExtension.from_integral` takes the remainder of the convolution
modulo the modulus by the one division by a monic polynomial
(`poly.divide_monic`), and normalizes once; an extension caches nothing.
It takes any number of numerators, padding fewer than n with zeros: a
form value (`QuadraticForm.evaluate_ext`) goes through it once for its
whole sum, and so do the class of t (`gen`) and a polynomial of any
degree read as an element.
Norms, inverses and primitivity take the integral columns, each over its
own denominator, into `linalg.det` and `linalg.solve_columns`, the one
fraction-free Bareiss elimination, and scale the result back by those
denominators, so a norm builds one ring value.  Power-basis coordinates
(`coordinate_columns`) solve for any number of elements at once, one
right-hand side each over one common denominator, and one more for the
element's n-th power: the general-position search takes all m witness
columns and the minimal polynomial from one elimination, and `coords_in`,
`minimal_polynomial` and `is_primitive` are its cases of one and of no
element.  The minimal polynomial goes to
`Poly.from_integral`, which normalizes once and refuses a coefficient
outside the ring, and its vanishing at the element is a zero test over
one common denominator, which needs no gcd.
The class of t, numerators (0, 1, 0, ...) over one for n >= 2, takes no
determinant and no elimination: its norm is (-1)^n p(0), its power basis
is the canonical basis, so it is primitive and the columns are the
elements' own numerators, and its minimal polynomial is the modulus.
Column j+1 of the multiplication matrix is t times column j: the
remainder of the shifted column modulo the modulus, one step of the same
division, over its own denominator.
"""

from __future__ import annotations

from math import prod

from . import linalg
from .errors import InternalAssertion, NotInvertible, NotPrimitive, NotSimple
from .linalg import transpose
from .poly import Poly, cleared, convolve, divide_monic, over_common_denominator


class SimpleExtension:
    __slots__ = ("ring", "modulus", "n")

    def __init__(self, ring, modulus: Poly):
        if modulus.ring is not ring:
            raise NotSimple("modulus is defined over a different ring")
        if modulus.degree < 1 or not modulus.is_monic():
            raise NotSimple("modulus must be monic of degree >= 1")
        # the numerator of p(0), over a denominator that keeps p in the ring
        if not ring.is_unit(modulus.integral[0][0]):
            raise NotSimple(
                "constant term of the modulus is not a unit, so t would not be invertible"
            )
        self.ring = ring
        self.modulus = modulus
        self.n = modulus.degree

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, SimpleExtension):
            return NotImplemented
        return self.ring is other.ring and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.ring, self.modulus))

    def __repr__(self):
        return f"SimpleExtension({self.ring.id}, {self.modulus!r})"

    def element(self, coords) -> ExtElement:
        nums, den = cleared(self.ring, coords)
        if len(nums) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(nums)}")
        return ExtElement(self, nums, den)

    def one(self) -> ExtElement:
        return self.scalar(self.ring.one)

    def scalar(self, c) -> ExtElement:
        ring = self.ring
        # a ring element split into numerator and denominator is in lowest terms
        num, den = ring.split(ring.element(c))
        return ExtElement(self, (num,) + (ring.num_zero,) * (self.n - 1), den)

    def gen(self) -> ExtElement:
        """The class of t."""
        ring = self.ring
        return self.from_integral([ring.num_zero, ring.num_one], ring.num_one)

    def from_integral(self, nums, den) -> ExtElement:
        """The class of the polynomial with coefficients nums[i] / den, for
        any number of numerators and a nonzero denominator of the ring's
        integral format: the remainder of its division by the modulus,
        fewer than n numerators padded with zeros, normalized once."""
        ring = self.ring
        _, rem = divide_monic(ring, nums, den, *self.modulus.integral)
        return ExtElement(self, *ring.lowest(*rem))


class ExtElement:
    __slots__ = ("ext", "_nums", "_den", "_mult_cols", "_norm")

    def __init__(self, ext: SimpleExtension, nums: tuple, den):
        # the numerators over a denominator in lowest terms (what the
        # format's `lowest` builds)
        self.ext = ext
        self._nums = nums
        self._den = den
        # lazy caches; elements are immutable by convention
        self._mult_cols = None
        self._norm = None

    @property
    def integral(self) -> tuple:
        """The numerators and their one denominator, in lowest terms in the
        integral format of the ring."""
        return self._nums, self._den

    def _same(self, other):
        if other.ext != self.ext:
            raise ValueError("operands belong to different extensions")
        return other

    def __mul__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        ext = self._same(other).ext
        return ext.from_integral(
            convolve(self._nums, other._nums, ext.ring.num_zero), self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        if self.ext != other.ext:
            return False
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.ext, self._den, self._nums))

    def __bool__(self):
        return any(self._nums)

    def __repr__(self):
        return f"ExtElement{tuple(self.ext.ring.values(self._nums, self._den))!r}"

    # ------------------------------------------------------------------
    # the algebraic toolkit

    def _mult_columns(self):
        """Column j of the multiplication matrix holds self*t^j: the integral
        columns with their denominators.  Column j+1 is the remainder of t
        times column j, over its own denominator."""
        if self._mult_cols is None:
            ext = self.ext
            ring = ext.ring
            mod, dm = ext.modulus.integral
            cols, dens = [self._nums], [self._den]
            for _ in range(ext.n - 1):
                _, (col, den) = divide_monic(ring, (ring.num_zero, *cols[-1]), dens[-1], mod, dm)
                cols.append(col)
                dens.append(den)
            self._mult_cols = cols, dens
        return self._mult_cols

    def norm(self):
        """Determinant of the left-multiplication matrix."""
        if self._norm is None and self._is_gen():
            # the companion matrix of the modulus p has det (-1)^n p(0)
            p0 = self.ext.modulus.constant_term
            self._norm = -p0 if self.ext.n % 2 else p0
        elif self._norm is None:
            cols, dens = self._mult_columns()
            # det is invariant under transposition, so the columns serve as rows
            self._norm = self.ext.ring.value(linalg.det(cols), prod(dens))
        return self._norm

    def is_invertible(self) -> bool:
        return self.ext.ring.is_invertible(self.norm())

    def inverse(self) -> ExtElement:
        ext = self.ext
        if not self.is_invertible():
            raise NotInvertible("element is not a unit of the extension")
        cols, dens = self._mult_columns()
        # the matrix is N / dens column by column, so its inverse's first
        # column is dens * (N^-1 e_1), and N^-1 e_1 = x / d
        ring = ext.ring
        e1 = [[ring.num_one]] + [[ring.num_zero]] * (ext.n - 1)
        x, d = linalg.solve_columns(transpose(cols), e1)
        if not d:
            raise InternalAssertion("singular system in an exact solve")
        nums, den = ring.lowest([e * v for e, v in zip(dens, x[0])], d)
        if not ring.in_ring(den):
            raise InternalAssertion("inverse left the coefficient ring")
        inv = ExtElement(ext, nums, den)
        if inv * self != ext.one():
            raise InternalAssertion("inverse verification failed")
        return inv

    def _is_gen(self) -> bool:
        # the class of t for n >= 2: numerators (0, 1, 0, ...) over one
        one = self.ext.ring.num_one
        nums = self._nums
        return (self.ext.n > 1 and self._den == one and not nums[0]
                and nums[1] == one and not any(nums[2:]))

    def is_primitive(self) -> bool:
        """Whether self is primitive: `coordinate_columns` of no element."""
        try:
            self.coordinate_columns(())
        except NotPrimitive:
            return False
        return True

    def coordinate_columns(self, elements):
        """The coordinates of each of `elements` in the power basis of self,
        a primitive element, as integral columns over one denominator:
        column j holds the numerators of the coefficients of the polynomial
        y_j(t) of degree < n with elements[j] = y_j(self); and the minimal
        polynomial of self.  One elimination solves for every column and
        for self^n, a last right-hand side over its own denominator, and
        decides primitivity (NotPrimitive when self is not); for the class
        of t the columns are the elements' own numerators."""
        ext = self.ext
        ring = ext.ring
        rhs, den = over_common_denominator(ring, [self._same(x).integral for x in elements])
        if self._is_gen():
            return rhs, den, ext.modulus
        n = ext.n
        powers = [ext.one(), self]
        while len(powers) <= n:
            powers.append(powers[-1] * self)
        top = powers[n]
        # with N the integral power columns over dens and the right-hand
        # sides over one den, N y = rhs has y = x / d, and the coordinates
        # are dens * y / den
        cols, d = linalg.solve_columns(
            transpose([w._nums for w in powers[:n]]), transpose(rhs + [top._nums]))
        # d is det N up to sign, and the dens are units
        if not ring.is_unit(d):
            raise NotPrimitive("basis element is not primitive")
        cols = [[w._den * v for w, v in zip(powers, col)] for col in cols]
        # the minimal polynomial: t^n minus the coordinates of self^n
        nums, dp = cols.pop(), d * top._den
        p = Poly.from_integral(ring, [-v for v in nums] + [dp], dp)
        # p(self) = sum of P_k self^k over p's denominator: a zero test of
        # that sum over one common denominator, which needs no gcd
        vecs, _ = over_common_denominator(ring, [w.integral for w in powers])
        coeffs, _ = p.integral
        for i in range(n):
            acc = ring.num_zero
            for c, vec in zip(coeffs, vecs):
                if c and vec[i]:
                    acc = acc + c * vec[i]
            if acc:
                raise InternalAssertion("minimal polynomial does not vanish on its element")
        return cols, d * den, p

    def coords_in(self, basis_elt: ExtElement):
        """Coordinates of self in the power basis of a primitive element."""
        (col,), den, _ = self._same(basis_elt).coordinate_columns([self])
        return self.ext.ring.values(col, den)

    def minimal_polynomial(self) -> Poly:
        """The monic degree-n polynomial vanishing on self (self must be
        primitive): `coordinate_columns` of no element."""
        return self.coordinate_columns(())[2]
