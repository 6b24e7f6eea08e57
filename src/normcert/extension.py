"""Quotient algebras S = R[t]/(p) for a monic p with invertible constant term.

Elements are coordinate vectors in the canonical basis {1, t, ..., t^(n-1)}
where t is the class of the indeterminate.  Everything an element can do --
multiplication matrices, norms (determinant of left multiplication),
inverses, power bases, primitivity, coordinates in another element's power
basis, minimal polynomials, reduction to the residue field -- lives here.

An element b is primitive when {1, b, ..., b^(n-1)} is again a basis over
the coefficient ring, i.e. when the determinant of its powers matrix is a
unit; over the local ring that is decided on the residue.

Over Q a product clears each operand's coordinates to integers over one
denominator, convolves on integers and reduces against an integer table of
t^n, ..., t^(2n-2) over one common denominator, so only the n resulting
coordinates are built as Fractions.  Over every other ring the product runs
coefficient by coefficient in the ring.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    CoordinateNotIntegral,
    InternalAssertion,
    NotInvertible,
    NotPrimitive,
    NotSimple,
)
from .linalg import clear_denominators
from .poly import Poly
from .rings import QQ


class SimpleExtension:
    __slots__ = ("ring", "modulus", "n", "_gen_red", "_tpow", "_int_tpow", "_residue_ext")

    def __init__(self, ring, modulus: Poly):
        if modulus.ring.id != ring.id:
            raise NotSimple("modulus is defined over a different ring")
        if modulus.degree < 1 or not modulus.is_monic():
            raise NotSimple("modulus must be monic of degree >= 1")
        if not ring.is_invertible(modulus.constant_term):
            raise NotSimple(
                "constant term of the modulus is not a unit, so t would not be invertible"
            )
        self.ring = ring
        self.modulus = modulus
        self.n = modulus.degree
        # coordinates of t^n, i.e. minus the lower part of the modulus
        self._gen_red = tuple(-c for c in modulus.coeffs[:-1])
        self._tpow = None
        self._int_tpow = None
        self._residue_ext = None

    def __eq__(self, other):
        if not isinstance(other, SimpleExtension):
            return NotImplemented
        return self.ring.id == other.ring.id and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.ring.id, self.modulus))

    def __repr__(self):
        return f"SimpleExtension({self.ring.id}, {self.modulus!r})"

    def element(self, coords) -> ExtElement:
        cs = [self.ring.element(c) for c in coords]
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(cs)}")
        return ExtElement(self, tuple(cs))

    def zero(self) -> ExtElement:
        return ExtElement(self, (self.ring.zero,) * self.n)

    def one(self) -> ExtElement:
        return ExtElement(self, (self.ring.one,) + (self.ring.zero,) * (self.n - 1))

    def scalar(self, c) -> ExtElement:
        c = self.ring.element(c)
        return ExtElement(self, (c,) + (self.ring.zero,) * (self.n - 1))

    def gen(self) -> ExtElement:
        """The class of t."""
        return self.from_poly(Poly(self.ring, (self.ring.zero, self.ring.one)))

    def from_poly(self, f: Poly) -> ExtElement:
        """Reduce a polynomial modulo the defining modulus."""
        rem = f % self.modulus
        cs = list(rem.coeffs) + [self.ring.zero] * (self.n - len(rem.coeffs))
        return ExtElement(self, tuple(cs))

    def _gen_power_table(self):
        # coordinates of t^(n+k) for k = 0 .. n-2 (everything a product can need)
        if self._tpow is None:
            table = [self._gen_red]
            for _ in range(self.n - 2):
                prev = table[-1]
                shifted = (self.ring.zero,) + prev[:-1]
                top = prev[-1]
                table.append(
                    tuple(s + top * r for s, r in zip(shifted, self._gen_red))
                )
            self._tpow = table
        return self._tpow

    def _int_power_table(self):
        # the same table over Q as integer rows over one common denominator
        if self._int_tpow is None:
            table = self._gen_power_table()
            nums, den = clear_denominators([c for row in table for c in row])
            n = self.n
            self._int_tpow = [nums[k * n:(k + 1) * n] for k in range(len(table))], den
        return self._int_tpow

    def residue_extension(self) -> SimpleExtension:
        """The reduced algebra over the residue field (self when R is a field)."""
        if self.ring.residue_ring is self.ring:
            return self
        if self._residue_ext is None:
            k = self.ring.residue_ring
            pbar = self.modulus.map_coefficients(self.ring.residue, k)
            self._residue_ext = SimpleExtension(k, pbar)
        return self._residue_ext


class ExtElement:
    __slots__ = ("ext", "coords", "_mult_matrix", "_norm", "_powers_matrix", "_primitive")

    def __init__(self, ext: SimpleExtension, coords: tuple):
        self.ext = ext
        self.coords = coords
        # lazy caches; elements are immutable by convention
        self._mult_matrix = None
        self._norm = None
        self._powers_matrix = None
        self._primitive = None

    def _same(self, other):
        if isinstance(other, ExtElement):
            if other.ext != self.ext:
                raise ValueError("operands belong to different extensions")
            return other
        # ring scalars embed as constants
        return self.ext.scalar(other)

    def __add__(self, other) -> ExtElement:
        other = self._same(other)
        return ExtElement(self.ext, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other) -> ExtElement:
        other = self._same(other)
        return ExtElement(self.ext, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other) -> ExtElement:
        return self._same(other) - self

    def __neg__(self) -> ExtElement:
        return ExtElement(self.ext, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, ExtElement):
            other = self._same(other)
            return self._mul_ext(other)
        # scalar from the coefficient ring
        s = self.ext.ring.element(other)
        return ExtElement(self.ext, tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def _mul_ext(self, other: ExtElement) -> ExtElement:
        if self.ext.ring.id == QQ.id:
            return self._mul_rational(other)
        ext = self.ext
        n = ext.n
        a, b = self.coords, other.coords
        conv = [ext.ring.zero] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = conv[i + j] + ai * bj
        out = conv[:n]
        table = ext._gen_power_table()
        for k in range(n - 1):
            c = conv[n + k]
            if c:
                red = table[k]
                for i in range(n):
                    out[i] = out[i] + c * red[i]
        return ExtElement(ext, tuple(out))

    def _mul_rational(self, other: ExtElement) -> ExtElement:
        ext = self.ext
        n = ext.n
        a, da = clear_denominators(self.coords)
        b, db = clear_denominators(other.coords)
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        table, dt = ext._int_power_table()
        # the product is out / (da * db * dt), with t^(n+k) = table[k] / dt
        out = [c * dt for c in conv[:n]]
        for k in range(n - 1):
            c = conv[n + k]
            if c:
                red = table[k]
                for i in range(n):
                    out[i] += c * red[i]
        den = da * db * dt
        return ExtElement(ext, tuple(Fraction(v, den) for v in out))

    def __pow__(self, e: int) -> ExtElement:
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.ext.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.ext == other.ext and self.coords == other.coords

    def __hash__(self):
        return hash((self.ext, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"ExtElement{self.coords!r}"

    # ------------------------------------------------------------------
    # the algebraic toolkit

    def _orbit_matrix(self, start: ExtElement):
        # column j = coordinates of start * self**j, j = 0 .. n-1
        cols = [start.coords]
        for _ in range(self.ext.n - 1):
            start = start * self
            cols.append(start.coords)
        return linalg.transpose(cols)

    def mult_matrix(self):
        """Matrix of left multiplication by self: column j = coords of self*t^j."""
        if self._mult_matrix is None:
            self._mult_matrix = self.ext.gen()._orbit_matrix(self)
        return self._mult_matrix

    def norm(self):
        """Determinant of the left-multiplication matrix."""
        if self._norm is None:
            self._norm = linalg.det(self.ext.ring, self.mult_matrix())
        return self._norm

    def is_invertible(self) -> bool:
        return self.ext.ring.is_invertible(self.norm())

    def inverse(self) -> ExtElement:
        ring = self.ext.ring
        if not self.is_invertible():
            raise NotInvertible("element is not a unit of the extension")
        rhs = [ring.one] + [ring.zero] * (self.ext.n - 1)
        sol = linalg.solve(ring, self.mult_matrix(), rhs)
        if not all(ring.contains(v) for v in sol):
            raise InternalAssertion("inverse left the coefficient ring")
        inv = ExtElement(self.ext, tuple(sol))
        if inv * self != self.ext.one():
            raise InternalAssertion("inverse verification failed")
        return inv

    def powers_matrix(self):
        """Column j = coordinates of self**j, j = 0 .. n-1."""
        if self._powers_matrix is None:
            self._powers_matrix = self._orbit_matrix(self.ext.one())
        return self._powers_matrix

    def is_primitive(self) -> bool:
        if self._primitive is None:
            residue = self.reduce()
            if residue is not self:
                # reduction commutes with det, and a unit is a nonzero residue
                self._primitive = residue.is_primitive()
            else:
                ring = self.ext.ring
                self._primitive = ring.is_invertible(
                    linalg.det(ring, self.powers_matrix())
                )
        return self._primitive

    def coords_in(self, basis_elt: ExtElement):
        """Coordinates of self in the power basis of a primitive element."""
        basis_elt = self._same(basis_elt)
        if not basis_elt.is_primitive():
            raise NotPrimitive("basis element is not primitive")
        ring = self.ext.ring
        sol = linalg.solve(ring, basis_elt.powers_matrix(), list(self.coords))
        if not all(ring.contains(v) for v in sol):
            raise CoordinateNotIntegral(
                "coordinate left the coefficient ring despite a primitive basis"
            )
        return sol

    def minimal_polynomial(self) -> Poly:
        """The monic degree-n polynomial vanishing on self (self must be primitive)."""
        ext = self.ext
        v = (self ** ext.n).coords_in(self)
        coeffs = [-c for c in v] + [ext.ring.one]
        p = Poly(ext.ring, coeffs)
        if p(self) != ext.zero():
            raise InternalAssertion("minimal polynomial does not vanish on its element")
        return p

    def reduce(self) -> ExtElement:
        """Coordinatewise reduction to the algebra over the residue field."""
        rext = self.ext.residue_extension()
        if rext is self.ext:
            return self
        ring = self.ext.ring
        return ExtElement(rext, tuple(ring.residue(c) for c in self.coords))

    def lift_to(self, ext: SimpleExtension) -> ExtElement:
        """Coordinatewise constant lift into an extension with this residue
        algebra (self when that extension is this algebra)."""
        if ext is self.ext:
            return self
        if ext.residue_extension() != self.ext:
            raise ValueError("target extension does not reduce to this algebra")
        return ExtElement(ext, tuple(ext.ring.lift(c) for c in self.coords))
