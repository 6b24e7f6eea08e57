"""Quotient algebras S = R[t]/(p) for a monic p with invertible constant term.

Elements are coordinate vectors in the canonical basis {1, t, ..., t^(n-1)}
where t is the class of the indeterminate.  Everything an element can do --
multiplication matrices, norms (determinant of left multiplication),
inverses, power bases, primitivity, coordinates in another element's power
basis, minimal polynomials, reduction to the residue field -- lives here.

An element b is primitive when {1, b, ..., b^(n-1)} is again a basis over
the coefficient ring, i.e. when the determinant of its powers matrix is a
unit; over the local ring that is decided on the residue.

Over Q an element is held as integer numerators over one positive
denominator that shares no factor with all of them, the format of
polynomials over Q, and `coords` builds the Fractions on first use.  Sums,
scalar multiples and products run on those integers through the functions
of `poly` that build that format (a product convolves and reduces against
an integer table of t^n, ..., t^(2n-2) over one common denominator, built
by shift and reduce from the integer modulus) and end in one multi-gcd,
which stops as soon as the common factor is 1.  `from_poly` takes the
integer remainder of a division by the modulus as it is.  Norms, inverses,
primitivity and power-basis coordinates take integer columns, each over its
own denominator, into `linalg.int_det` and `linalg.int_solve` and scale the
result back by those denominators; the minimal polynomial is built from
that integer solution and checked by Horner on the integers.  Over every
other ring the arithmetic runs coefficient by coefficient in the ring.  On
every ring column j+1 of the multiplication matrix is t times column j: a
shift plus one multiple of the coordinates of t^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import linalg
from .errors import (
    CoordinateNotIntegral,
    InternalAssertion,
    NotInvertible,
    NotPrimitive,
    NotSimple,
)
from .linalg import clear_denominators, transpose
from .poly import Poly, convolve, int_scale, int_sum, lowest_terms
from .rings import QQ


class SimpleExtension:
    __slots__ = (
        "ring", "modulus", "n", "_rational", "_gen_red", "_tpow", "_int_tpow", "_residue_ext",
    )

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
        # over Q elements are held as integers over one denominator
        self._rational = ring.id == QQ.id
        # coordinates of t^n, i.e. minus the lower part of the modulus
        self._gen_red = None if self._rational else tuple(-c for c in modulus.coeffs[:-1])
        self._tpow = None
        self._int_tpow = None
        self._residue_ext = None

    def __eq__(self, other):
        if other is self:
            return True
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
        if self._rational:
            # the remainder is in lowest terms, and zero padding keeps it so
            nums, den = rem.int_form
            return ExtElement(self, None, nums + (0,) * (self.n - len(nums)), den)
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
        # the same table over Q as integer rows over one common denominator:
        # t^(n+k) is t^(n+k-1) times t, its row over dm^(k+1) when the
        # modulus is nums / dm
        if self._int_tpow is None:
            nums, dm = self.modulus.int_form
            rows = [tuple(-v for v in nums[:-1])]
            for _ in range(self.n - 2):
                rows.append(_times_t(rows[-1], rows[0], dm, 0))
            # over dm^(n-1), reduced by one multi-gcd over the whole table
            flat = [v * dm ** (len(rows) - 1 - k) for k, row in enumerate(rows) for v in row]
            flat, den = lowest_terms(flat, dm ** len(rows))
            n = self.n
            self._int_tpow = [flat[k * n:(k + 1) * n] for k in range(len(rows))], den
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


def _times_t(col, red, dt: int, zero):
    """The coordinates of t * col, given those of t^n as red / dt: a shift
    plus top * red.  Over Q they are numerators over dt times the
    denominator of col; over the other rings dt is 1."""
    top = col[-1]
    if dt != 1:
        col = [v * dt for v in col]
    if not top:
        return (zero, *col[:-1])
    return (top * red[0], *(s + top * r for s, r in zip(col, red[1:])))


class ExtElement:
    __slots__ = ("ext", "_coords", "_nums", "_den", "_mult_cols", "_norm", "_powers",
                 "_primitive")

    def __init__(self, ext: SimpleExtension, coords: tuple | None, nums=None, den: int = 1):
        # over Q give either Fraction coords or integer nums over a positive
        # den sharing no factor with all of them (what poly.lowest_terms builds)
        self.ext = ext
        if nums is None and ext._rational:
            # each Fraction is in lowest terms, so over the lcm of the
            # denominators the numerators share no factor with it
            nums, den = clear_denominators(coords)
            nums = tuple(nums)
        self._coords = coords
        self._nums = nums
        self._den = den
        # lazy caches; elements are immutable by convention
        self._mult_cols = None
        self._norm = None
        self._powers = None
        self._primitive = None

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            den = self._den
            self._coords = tuple(Fraction(v, den) for v in self._nums)
        return self._coords

    def _same(self, other):
        if isinstance(other, ExtElement):
            if other.ext != self.ext:
                raise ValueError("operands belong to different extensions")
            return other
        # ring scalars embed as constants
        return self.ext.scalar(other)

    def __add__(self, other) -> ExtElement:
        other = self._same(other)
        if self._nums is None:
            return ExtElement(self.ext, tuple(a + b for a, b in zip(self.coords, other.coords)))
        return ExtElement(self.ext, None, *int_sum(self._nums, self._den, other._nums, other._den))

    __radd__ = __add__

    def __sub__(self, other) -> ExtElement:
        return self + (-self._same(other))

    def __rsub__(self, other) -> ExtElement:
        return self._same(other) - self

    def __neg__(self) -> ExtElement:
        if self._nums is None:
            return ExtElement(self.ext, tuple(-a for a in self.coords))
        return ExtElement(self.ext, None, tuple(-a for a in self._nums), self._den)

    def __mul__(self, other):
        if isinstance(other, ExtElement):
            other = self._same(other)
            return self._mul_ext(other)
        # scalar from the coefficient ring
        if self._nums is None:
            s = self.ext.ring.element(other)
            return ExtElement(self.ext, tuple(a * s for a in self.coords))
        return ExtElement(self.ext, None, *int_scale(self._nums, self._den, other))

    __rmul__ = __mul__

    def _mul_ext(self, other: ExtElement) -> ExtElement:
        ext = self.ext
        n = ext.n
        if self._nums is None:
            a, b, zero = self.coords, other.coords, ext.ring.zero
            table, dt = ext._gen_power_table(), 1
        else:
            a, b, zero = self._nums, other._nums, 0
            table, dt = ext._int_power_table()
        conv = convolve(a, b, zero)
        # with t^(n+k) = table[k] / dt, out / dt is the product of a and b
        out = conv[:n] if dt == 1 else [c * dt for c in conv[:n]]
        for k in range(n - 1):
            c = conv[n + k]
            if c:
                red = table[k]
                for i in range(n):
                    out[i] = out[i] + c * red[i]
        if self._nums is None:
            return ExtElement(ext, tuple(out))
        return ExtElement(ext, None, *lowest_terms(out, self._den * other._den * dt))

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        if self.ext != other.ext:
            return False
        if self._nums is None:
            return self.coords == other.coords
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.ext, self.coords))

    def __bool__(self):
        return any(self.coords if self._nums is None else self._nums)

    def __repr__(self):
        return f"ExtElement{self.coords!r}"

    # ------------------------------------------------------------------
    # the algebraic toolkit

    def _mult_columns(self):
        """Column j of the multiplication matrix holds self*t^j.  Returns
        (columns, None) over a ring other than Q, and over Q the integer
        columns with their denominators."""
        if self._mult_cols is None:
            ext = self.ext
            if self._nums is None:
                col, dens = self.coords, None
                red, dt, zero = ext._gen_red, 1, ext.ring.zero
            else:
                col, dens = self._nums, [self._den]
                (red, *_), dt = ext._int_power_table()
                zero = 0
            cols = [col]
            for _ in range(ext.n - 1):
                cols.append(_times_t(cols[-1], red, dt, zero))
                if dens is not None:
                    dens.append(dens[-1] * dt)
            self._mult_cols = cols, dens
        return self._mult_cols

    def mult_matrix(self):
        """Matrix of left multiplication by self: column j = coords of self*t^j."""
        cols, dens = self._mult_columns()
        if dens is not None:
            cols = [[Fraction(v, d) for v in col] for col, d in zip(cols, dens)]
        return transpose(cols)

    def norm(self):
        """Determinant of the left-multiplication matrix."""
        if self._norm is None:
            cols, dens = self._mult_columns()
            if dens is None:
                self._norm = linalg.det(self.ext.ring, self.mult_matrix())
            else:
                # det is invariant under transposition, so the columns serve as rows
                self._norm = Fraction(linalg.int_det(cols), prod(dens))
        return self._norm

    def is_invertible(self) -> bool:
        return self.ext.ring.is_invertible(self.norm())

    def inverse(self) -> ExtElement:
        ext = self.ext
        ring = ext.ring
        if not self.is_invertible():
            raise NotInvertible("element is not a unit of the extension")
        cols, dens = self._mult_columns()
        if dens is None:
            rhs = [ring.one] + [ring.zero] * (ext.n - 1)
            sol = linalg.solve(ring, self.mult_matrix(), rhs)
            if not all(ring.contains(v) for v in sol):
                raise InternalAssertion("inverse left the coefficient ring")
            inv = ExtElement(ext, tuple(sol))
        else:
            # the matrix is N / dens column by column, so its inverse's first
            # column is dens * (N^-1 e_1), and N^-1 e_1 = x / d
            (x,), d = linalg.int_solve(transpose(cols), [[1]] + [[0]] * (ext.n - 1))
            inv = ExtElement(ext, None, *lowest_terms([e * v for e, v in zip(dens, x)], d))
        if inv * self != ext.one():
            raise InternalAssertion("inverse verification failed")
        return inv

    def _power_list(self):
        # [1, self, ..., self^(n-1)]
        if self._powers is None:
            n = self.ext.n
            powers = [self.ext.one(), self]
            while len(powers) < n:
                powers.append(powers[-1] * self)
            self._powers = powers[:n]
        return self._powers

    def powers_matrix(self):
        """Column j = coordinates of self**j, j = 0 .. n-1."""
        return transpose([w.coords for w in self._power_list()])

    def is_primitive(self) -> bool:
        if self._primitive is None:
            residue = self.reduce()
            ring = self.ext.ring
            if residue is not self:
                # reduction commutes with det, and a unit is a nonzero residue
                self._primitive = residue.is_primitive()
            elif self._nums is None:
                self._primitive = ring.is_invertible(
                    linalg.det(ring, self.powers_matrix())
                )
            else:
                # the integer columns are the power columns times nonzero
                # denominators, so their det is 0 exactly when that one is
                self._primitive = linalg.int_det([w._nums for w in self._power_list()]) != 0
        return self._primitive

    def _int_coords_in(self, basis_elt: ExtElement):
        """Over Q, the coordinates of self in the power basis of a primitive
        element as integer numerators over one denominator."""
        if not basis_elt.is_primitive():
            raise NotPrimitive("basis element is not primitive")
        # with N the integer power columns over dens, N y = nums has
        # y = x / d, and the coordinates are dens * y / den
        powers = basis_elt._power_list()
        a = transpose([w._nums for w in powers])
        (x,), d = linalg.int_solve(a, [[v] for v in self._nums])
        return [w._den * v for w, v in zip(powers, x)], d * self._den

    def coords_in(self, basis_elt: ExtElement):
        """Coordinates of self in the power basis of a primitive element."""
        basis_elt = self._same(basis_elt)
        if self._nums is not None:
            nums, d = self._int_coords_in(basis_elt)
            return [Fraction(v, d) for v in nums]
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
        top = self._power_list()[-1] * self
        if self._nums is None:
            p = Poly(ext.ring, [-c for c in top.coords_in(self)] + [ext.ring.one])
        else:
            # t^n minus the coordinates of self^n, over their denominator
            nums, d = top._int_coords_in(self)
            p = Poly.from_ints([-v for v in nums] + [d], d)
        if p(self):
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
