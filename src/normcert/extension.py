"""Quotient algebras S = R[t]/(p) for a monic p with invertible constant term.

Elements are coordinate vectors in the canonical basis {1, t, ..., t^(n-1)}
where t is the class of the indeterminate.  Everything an element can do --
norms (determinant of left multiplication), inverses, primitivity,
coordinates in another element's power basis, minimal polynomials,
reduction to the residue field -- lives here.

An element b is primitive when {1, b, ..., b^(n-1)} is again a basis over
the coefficient ring, i.e. when the determinant of its powers matrix is a
unit; over the local ring that is decided on the residue.

Every element is held in an integral format: numerators over one
denominator that shares no factor with all of them.  Over Q those are
integers over a positive integer, the format of polynomials over Q.  Over
Q[x]_(x) they are integer polynomials (`ZX`) over one integer polynomial d
with d(0) != 0 and a positive leading coefficient, and no integer content
and no polynomial factor is common to d and all the numerators.  Over a
small finite field they are the coordinates themselves over the field's
one: lowest terms multiply by the inverse of the denominator.  `coords`
builds the ring values on first use, and `reduce` reads the residue off
the constant terms.  One code path serves every ring, through the small
format records `_Rationals`, `_LocalFunctions` and `_FiniteFieldFormat`
(zero and one, normalization, sums, scalar multiples, splitting a ring
scalar and building ring values and polynomials back); Python ints keep
their native operators.  Sums, scalar multiples and products run on the
numerators: a product convolves them and reduces against a table of t^n,
..., t^(2n-2) over one common denominator, built by shift and reduce from
the modulus, and normalizes once (in degree 1, where t is a scalar, a
product is a scalar multiple).  `from_poly` clears the remainder of a
division by the modulus once.  Norms, inverses, primitivity and
power-basis coordinates take the integral columns, each over its own
denominator, into `linalg.det` and `linalg.solve_columns`, the one
fraction-free Bareiss elimination, and scale the result back by those
denominators, so a norm builds one ring value; the minimal polynomial and
the general-position columns (`coords_poly_in`) are built from that
solution.  Column j+1 of the multiplication matrix is t times column j: a
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
from .poly import Poly, convolve, int_sum, lowest_terms
from .rings import (
    QQ, QQ_LOCAL_X, ZX, ZX_ONE, RatFunc, zx_clear, zx_lowest_terms, zx_scale, zx_sum,
)


class _Rationals:
    """The integral format over Q: integer numerators over one positive
    integer denominator."""

    zero, one = 0, 1
    lowest = staticmethod(lowest_terms)
    sum = staticmethod(int_sum)
    value = Fraction
    poly = staticmethod(Poly.from_ints)

    @staticmethod
    def scale(nums, den, s_num, s_den):
        return lowest_terms([v * s_num for v in nums], den * s_den)

    @staticmethod
    def split(s):
        if not isinstance(s, (int, Fraction)):
            s = QQ.element(s)
        return s.numerator, s.denominator

    @staticmethod
    def clear(values):
        # each Fraction is in lowest terms, so over the lcm of the
        # denominators the numerators share no factor with it
        nums, den = clear_denominators(values)
        return tuple(nums), den

    @staticmethod
    def poly_form(f: Poly):
        return f.int_form

    @staticmethod
    def values(nums, den):
        return [Fraction(v, den) for v in nums]

    @staticmethod
    def in_ring(den):
        return True


class _LocalFunctions:
    """The integral format over Q[x]_(x): Z[x] numerators over one Z[x]
    denominator d with d(0) != 0."""

    zero, one = ZX(), ZX_ONE
    lowest = staticmethod(zx_lowest_terms)
    sum = staticmethod(zx_sum)
    scale = staticmethod(zx_scale)
    value = staticmethod(RatFunc.from_zx)
    clear = staticmethod(zx_clear)

    @staticmethod
    def split(s):
        return QQ_LOCAL_X.element(s).zx_form

    @staticmethod
    def poly_form(f: Poly):
        return zx_clear(f.coeffs)

    @staticmethod
    def values(nums, den):
        out = [RatFunc.from_zx(v, den) for v in nums]
        if not all(v.is_defined_at_zero() for v in out):
            raise CoordinateNotIntegral("a coordinate left the local ring")
        return out

    @staticmethod
    def in_ring(den):
        # of a vector in lowest terms: a pole at 0 is a root of den
        return den.c[0] != 0

    @staticmethod
    def poly(nums, den):
        return Poly(QQ_LOCAL_X, _LocalFunctions.values(nums, den))

    @staticmethod
    def residue(nums, den):
        # evaluation at x = 0, straight into the integer format of Q
        return lowest_terms([v.c[0] if v else 0 for v in nums], den.c[0])


class _FiniteFieldFormat:
    """The integral format over a small finite field: the coordinates over
    the field's one.  A vector in lowest terms is over one, and `lowest`
    gets it there by multiplying by the inverse of the denominator."""

    __slots__ = ("field", "zero", "one")

    def __init__(self, field):
        self.field, self.zero, self.one = field, field.zero, field.one

    def lowest(self, nums, den):
        if den != self.one:
            inv = self.one / den
            nums = [v * inv for v in nums]
        return tuple(nums), self.one

    def sum(self, a, da, b, db):
        # both vectors are in lowest terms, so over one
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return tuple(out), self.one

    def scale(self, nums, den, s_num, s_den):
        return self.lowest([v * s_num for v in nums], den * s_den)

    def split(self, s):
        return self.field.element(s), self.one

    @staticmethod
    def value(num, den):
        return num / den

    def clear(self, values):
        return tuple(values), self.one

    def poly_form(self, f: Poly):
        return f.coeffs, self.one

    def values(self, nums, den):
        return list(self.lowest(nums, den)[0])

    @staticmethod
    def in_ring(den):
        return True

    def poly(self, nums, den):
        return Poly(self.field, self.values(nums, den))


# the format records of Q and Q[x]_(x); a finite field gets its own, built
# from the field object, since two FiniteField(p, e) objects share an id
_FORMATS = {QQ.id: _Rationals, QQ_LOCAL_X.id: _LocalFunctions}


def integral_format(ring):
    """The integral format record of `ring`."""
    return _FORMATS.get(ring.id) or _FiniteFieldFormat(ring)


class SimpleExtension:
    __slots__ = ("ring", "modulus", "n", "_fmt", "_table", "_residue_ext")

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
        self._fmt = integral_format(ring)
        self._table = None
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
        return self.scalar(self.ring.zero)

    def one(self) -> ExtElement:
        return self.scalar(self.ring.one)

    def scalar(self, c) -> ExtElement:
        c = self.ring.element(c)
        fmt = self._fmt
        # a ring element split into numerator and denominator is in lowest terms
        num, den = fmt.split(c)
        return ExtElement(self, None, (num,) + (fmt.zero,) * (self.n - 1), den)

    def gen(self) -> ExtElement:
        """The class of t."""
        return self.from_poly(Poly(self.ring, (self.ring.zero, self.ring.one)))

    def from_poly(self, f: Poly) -> ExtElement:
        """Reduce a polynomial modulo the defining modulus."""
        fmt = self._fmt
        # the remainder in lowest terms, cleared once; zero padding keeps it so
        nums, den = fmt.poly_form(f % self.modulus)
        return ExtElement(self, None, nums + (fmt.zero,) * (self.n - len(nums)), den)

    def _power_table(self):
        # the coordinates of t^(n+k) for k = 0 .. n-2 (everything a product
        # can need), as rows over one common denominator: t^(n+k) is
        # t^(n+k-1) times t, its row over dm^(k+1) when the modulus is nums / dm
        if self._table is None:
            fmt = self._fmt
            nums, dm = fmt.poly_form(self.modulus)
            # none at all when n = 1, where t is the scalar -p(0)
            rows = [tuple(-v for v in nums[:-1])] if self.n > 1 else []
            for _ in range(self.n - 2):
                rows.append(_times_t(rows[-1], rows[0], dm, fmt.zero))
            # over dm^(n-1), reduced by one multi-gcd over the whole table
            k = len(rows)
            powers = [fmt.one]
            for _ in range(k):
                powers.append(powers[-1] * dm)
            flat = [v * powers[k - 1 - i] for i, row in enumerate(rows) for v in row]
            flat, den = fmt.lowest(flat, powers[k])
            n = self.n
            self._table = [flat[i * n:(i + 1) * n] for i in range(k)], den
        return self._table

    def residue_extension(self) -> SimpleExtension:
        """The reduced algebra over the residue field (self when R is a field)."""
        if self.ring.residue_ring is self.ring:
            return self
        if self._residue_ext is None:
            k = self.ring.residue_ring
            pbar = self.modulus.map_coefficients(self.ring.residue, k)
            self._residue_ext = SimpleExtension(k, pbar)
        return self._residue_ext


def _times_t(col, red, dt, zero):
    """The coordinates of t * col, given those of t^n as red / dt: a shift
    plus top * red, as numerators over dt times the denominator of col."""
    top = col[-1]
    if dt != 1:
        col = [v * dt for v in col]
    if not top:
        return (zero, *col[:-1])
    return (top * red[0], *(s + top * r for s, r in zip(col, red[1:])))


class ExtElement:
    __slots__ = ("ext", "_coords", "_nums", "_den", "_mult_cols", "_norm", "_powers",
                 "_primitive")

    def __init__(self, ext: SimpleExtension, coords: tuple | None, nums=None, den=1):
        # give either the coords or the numerators over a denominator in
        # lowest terms (what the format's `lowest` builds)
        self.ext = ext
        if nums is None:
            nums, den = ext._fmt.clear(coords)
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
            self._coords = tuple(self.ext._fmt.values(self._nums, self._den))
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
        return ExtElement(self.ext, None, *self.ext._fmt.sum(
            self._nums, self._den, other._nums, other._den))

    __radd__ = __add__

    def __sub__(self, other) -> ExtElement:
        return self + (-self._same(other))

    def __rsub__(self, other) -> ExtElement:
        return self._same(other) - self

    def __neg__(self) -> ExtElement:
        return ExtElement(self.ext, None, tuple(-a for a in self._nums), self._den)

    def __mul__(self, other):
        if isinstance(other, ExtElement):
            other = self._same(other)
            return self._mul_ext(other)
        # scalar from the coefficient ring
        fmt = self.ext._fmt
        return ExtElement(self.ext, None, *fmt.scale(self._nums, self._den, *fmt.split(other)))

    __rmul__ = __mul__

    def _mul_ext(self, other: ExtElement) -> ExtElement:
        ext = self.ext
        n = ext.n
        fmt = ext._fmt
        if n == 1:
            # a product of scalars
            return ExtElement(ext, None, *fmt.scale(
                self._nums, self._den, other._nums[0], other._den))
        table, dt = ext._power_table()
        conv = convolve(self._nums, other._nums, fmt.zero)
        # with t^(n+k) = table[k] / dt, out / dt is the product of a and b
        out = conv[:n] if dt == 1 else [c * dt for c in conv[:n]]
        for k in range(n - 1):
            c = conv[n + k]
            if c:
                red = table[k]
                for i in range(n):
                    out[i] = out[i] + c * red[i]
        return ExtElement(ext, None, *fmt.lowest(out, self._den * other._den * dt))

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
        return f"ExtElement{self.coords!r}"

    # ------------------------------------------------------------------
    # the algebraic toolkit

    def _mult_columns(self):
        """Column j of the multiplication matrix holds self*t^j: the integral
        columns with their denominators."""
        if self._mult_cols is None:
            ext = self.ext
            col, dens = self._nums, [self._den]
            table, dt = ext._power_table()
            # t^n, which only n > 1 needs
            red = table and table[0]
            cols = [col]
            for _ in range(ext.n - 1):
                cols.append(_times_t(cols[-1], red, dt, ext._fmt.zero))
                dens.append(dens[-1] * dt)
            self._mult_cols = cols, dens
        return self._mult_cols

    def norm(self):
        """Determinant of the left-multiplication matrix."""
        if self._norm is None:
            cols, dens = self._mult_columns()
            # det is invariant under transposition, so the columns serve as rows
            self._norm = self.ext._fmt.value(linalg.det(cols), prod(dens))
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
        fmt = ext._fmt
        e1 = [[fmt.one]] + [[fmt.zero]] * (ext.n - 1)
        (x,), d = linalg.solve_columns(transpose(cols), e1)
        nums, den = fmt.lowest([e * v for e, v in zip(dens, x)], d)
        if not fmt.in_ring(den):
            raise InternalAssertion("inverse left the coefficient ring")
        inv = ExtElement(ext, None, nums, den)
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

    def is_primitive(self) -> bool:
        if self._primitive is None:
            residue = self.reduce()
            if residue is not self:
                # reduction commutes with det, and a unit is a nonzero residue
                self._primitive = residue.is_primitive()
            else:
                # the integral columns are the power columns times nonzero
                # denominators, so their det is 0 exactly when that one is
                self._primitive = bool(linalg.det([w._nums for w in self._power_list()]))
        return self._primitive

    def _int_coords_in(self, basis_elt: ExtElement):
        """The coordinates of self in the power basis of a primitive element
        as numerators over one denominator."""
        if not basis_elt.is_primitive():
            raise NotPrimitive("basis element is not primitive")
        # with N the integral power columns over dens, N y = nums has
        # y = x / d, and the coordinates are dens * y / den
        powers = basis_elt._power_list()
        a = transpose([w._nums for w in powers])
        (x,), d = linalg.solve_columns(a, [[v] for v in self._nums])
        return [w._den * v for w, v in zip(powers, x)], d * self._den

    def coords_in(self, basis_elt: ExtElement):
        """Coordinates of self in the power basis of a primitive element."""
        basis_elt = self._same(basis_elt)
        return self.ext._fmt.values(*self._int_coords_in(basis_elt))

    def coords_poly_in(self, basis_elt: ExtElement) -> Poly:
        """The polynomial x(t) of degree < n with self = x(basis_elt), for a
        primitive basis_elt: its coefficients are the coordinates of self in
        the power basis of basis_elt."""
        basis_elt = self._same(basis_elt)
        return self.ext._fmt.poly(*self._int_coords_in(basis_elt))

    def minimal_polynomial(self) -> Poly:
        """The monic degree-n polynomial vanishing on self (self must be primitive)."""
        ext = self.ext
        top = self._power_list()[-1] * self
        # t^n minus the coordinates of self^n, over their denominator
        nums, d = top._int_coords_in(self)
        p = ext._fmt.poly([-v for v in nums] + [d], d)
        if p(self):
            raise InternalAssertion("minimal polynomial does not vanish on its element")
        return p

    def reduce(self) -> ExtElement:
        """Coordinatewise reduction to the algebra over the residue field."""
        rext = self.ext.residue_extension()
        if rext is self.ext:
            return self
        return ExtElement(rext, None, *self.ext._fmt.residue(self._nums, self._den))

    def lift_to(self, ext: SimpleExtension) -> ExtElement:
        """Coordinatewise constant lift into an extension with this residue
        algebra (self when that extension is this algebra)."""
        if ext is self.ext:
            return self
        if ext.residue_extension() != self.ext:
            raise ValueError("target extension does not reduce to this algebra")
        return ExtElement(ext, tuple(ext.ring.lift(c) for c in self.coords))
