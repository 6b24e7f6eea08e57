"""Small finite fields and the two positive-characteristic counterexample demos.

Fields F_{p^e} for p in {2, 3, 5, 7} and e <= 3 are table-driven: elements
are integers 0 .. p^e - 1 encoding base-p digit vectors, with addition,
multiplication and inversion precomputed at construction.  An extension
field is built on the monic irreducible of least base-p code (its
coefficients, lowest first, as base-p digits), deterministically: F4 on
s^2+s+1, F8 on s^3+s+1, F9 on s^2+1 and F27 on s^3-s+1.

A finite field is a `rings.Ring` like the exact rings, and the field
object is its own integral format: a vector is its coordinates over the
field's one, and lowest terms multiply by the inverse of the denominator.
Its elements divide exactly (`/`, and `//` as an alias), so the
quotient-algebra machinery runs over it unchanged, and the one Bareiss
elimination of `linalg` takes their norms, inverses and power-basis
coordinates.  That is what both demos lean on.

demo 1 (characteristic 2): in the two-dimensional algebra k[t]/(t^2) every
square collapses onto the line k*1, which consists exactly of the
non-primitive elements -- so no scaling by a square can ever create a
primitive element.

demo 2 (characteristic 3): in k[t]/(t^3 - 1) with c = x = t, the top
coordinate of x*b^(-1) in the power basis of c*b^2 vanishes for every
qualifying unit b, so the general-position set is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrimitive, RingMismatch
from .extension import SimpleExtension
from .poly import Poly, divide_monic
from .rings import QQ, Ring, shown

_PRIMES = (2, 3, 5, 7)


def _find_irreducible(p: int, e: int) -> tuple:
    # the monic degree e polynomial over F_p with no root (enough for
    # e <= 3) of least base-p code, ascending coefficients including the
    # leading 1
    for code in range(p**e):
        digits = []
        c = code
        for _ in range(e):
            c, d = divmod(c, p)
            digits.append(d)
        coeffs = tuple(digits) + (1,)
        if coeffs[0] == 0:
            continue
        if all(sum(c * pow(v, i, p) for i, c in enumerate(coeffs)) % p for v in range(p)):
            return coeffs
    raise ValueError(f"no irreducible of degree {e} over F_{p}")  # unreachable


class FFElement:
    # the operators inline their type checks: these run millions of times
    # inside the exhaustive demos

    __slots__ = ("field", "code")

    def __init__(self, field: FiniteField, code: int):
        self.field = field
        self.code = code

    def _code_of(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field:
                raise RingMismatch("elements of different finite fields")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        code = (
            other.code
            if type(other) is FFElement and other.field is self.field
            else self._code_of(other)
        )
        if code is None:
            return NotImplemented
        return FFElement(self.field, self.field.add_table[self.code][code])

    __radd__ = __add__

    def __sub__(self, other):
        code = (
            other.code
            if type(other) is FFElement and other.field is self.field
            else self._code_of(other)
        )
        if code is None:
            return NotImplemented
        field = self.field
        return FFElement(field, field.add_table[self.code][field.neg_table[code]])

    def __rsub__(self, other):
        code = self._code_of(other)
        if code is None:
            return NotImplemented
        field = self.field
        return FFElement(field, field.add_table[code][field.neg_table[self.code]])

    def __neg__(self):
        return FFElement(self.field, self.field.neg_table[self.code])

    def __mul__(self, other):
        code = (
            other.code
            if type(other) is FFElement and other.field is self.field
            else self._code_of(other)
        )
        if code is None:
            return NotImplemented
        return FFElement(self.field, self.field.mul_table[self.code][code])

    __rmul__ = __mul__

    def __truediv__(self, other):
        # field division, so that the fraction-free elimination of `linalg`
        # runs over a finite field unchanged
        code = (
            other.code
            if type(other) is FFElement and other.field is self.field
            else self._code_of(other)
        )
        if code is None:
            return NotImplemented
        if not code:
            raise ZeroDivisionError(f"division by zero in {self.field.id}")
        field = self.field
        return FFElement(field, field.mul_table[self.code][field.inv_table[code]])

    __floordiv__ = __truediv__

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        # elements of another field are unequal, and an int k equals only the
        # element k * 1 for 0 <= k < p, the prime-subfield element hashing like k
        if type(other) is FFElement:
            return other.field is self.field and other.code == self.code
        if isinstance(other, int):
            return 0 <= other < self.field.p and other == self.code
        return NotImplemented

    def __hash__(self):
        # the codes 0 .. p-1 are the prime subfield
        code = self.code
        return code if code < self.field.p else hash((id(self.field), code))

    def __repr__(self):
        return f"{self.field.id}({self.code})"


class FiniteField(Ring):
    """F_{p^e} with table-driven arithmetic; use GF() to construct."""

    def __init__(self, p: int, e: int = 1):
        if p not in _PRIMES:
            raise ValueError(f"unsupported characteristic {p}")
        if not 1 <= e <= 3:
            raise ValueError("extension degree must be 1, 2 or 3")
        self.p = p
        self.e = e
        self.order = p**e
        self.id = f"F{self.order}"
        self._build_tables(_find_irreducible(p, e) if e > 1 else None)
        # ring values are their own numerators, over one
        self.zero = self.num_zero = FFElement(self, 0)
        self.one = self.num_one = FFElement(self, 1)

    def _decode(self, code: int) -> list[int]:
        digits = []
        for _ in range(self.e):
            code, d = divmod(code, self.p)
            digits.append(d)
        return digits

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d % self.p
        return code

    def _build_tables(self, mod):
        p, e, order = self.p, self.e, self.order
        self.add_table = [[0] * order for _ in range(order)]
        self.mul_table = [[0] * order for _ in range(order)]
        self.neg_table = [0] * order
        digits = [self._decode(c) for c in range(order)]
        for a in range(order):
            self.neg_table[a] = self._encode([-d for d in digits[a]])
            for b in range(order):
                s = [(x + y) % p for x, y in zip(digits[a], digits[b])]
                self.add_table[a][b] = self._encode(s)
                conv = [0] * (2 * e - 1)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        conv[i + j] += x * y
                if mod is not None:
                    # the remainder over Z by the monic integer mod, whose
                    # digits _encode then takes mod p
                    _, (conv, _) = divide_monic(QQ, conv, 1, mod, 1)
                self.mul_table[a][b] = self._encode(conv)
        self.inv_table = [None] * order
        for a in range(1, order):
            for b in range(1, order):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
                    break

    # ring interface and integral format: the coordinates over one ------

    def element(self, v) -> FFElement:
        if isinstance(v, FFElement):
            if v.field is not self:
                raise RingMismatch(f"{shown(v)} is not an element of {self.id}")
            return v
        if isinstance(v, int):
            return FFElement(self, v % self.p)
        if isinstance(v, (tuple, list)):
            if len(v) > self.e:
                raise ValueError("too many digits for this field")
            return FFElement(self, self._encode(list(v) + [0] * (self.e - len(v))))
        raise RingMismatch(f"cannot coerce {shown(v)} into {self.id}")

    def contains(self, a) -> bool:
        return isinstance(a, FFElement) and a.field is self

    def split(self, a):
        return a, self.num_one

    @staticmethod
    def value(num, den):
        return num / den

    def lowest(self, nums, den):
        # a vector in lowest terms is over one: multiply by 1 / den
        if den != self.num_one:
            inv = self.num_one / den
            nums = [v * inv for v in nums]
        return tuple(nums), self.num_one

    def common(self, dens):
        return self.num_one, [self.num_one] * len(dens)

    @staticmethod
    def primitive(nums) -> tuple:
        # a field has no content to divide out
        return tuple(nums)

    @staticmethod
    def in_ring(den) -> bool:
        return True

    @staticmethod
    def is_unit(num) -> bool:
        return bool(num)

    def elements(self):
        return [FFElement(self, c) for c in range(self.order)]

    def __repr__(self):
        return f"FiniteField({self.p}, {self.e})"


_FIELD_CACHE: dict[int, FiniteField] = {}


def GF(order: int) -> FiniteField:
    """The finite field with the given order (a supported prime power)."""
    if order not in _FIELD_CACHE:
        for p in _PRIMES:
            for e in (1, 2, 3):
                if p**e == order:
                    _FIELD_CACHE[order] = FiniteField(p, e)
                    break
            else:
                continue
            break
        else:
            raise ValueError(f"unsupported field order {order}")
    return _FIELD_CACHE[order]


# ---------------------------------------------------------------------------
# demo 1: squares in k[t]/(t^2) over characteristic-2 fields


@dataclass(frozen=True)
class Char2Report:
    field: str
    total: int
    squares_off_line: int
    image_size: int
    image_equals_line: bool
    primitive_squares: int

    @property
    def ok(self) -> bool:
        return self.squares_off_line == 0 and self.primitive_squares == 0


def char2_squares_report(field: FiniteField) -> Char2Report:
    """Enumerate all b in k[t]/(t^2) and locate the image of b -> b^2.

    Works with explicit coordinate pairs (b0, b1): the square is
    (b0^2, 2*b0*b1), a basis {1, b} exists iff the t-coordinate is
    nonzero, and the line k*1 is the set of pairs with zero t-coordinate.
    """
    if field.p != 2:
        raise ValueError("this demo needs a characteristic-2 field")
    elems = field.elements()
    two = field.element(2)
    off_line = 0
    image = set()
    for b0 in elems:
        for b1 in elems:
            sq0, sq1 = b0 * b0, two * b0 * b1
            image.add((sq0.code, sq1.code))
            if sq1:
                off_line += 1
    line = {(a.code, 0) for a in elems}
    # an element of k[t]/(t^2) is primitive iff its t-coordinate is nonzero,
    # so the squares off the line are exactly the primitive squares
    return Char2Report(
        field=field.id,
        total=field.order**2,
        squares_off_line=off_line,
        image_size=len(image),
        image_equals_line=image == line,
        primitive_squares=off_line,
    )


# ---------------------------------------------------------------------------
# demo 2: vanishing top coordinates in k[t]/(t^3 - 1) over characteristic 3


@dataclass(frozen=True)
class Char3Report:
    field: str
    total: int
    units: int
    qualifying: int
    violations: int

    @property
    def ok(self) -> bool:
        return self.qualifying > 0 and self.violations == 0


def char3_vanishing_report(field: FiniteField) -> Char3Report:
    """Check, for every unit b with c*b^2 primitive, that the top
    coordinate of x*b^(-1) in the power basis of c*b^2 vanishes, where
    c = x = class of t in k[t]/(t^3 - 1)."""
    if field.p != 3:
        raise ValueError("this demo needs a characteristic-3 field")
    modulus = Poly(field, [field.element(-1), field.zero, field.zero, field.one])
    ext = SimpleExtension(field, modulus)
    c = ext.gen()
    x = c
    elems = field.elements()
    units = 0
    qualifying = 0
    violations = 0
    for b0 in elems:
        for b1 in elems:
            for b2 in elems:
                b = ext.element((b0, b1, b2))
                if not b.is_invertible():
                    continue
                units += 1
                try:
                    # one elimination of the power matrix of c*b^2 decides
                    # primitivity and solves
                    top = (x * b.inverse()).coords_in(c * b * b)[-1]
                except NotPrimitive:
                    continue
                qualifying += 1
                if top:
                    violations += 1
    return Char3Report(
        field=field.id,
        total=field.order**3,
        units=units,
        qualifying=qualifying,
        violations=violations,
    )
