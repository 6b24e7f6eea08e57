"""Dense univariate polynomials over a coefficient ring, and the integral
format that polynomials and extension elements share.

Coefficients are ascending by degree with no trailing zeros; the zero
polynomial has none (degree -1 by convention, which keeps division free of
special cases).  Division is only ever needed by a monic divisor, where it
is exact over any ring.

A polynomial is held in the integral format of its ring: numerators over
one denominator that shares no factor with all of them.  Over Q those are
integers over a positive integer.  Over Q[x]_(x) they are integer
polynomials (`ZX`) over one integer polynomial d with d(0) != 0 and a
positive leading coefficient, and no integer content and no polynomial
factor is common to d and all the numerators.  Over a small finite field
they are the coefficients themselves over the field's one: lowest terms
multiply by the inverse of the denominator.  A format record per ring
(`_Rationals`, `_LocalFunctions`, `_FiniteFieldFormat`, found by
`integral_format`) holds zero and one, normalization (`lowest`), scalar
multiples (which only `Poly.scale` takes), a common denominator of
several (`common`, which takes no gcd over Z[x]), numerators divided by
their joint integer content (`primitive`), splitting a ring scalar
(`split`), building ring values back (`values`, which only
`coords_in` and the reprs take), and the ring tests of a vector in
lowest terms: that its denominator keeps it in the ring (`in_ring`) and
that an entry is a unit (`is_unit`); `extension` and `qform` hold their
elements and diagonals in the same records.  Python ints keep their
native operators, and over Q every result takes one multi-gcd.
Ring values come in through `cleared` alone (split, common denominator,
one normalization), which the public constructors of polynomials,
extension elements and forms share; none of them keeps ring values.

Every operation has one body for every ring.  Products (`convolve`),
scalar multiples and `==`/`hash` run on the numerators.  A division keeps
its remainder over a denominator that grows by the divisor's denominator
per quotient term and normalizes once at the end.  `integral` is a
polynomial's numerators and denominator, and `from_integral` builds one
from them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CoordinateNotIntegral, NotInvertible
from .rings import (
    QQ, QQ_LOCAL_X, ZX, ZX_ONE, RatFunc, shown, zx_common, zx_lowest_terms, zx_scale,
)

_set = object.__setattr__


class _Rationals:
    """The integral format over Q: integer numerators over one positive
    integer denominator."""

    zero, one = 0, 1
    value = Fraction

    @staticmethod
    def lowest(nums, den: int) -> tuple[tuple, int]:
        """nums / den over a positive denominator sharing no factor with all
        of the numerators, for any nonzero den."""
        # one multi-gcd: each step runs against the shrinking common factor,
        # and math.gcd stops taking gcds once that factor is 1
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            return tuple(v // g for v in nums), den // g
        return tuple(nums), den

    @staticmethod
    def scale(nums, den, s_num, s_den):
        return _Rationals.lowest([v * s_num for v in nums], den * s_den)

    @staticmethod
    def split(s):
        if not isinstance(s, (int, Fraction)):
            s = QQ.element(s)
        return s.numerator, s.denominator

    @staticmethod
    def common(dens):
        den = lcm(*dens)
        return den, [den // d for d in dens]

    @staticmethod
    def values(nums, den):
        return [Fraction(v, den) for v in nums]

    @staticmethod
    def primitive(nums) -> tuple:
        """nums divided by their joint content, the gcd of the ints."""
        g = gcd(*nums)
        return tuple(v // g for v in nums) if g > 1 else tuple(nums)

    @staticmethod
    def in_ring(den):
        return True

    @staticmethod
    def is_unit(num) -> bool:
        return num != 0


class _LocalFunctions:
    """The integral format over Q[x]_(x): Z[x] numerators over one Z[x]
    denominator d with d(0) != 0."""

    zero, one = ZX(), ZX_ONE
    lowest = staticmethod(zx_lowest_terms)
    scale = staticmethod(zx_scale)
    value = staticmethod(RatFunc.from_zx)
    common = staticmethod(zx_common)

    @staticmethod
    def split(s):
        s = QQ_LOCAL_X.element(s)
        return s.numerator, s.denominator

    @staticmethod
    def values(nums, den):
        out = [RatFunc.from_zx(v, den) for v in nums]
        if not all(v.is_defined_at_zero() for v in out):
            raise CoordinateNotIntegral("a coordinate left the local ring")
        return out

    @staticmethod
    def primitive(nums) -> tuple:
        """nums divided by their joint content, the gcd of all their
        integer coefficients."""
        g = gcd(*[c for v in nums for c in v.c])
        return tuple(ZX(tuple([c // g for c in v.c])) for v in nums) if g > 1 else tuple(nums)

    @staticmethod
    def in_ring(den):
        # of a vector in lowest terms: a pole at 0 is a root of den
        return den.c[0] != 0

    @staticmethod
    def is_unit(num) -> bool:
        # over a den with den(0) != 0: a unit is nonzero at 0
        return bool(num) and num.c[0] != 0


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

    def scale(self, nums, den, s_num, s_den):
        return self.lowest([v * s_num for v in nums], den * s_den)

    def split(self, s):
        return self.field.element(s), self.one

    @staticmethod
    def value(num, den):
        return num / den

    def common(self, dens):
        # a vector in lowest terms is over one
        return self.one, [self.one] * len(dens)

    def values(self, nums, den):
        return list(self.lowest(nums, den)[0])

    @staticmethod
    def primitive(nums) -> tuple:
        # a field has no content to divide out
        return tuple(nums)

    @staticmethod
    def in_ring(den):
        return True

    @staticmethod
    def is_unit(num) -> bool:
        return bool(num)


# the format records of Q and Q[x]_(x); a finite field gets its own, built
# once from the field object and kept on it, since two FiniteField(p, e)
# objects share an id
_FORMATS = {QQ.id: _Rationals, QQ_LOCAL_X.id: _LocalFunctions}


def integral_format(ring):
    """The integral format record of `ring`."""
    fmt = _FORMATS.get(ring.id) or getattr(ring, "_integral_format", None)
    if fmt is None:
        fmt = ring._integral_format = _FiniteFieldFormat(ring)
    return fmt


def cleared(fmt, values) -> tuple[tuple, object]:
    """Ring values as numerators over one denominator in lowest terms in
    the format `fmt`: each split into numerator and denominator, put over
    a common denominator, and normalized once."""
    pairs = [fmt.split(v) for v in values]
    den, quos = fmt.common([d for _, d in pairs])
    return fmt.lowest([num * k for (num, _), k in zip(pairs, quos)], den)


def over_common_denominator(fmt, vectors):
    """Numerator vectors (nums, den) of the format `fmt`, rewritten over one
    common denominator D: the list of nums * (D / den), and D."""
    den, quos = fmt.common([d for _, d in vectors])
    one = fmt.one
    return [nums if k == one else tuple([v * k for v in nums])
            for (nums, _), k in zip(vectors, quos)], den


def convolve(a, b, zero) -> list:
    """The coefficients of the product of the coefficient lists a and b."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return out


def _trimmed(cs) -> list:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _poly(ring, fmt, nums, den, self=None) -> Poly:
    """The polynomial nums / den over `ring` (built into `self` when
    given), for nums in lowest terms against den in the format `fmt` of
    that ring."""
    nums = tuple(_trimmed(nums))
    if self is None:
        self = object.__new__(Poly)
    _set(self, "ring", ring)
    _set(self, "_fmt", fmt)
    _set(self, "_nums", nums)
    # lowest terms of zero over any den are zero over one
    _set(self, "_den", den if nums else fmt.one)
    return self


class Poly:
    __slots__ = ("ring", "_fmt", "_nums", "_den")

    def __init__(self, ring, coeffs):
        fmt = integral_format(ring)
        _poly(ring, fmt, *cleared(fmt, [ring.element(c) for c in coeffs]), self)

    @classmethod
    def from_integral(cls, ring, nums, den) -> Poly:
        """The polynomial over `ring` with coefficients nums[i] / den, for
        numerators and a nonzero denominator of the ring's integral format;
        CoordinateNotIntegral when a coefficient leaves the ring."""
        fmt = integral_format(ring)
        nums, den = fmt.lowest(nums, den)
        if not fmt.in_ring(den):
            raise CoordinateNotIntegral("a coefficient left the coefficient ring")
        return _poly(ring, fmt, nums, den)

    @property
    def integral(self) -> tuple:
        """The numerators (no trailing zero) and the denominator, in lowest
        terms in the integral format of the ring."""
        return self._nums, self._den

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def leading(self):
        return self._fmt.value(self._nums[-1], self._den) if self._nums else self.ring.zero

    @property
    def constant_term(self):
        return self._fmt.value(self._nums[0], self._den) if self._nums else self.ring.zero

    def is_monic(self) -> bool:
        return bool(self._nums) and self._nums[-1] == self._den

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring.id != other.ring.id:
            return False
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.ring.id, self._den, self._nums))

    def __mul__(self, other: Poly) -> Poly:
        fmt = self._fmt
        return _poly(self.ring, fmt, *fmt.lowest(
            convolve(self._nums, other._nums, fmt.zero), self._den * other._den))

    def scale(self, s) -> Poly:
        fmt = self._fmt
        return _poly(self.ring, fmt, *fmt.scale(self._nums, self._den, *fmt.split(s)))

    def __divmod__(self, divisor: Poly):
        """Exact division by a monic divisor: self = divisor*q + r, deg r < deg divisor."""
        if not divisor.is_monic():
            raise NotInvertible("division requires a monic divisor")
        ring, fmt = self.ring, self._fmt
        a, da = self._nums, self._den
        b, db = divisor._nums, divisor._den
        d = len(b) - 1
        if len(a) <= d:
            return _poly(ring, fmt, (), fmt.one), self
        scaled = db != fmt.one
        rem = list(a)
        quo = []
        # b[-1] == db; before the step that clears rem[k], the remainder is
        # rem / (da * db^s) after s steps, and taking c / (da * db^s) times
        # t^(k-d) * b / db off it leaves (rem * db - c * t^(k-d) * b) / (da * db^(s+1))
        for k in range(len(a) - 1, d - 1, -1):
            c = rem[k]
            quo.append(c)
            if scaled:
                for i in range(k):
                    rem[i] *= db
            if c:
                j = k - d
                for i in range(d):
                    rem[j + i] -= c * b[i]
        # the quotient term of t^j was found at step s = m-1-j, over
        # da * db^s; over da * db^(m-1) its numerator is c * db^j
        quo.reverse()
        power = fmt.one
        if scaled:
            for j in range(1, len(quo)):
                power *= db
                quo[j] *= power
        top = da * power
        return (_poly(ring, fmt, *fmt.lowest(quo, top)),
                _poly(ring, fmt, *fmt.lowest(rem[:d], top * db)))

    def __repr__(self):
        if not self:
            return "Poly<0>"
        terms = []
        for i, c in enumerate(self._fmt.values(self._nums, self._den)):
            if not c:
                continue
            if i == 0:
                terms.append(shown(c))
            else:
                head = "" if c == self.ring.one else f"{shown(c)}*"
                terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return f"Poly<{' + '.join(terms)}>"
