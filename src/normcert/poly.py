"""Dense univariate polynomials over a coefficient ring.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial is the empty tuple (degree -1 by convention, which keeps
division free of special cases).  Division is only ever needed by a monic
divisor, where it is exact over any ring.

Over Q a polynomial is held as integer numerators over one positive
denominator that shares no factor with all of them, and `coeffs` builds the
Fractions on first use; `int_form` and `from_ints` are its integer view.
Extension elements over Q share this format, and the functions below that
build it (`lowest_terms`, `int_sum`, and `convolve` on every ring) serve
both.  Sums, differences, negation, products, scalar multiples,
shifts, division by a monic divisor, `==`/`hash` and evaluation run on
those integers: a division keeps its remainder over a denominator that
grows by the divisor's denominator per quotient term and normalizes once at
the end, and evaluation is Horner on the integer numerators with one
multiplication by 1/denominator at the end.  Over every other ring the
arithmetic runs coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotInvertible
from .linalg import clear_denominators
from .rings import QQ

_set = object.__setattr__


def lowest_terms(nums, den: int) -> tuple[tuple, int]:
    """nums / den over a positive denominator sharing no factor with all of
    the numerators, for any nonzero den."""
    # one multi-gcd: each step runs against the shrinking common factor,
    # and math.gcd stops taking gcds once that factor is 1
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        return tuple(v // g for v in nums), den // g
    return tuple(nums), den


def int_sum(a, da: int, b, db: int) -> tuple[tuple, int]:
    """a / da + b / db in lowest terms, the shorter padded with zeros."""
    if len(a) < len(b):
        a, da, b, db = b, db, a, da
    if da == db:
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return lowest_terms(out, da)
    out = [v * db for v in a]
    for i, v in enumerate(b):
        out[i] += v * da
    return lowest_terms(out, da * db)


def int_scale(nums, den: int, s) -> tuple[tuple, int]:
    """nums / den times the rational s in lowest terms."""
    if not isinstance(s, (int, Fraction)):
        s = QQ.element(s)
    num = s.numerator
    return lowest_terms([v * num for v in nums], den * s.denominator)


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


class Poly:
    __slots__ = ("ring", "_coeffs", "_nums", "_den")

    def __init__(self, ring, coeffs):
        cs = _trimmed([ring.element(c) for c in coeffs])
        _set(self, "ring", ring)
        _set(self, "_coeffs", tuple(cs))
        if ring.id == QQ.id:
            # each Fraction is in lowest terms, so over the lcm of the
            # denominators the numerators share no factor with it
            nums, den = clear_denominators(cs)
            _set(self, "_nums", tuple(nums))
            _set(self, "_den", den)
        else:
            _set(self, "_nums", None)
            _set(self, "_den", 1)

    @classmethod
    def _of_ints(cls, nums, den: int) -> Poly:
        """nums / den over Q, for a tuple nums already in lowest terms
        against den > 0."""
        nums = _trimmed(nums)
        self = object.__new__(cls)
        _set(self, "ring", QQ)
        _set(self, "_coeffs", None)
        _set(self, "_nums", nums)
        # lowest terms of zero over any den are zero over 1
        _set(self, "_den", den if nums else 1)
        return self

    @classmethod
    def from_ints(cls, nums, den: int = 1) -> Poly:
        """The polynomial over Q with coefficients nums[i] / den, for
        integers nums and a nonzero integer den."""
        return cls._of_ints(*lowest_terms(nums, den))

    @property
    def int_form(self) -> tuple[tuple, int]:
        """Over Q, the integer numerators (no trailing zero) and the positive
        denominator sharing no factor with all of them."""
        return self._nums, self._den

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            den = self._den
            _set(self, "_coeffs", tuple(Fraction(v, den) for v in self._nums))
        return self._coeffs

    @staticmethod
    def zero(ring) -> Poly:
        return Poly(ring, ())

    @staticmethod
    def one(ring) -> Poly:
        return Poly(ring, (ring.one,))

    @property
    def degree(self) -> int:
        return len(self.coeffs if self._nums is None else self._nums) - 1

    @property
    def leading(self):
        if self._nums is not None:
            return Fraction(self._nums[-1], self._den) if self._nums else QQ.zero
        return self.coeffs[-1] if self.coeffs else self.ring.zero

    @property
    def constant_term(self):
        if self._nums is not None:
            return Fraction(self._nums[0], self._den) if self._nums else QQ.zero
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def is_monic(self) -> bool:
        if self._nums is not None:
            return bool(self._nums) and self._nums[-1] == self._den
        return bool(self.coeffs) and self.leading == self.ring.one

    def __bool__(self):
        return bool(self.coeffs if self._nums is None else self._nums)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring.id != other.ring.id:
            return False
        if self._nums is None:
            return self.coeffs == other.coeffs
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        if self._nums is None:
            return hash((self.ring.id, self.coeffs))
        return hash((self.ring.id, self._den, self._nums))

    def __add__(self, other: Poly) -> Poly:
        if self._nums is None:
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return Poly(self.ring, out)
        return Poly._of_ints(*int_sum(self._nums, self._den, other._nums, other._den))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        if self._nums is None:
            return Poly(self.ring, tuple(-c for c in self.coeffs))
        return Poly._of_ints(tuple(-v for v in self._nums), self._den)

    def __mul__(self, other: Poly) -> Poly:
        if self._nums is None:
            return Poly(self.ring, convolve(self.coeffs, other.coeffs, self.ring.zero))
        return Poly.from_ints(convolve(self._nums, other._nums, 0), self._den * other._den)

    def scale(self, s) -> Poly:
        if self._nums is None:
            return Poly(self.ring, tuple(c * s for c in self.coeffs))
        return Poly._of_ints(*int_scale(self._nums, self._den, s))

    def shift(self, k: int) -> Poly:
        """Multiply by t^k."""
        if not self:
            return self
        if self._nums is None:
            return Poly(self.ring, (self.ring.zero,) * k + self.coeffs)
        return Poly._of_ints((0,) * k + self._nums, self._den)

    def __call__(self, v):
        """Evaluate at v (a ring element, or anything with +/* and scalars)."""
        if not self:
            return self.ring.zero
        if self._nums is None:
            acc = self.coeffs[-1]
            for c in reversed(self.coeffs[:-1]):
                acc = acc * v + c
            return acc
        nums, den = self._nums, self._den
        if len(nums) == 1:
            return self.coeffs[0]
        acc = nums[-1]
        for c in reversed(nums[:-1]):
            acc = acc * v + c
        return acc if den == 1 else acc * Fraction(1, den)

    def __divmod__(self, divisor: Poly):
        """Exact division by a monic divisor: self = divisor*q + r, deg r < deg divisor."""
        if not divisor.is_monic():
            raise NotInvertible("division requires a monic divisor")
        d = divisor.degree
        if self.degree < d:
            return Poly.zero(self.ring), self
        if self._nums is not None:
            return _int_divmod(self._nums, self._den, divisor._nums, divisor._den)
        rem = list(self.coeffs)
        quo = [self.ring.zero] * (len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if not c:
                continue
            quo[k - d] = c
            for i in range(d + 1):
                rem[k - d + i] = rem[k - d + i] - c * divisor.coeffs[i]
        return Poly(self.ring, quo), Poly(self.ring, rem)

    def __mod__(self, divisor: Poly) -> Poly:
        return divmod(self, divisor)[1]

    def map_coefficients(self, fn, new_ring) -> Poly:
        return Poly(new_ring, tuple(fn(c) for c in self.coeffs))

    def __repr__(self):
        if not self:
            return "Poly<0>"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == self.ring.one else f"{c}*"
                terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return f"Poly<{' + '.join(terms)}>"


def _int_divmod(a, da: int, b, db: int):
    """Quotient and remainder of a / da by the monic b / db (so b[-1] == db)
    over Q, for len(a) >= len(b)."""
    d = len(b) - 1
    rem = list(a)
    quo = []
    # before the step that clears rem[k], the remainder is rem / (da * db^s)
    # after s steps; taking c / (da * db^s) times t^(k-d) * b / db off it
    # leaves (rem * db - c * t^(k-d) * b) / (da * db^(s+1))
    for k in range(len(a) - 1, d - 1, -1):
        c = rem[k]
        quo.append(c)
        if db != 1:
            for i in range(k):
                rem[i] *= db
        if c:
            j = k - d
            for i in range(d):
                rem[j + i] -= c * b[i]
    # the quotient term of t^j was found at step s = m-1-j, over da * db^s;
    # over da * db^(m-1) its numerator is c * db^j
    quo.reverse()
    m = len(quo)
    if db != 1:
        power = 1
        for j in range(1, m):
            power *= db
            quo[j] *= power
    top = da * db ** (m - 1)
    return Poly.from_ints(quo, top), Poly.from_ints(rem[:d], top * db)
