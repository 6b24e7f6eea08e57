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
multiply by the inverse of the denominator.  The ring object is its
integral format (`rings.Ring`): `ring.lowest`, `ring.common`,
`ring.split`, `ring.value`, `ring.in_ring`, `ring.is_unit` and the
numerator zero and one `ring.num_zero` and `ring.num_one`, read through
the `ring` attribute that polynomials, extensions and forms carry.  Python
ints keep their native operators, and over Q every result takes one
multi-gcd.  Ring values come in through `cleared` alone (each value
coerced and split once, a common denominator, one normalization), which
the public constructors of polynomials, extension elements and forms
share; none of them keeps ring values.

Every operation has one body for every ring.  Products (`convolve`),
scalar multiples (a product, then `lowest`) and `==`/`hash` run on the
numerators.  A division keeps its remainder over a denominator that grows
by the divisor's denominator per quotient term and normalizes once at the
end.  `integral` is a
polynomial's numerators and denominator, and `from_integral` builds one
from them.
"""

from __future__ import annotations

from .errors import CoordinateNotIntegral, NotInvertible
from .rings import shown

_set = object.__setattr__


def cleared(ring, values) -> tuple[tuple, object]:
    """Values coerced into `ring` as numerators over one denominator in
    lowest terms in its integral format: each coerced and split into
    numerator and denominator once, put over a common denominator, and
    normalized once."""
    pairs = [ring.split(ring.element(v)) for v in values]
    den, quos = ring.common([d for _, d in pairs])
    return ring.lowest([num * k for (num, _), k in zip(pairs, quos)], den)


def over_common_denominator(ring, vectors):
    """Numerator vectors (nums, den) in the integral format of `ring`,
    rewritten over one common denominator D: the list of nums * (D / den),
    and D."""
    den, quos = ring.common([d for _, d in vectors])
    one = ring.num_one
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


def _poly(ring, nums, den, self=None) -> Poly:
    """The polynomial nums / den over `ring` (built into `self` when
    given), for nums in lowest terms against den in the integral format of
    that ring."""
    nums = tuple(_trimmed(nums))
    if self is None:
        self = object.__new__(Poly)
    _set(self, "ring", ring)
    _set(self, "_nums", nums)
    # lowest terms of zero over any den are zero over one
    _set(self, "_den", den if nums else ring.num_one)
    return self


class Poly:
    __slots__ = ("ring", "_nums", "_den")

    def __init__(self, ring, coeffs):
        _poly(ring, *cleared(ring, coeffs), self)

    @classmethod
    def from_integral(cls, ring, nums, den) -> Poly:
        """The polynomial over `ring` with coefficients nums[i] / den, for
        numerators and a nonzero denominator of the ring's integral format;
        CoordinateNotIntegral when a coefficient leaves the ring."""
        nums, den = ring.lowest(nums, den)
        if not ring.in_ring(den):
            raise CoordinateNotIntegral("a coefficient left the coefficient ring")
        return _poly(ring, nums, den)

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
        return self.ring.value(self._nums[-1], self._den) if self._nums else self.ring.zero

    @property
    def constant_term(self):
        return self.ring.value(self._nums[0], self._den) if self._nums else self.ring.zero

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
        ring = self.ring
        return _poly(ring, *ring.lowest(
            convolve(self._nums, other._nums, ring.num_zero), self._den * other._den))

    def scale(self, s) -> Poly:
        ring = self.ring
        num, den = ring.split(ring.element(s))
        return _poly(ring, *ring.lowest([v * num for v in self._nums], self._den * den))

    def __divmod__(self, divisor: Poly):
        """Exact division by a monic divisor: self = divisor*q + r, deg r < deg divisor."""
        if not divisor.is_monic():
            raise NotInvertible("division requires a monic divisor")
        ring = self.ring
        a, da = self._nums, self._den
        b, db = divisor._nums, divisor._den
        d = len(b) - 1
        if len(a) <= d:
            return _poly(ring, (), ring.num_one), self
        scaled = db != ring.num_one
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
        power = ring.num_one
        if scaled:
            for j in range(1, len(quo)):
                power *= db
                quo[j] *= power
        top = da * power
        return (_poly(ring, *ring.lowest(quo, top)),
                _poly(ring, *ring.lowest(rem[:d], top * db)))

    def __repr__(self):
        if not self:
            return "Poly<0>"
        terms = []
        for i, c in enumerate(self.ring.values(self._nums, self._den)):
            if not c:
                continue
            if i == 0:
                terms.append(shown(c))
            else:
                head = "" if c == self.ring.one else f"{shown(c)}*"
                terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return f"Poly<{' + '.join(terms)}>"
