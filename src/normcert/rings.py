"""Exact arithmetic for the two supported coefficient rings.

Each ring is one object, and that object is also the ring's integral
format (see `poly`), so everything downstream (polynomials, extensions,
forms, searches) is generic over one interface:

* ``RationalField`` -- the field Q.  Elements are plain
  ``fractions.Fraction`` values (already canonical: reduced, positive
  denominator), and the integral format is integers over one positive
  integer.

* ``LocalRationalFunctions`` -- rational functions in x that are defined
  at x = 0, i.e. quotients num/den of polynomials over Q with den(0) != 0,
  and the integral format is integer polynomials over one integer
  polynomial.  This is a local ring: a is a unit iff a(0) != 0.  Nothing
  downstream reduces modulo the maximal ideal, since the general-position
  search tests its samples over the ring itself.

A ring object holds its ring values ``zero`` and ``one`` and coerces into
the ring (``element``, ``contains``); it holds its numerator zero and one
(``num_zero``, ``num_one``) and the format's operations: lowest terms
(``lowest``), a common denominator of several (``common``), numerators
divided by their joint integer content (``primitive``), a ring value
split into numerator and denominator (``split``) and built back
(``value``), a denominator that keeps a vector in lowest terms in the
ring (``in_ring``) and the ring's one unit test, of a numerator over such
a denominator (``is_unit``).  The base ``Ring`` derives the rest from
those, once for every ring: ``check``, ``is_invertible`` and ``invert``
of a ring value, and ``values``, a vector's ring values.

Elements of the second ring are ``RatFunc`` values.  A ``RatFunc`` holds
integer polynomials N(x)/D(x) in lowest terms: no factor, integer
content included, is common to N and D, and D has a positive leading
coefficient.  That representation is unique, it is the one-entry case of
the integral format below, and every operation runs in integer polynomial
arithmetic with gcd work confined to cross cancellations.  Polynomial gcds
come with their cofactors from the heuristic gcd GCDHEU (Char, Geddes and
Gonnet 1989): evaluate both inputs at one large integer, take the integer
gcd, read a candidate back off its balanced base-xi digits and accept it
when it divides both inputs exactly; those two divisions are the cofactors,
so no caller divides again.  The coprime case costs two evaluations and one
integer gcd.  When six evaluation points all fail, the primitive
pseudo-remainder sequence decides: Euclid on pseudo-remainders with the
integer content divided out of each, which keeps the coefficients near
the size of the subresultants (naive Euclid over Q explodes), then the
cofactors by exact division.
In a product of integer polynomials a constant operand only scales the
other.

``ZX`` wraps an integer polynomial as an immutable value with ``+ - *``,
exact ``//`` (an inexact division raises InternalAssertion) and ``bool``,
and Python ints mix in as constants; any other operand gets
NotImplemented, so a product with a ``RatFunc`` or an extension element is
theirs to take.  Polynomials and extension elements over Q[x]_(x) are
``ZX`` numerators over one ``ZX`` denominator; ``zx_lowest_terms``,
``zx_sum`` and ``zx_scale`` build that format (one gcd chain through
``_zgcd`` that stops at the first constant gcd, then the integer
content), and ``RatFunc`` arithmetic runs on them with one entry.
``zx_common`` puts several denominators over one by exact divisions, with
no gcd.

``RatFunc`` covers all of Q(x); a quotient may leave the local ring, and
membership is re-checked wherever it matters.  The two ring objects are
singletons, ``QQ`` and ``QQ_LOCAL_X``.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import CoordinateNotIntegral, InternalAssertion, NotInvertible, RingMismatch

# ---------------------------------------------------------------------------
# integer polynomials: coefficient tuples, ascending degree, no trailing
# zeros, () is zero

_ONE_POLY = (1,)


def _ztrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _zmul(a, b):
    if not a or not b:
        return ()
    # a constant operand (most often the denominator 1) only scales the other
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        k = b[0]
        return tuple(a) if k == 1 else tuple([k * v for v in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _zsplit(cs):
    """(c, P) with P primitive of positive leading coefficient and cs = c*P."""
    if not cs:
        return 0, ()
    content = gcd(*cs)
    if cs[-1] < 0:
        content = -content
    if content == 1:
        return 1, tuple(cs)
    return content, tuple(v // content for v in cs)


def _zdivides(g, a):
    """Quotient of a by g in Z[x], or None when the division is not exact."""
    if len(g) > len(a):
        return None
    rem = list(a)
    dg = len(g) - 1
    lcg = g[-1]
    quo = [0] * (len(rem) - dg)
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            q, leftover = divmod(c, lcg)
            if leftover:
                return None
            quo[k - dg] = q
            for i in range(dg + 1):
                rem[k - dg + i] -= q * g[i]
    if any(rem):
        return None
    return tuple(quo)


def _zgcd_prs(a, b):
    """(g, a/g, b/g) for primitive a, b of degree >= 1, by the primitive
    pseudo-remainder sequence: each pseudo-remainder has its content divided
    out, which keeps it no larger than the subresultant it is similar to,
    and the cofactors are the exact quotients by the gcd."""
    f, g = (a, b) if len(a) >= len(b) else (b, a)
    while len(g) > 1:
        # lc(g)^(deg f - deg g + 1) * f reduced by g
        r, dg, lc = list(f), len(g) - 1, g[-1]
        for k in range(len(r) - 1, dg - 1, -1):
            c = r.pop()
            r = [v * lc for v in r]
            if c:
                for i in range(dg):
                    r[k - dg + i] -= c * g[i]
        f, g = g, _zsplit(_ztrim(r))[1]
    if g:
        # a nonzero constant remainder: the inputs are coprime
        return _ONE_POLY, a, b
    return f, _zdivides(f, a), _zdivides(f, b)


_HEU_POINTS = 6


def _zgcd_heuristic(a, b):
    """(g, a/g, b/g) for primitive a, b of degree >= 1 by GCDHEU, or None.

    The evaluation point xi starts at 2*min(|a|, |b|) + 29 (max norms), past
    the bound under which a primitive candidate that divides both inputs is
    their gcd, and each failed point multiplies it by about 2.73*xi^(1/4), as
    in Liao and Fateman (1995).
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_POINTS):
        va = vb = 0
        for c in reversed(a):
            va = va * xi + c
        for c in reversed(b):
            vb = vb * xi + c
        if va and vb:
            h = gcd(va, vb)
            half = xi // 2
            if h <= half:
                # a one-digit candidate: a constant, whose primitive part is 1
                return _ONE_POLY, a, b
            # the base-xi digits of h in (-xi/2, xi/2] are the candidate
            digits = []
            while h:
                digit = h % xi
                if digit > half:
                    digit -= xi
                digits.append(digit)
                h = (h - digit) // xi
            candidate = _zsplit(digits)[1]
            qa = _zdivides(candidate, a)
            if qa is not None:
                qb = _zdivides(candidate, b)
                if qb is not None:
                    return candidate, qa, qb
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _zgcd(a, b):
    """(g, a/g, b/g): the primitive gcd with positive leading coefficient and
    the two exact cofactors (so g * (a/g) == a, content and sign included).

    GCDHEU decides almost every pair; the primitive PRS takes the rest.
    """
    if len(a) == 1 or len(b) == 1:
        return _ONE_POLY, a, b
    ca, pa = _zsplit(a)
    cb, pb = _zsplit(b)
    if not pa or not pb or pa == pb:
        # gcd(0, b) is pp(b), and the cofactor of the zero polynomial is 0
        return pa or pb, ((ca,) if pa else ()), ((cb,) if pb else ())
    g, qa, qb = _zgcd_heuristic(pa, pb) or _zgcd_prs(pa, pb)
    if ca != 1:
        qa = tuple(ca * c for c in qa)
    if cb != 1:
        qb = tuple(cb * c for c in qb)
    return g, qa, qb


class ZX:
    """An integer polynomial as an immutable ring value: `c` holds the
    coefficients (ascending, no trailing zero, () for zero).  It has
    `+ - *`, exact `//` and `bool`, and a Python int on either side is a
    constant polynomial, so the integer Bareiss elimination and the product
    loops of `extension` run on it unchanged."""

    __slots__ = ("c",)

    def __init__(self, c=()):
        self.c = c

    def __add__(self, other):
        a, b = self.c, other.c if other.__class__ is ZX else _zoperand(other)
        if b is None:
            return NotImplemented
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return ZX(a)
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return ZX(_ztrim(out) if len(a) == len(b) else tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return ZX(tuple([-v for v in self.c]))

    def __sub__(self, other):
        b = other.c if other.__class__ is ZX else _zoperand(other)
        if b is None:
            return NotImplemented
        return self + ZX(tuple([-v for v in b]))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = other.c if other.__class__ is ZX else _zoperand(other)
        if b is None:
            return NotImplemented
        return ZX(_zmul(self.c, b))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """The exact quotient; a division that leaves a remainder is a bug."""
        g = other.c if other.__class__ is ZX else _zoperand(other)
        if g is None:
            return NotImplemented
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        if g == _ONE_POLY or not self.c:
            return self
        quo = _zdivides(g, self.c)
        if quo is None:
            raise InternalAssertion("inexact division in Z[x]")
        return ZX(quo)

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if other.__class__ is ZX:
            return self.c == other.c
        if isinstance(other, int):
            return self.c == _zconst(other)
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the int it equals
        c = self.c
        return hash(c if len(c) > 1 else c[0] if c else 0)

    def __repr__(self):
        return f"ZX({_zstr(self.c)})"


def _zconst(k: int):
    return (k,) if k else ()


def _zoperand(v):
    """The coefficients of an int operand of ZX arithmetic, None for any
    other type."""
    return _zconst(v) if isinstance(v, int) else None


ZX_ONE = ZX(_ONE_POLY)


def zx_lowest_terms(nums, den: ZX) -> tuple[tuple, ZX]:
    """nums / den over a denominator of positive leading coefficient that
    shares no factor, integer content included, with all the numerators."""
    return _zx_content(*_zx_cancel(nums, den))


def _zx_cancel(nums, den: ZX, within: ZX | None = None):
    """nums / den with the polynomial factors common to den and all the
    numerators cancelled (integer content is left alone).  A caller that
    knows a divisor of den that every such factor divides passes it as
    `within`."""
    # one gcd chain over the primitive parts; it stops at the first
    # constant gcd, which a constant denominator already is.  Each entry
    # seen is kept as its cofactor q with entry = q * g, so a shrinking g
    # costs products, never divisions
    g = (den if within is None else within).c
    quos = None
    for i, v in enumerate(nums):
        if len(g) == 1:
            return nums, den
        if v.c:
            g, shrink, quo = _zgcd(g, v.c)
            if quos is None:
                # the first gcd is taken against den (or `within`) itself
                quos, qden = [()] * len(nums), shrink
            elif shrink != _ONE_POLY:
                quos = [_zmul(q, shrink) for q in quos]
                qden = _zmul(qden, shrink)
            quos[i] = quo
    if quos is None:
        # every numerator is zero
        return nums, ZX_ONE
    if len(g) == 1:
        return nums, den
    # every entry has been seen, and g divides them all
    return [ZX(q) for q in quos], ZX(qden) if within is None else den // ZX(g)


def _zx_content(nums, den: ZX) -> tuple[tuple, ZX]:
    """nums / den with the integer content common to all of them divided
    out, and den of positive leading coefficient."""
    k = gcd(*den.c)
    for v in nums:
        if k == 1:
            break
        k = gcd(k, *v.c)
    if den.c[-1] < 0:
        k = -k
    if k != 1:
        nums = [ZX(tuple([c // k for c in v.c])) for v in nums]
        den = ZX(tuple([c // k for c in den.c]))
    return tuple(nums), den


def zx_scale(nums, den: ZX, s_num: ZX, s_den: ZX) -> tuple[tuple, ZX]:
    """nums / den times s_num / s_den in lowest terms, for a vector and a
    scalar each in lowest terms: a factor can then only cancel between
    s_den and all of nums, or between s_num and den."""
    if not s_num or not any(nums):
        return (ZX(),) * len(nums), ZX_ONE
    nums, s_den = _zx_cancel(nums, s_den)
    (s_num,), den = _zx_cancel((s_num,), den)
    return _zx_content([v * s_num for v in nums], den * s_den)


def zx_sum(a, da: ZX, b, db: ZX) -> tuple[tuple, ZX]:
    """a / da + b / db in lowest terms, for two vectors in lowest terms
    (the shorter padded with zeros).  Over the lcm g * ea * eb of
    da = g * ea and db = g * eb, an irreducible factor common to the sum
    and ea would divide every entry of a (ea and eb are coprime), so every
    polynomial factor left to cancel divides g."""
    if len(a) < len(b):
        a, da, b, db = b, db, a, da
    g, ea, eb = _zgcd(da.c, db.c)
    ea, eb = ZX(ea), ZX(eb)
    out = [v * eb for v in a]
    for i, v in enumerate(b):
        out[i] += v * ea
    return _zx_content(*_zx_cancel(out, da * eb, ZX(g)))


def zx_common(dens) -> tuple[ZX, list]:
    """One common multiple of the Z[x] denominators dens, and its exact
    quotient by each: the product of those that do not divide the product
    of the ones before them.  It takes divisions, never a gcd."""
    den = ZX_ONE
    for d in dens:
        if _zdivides(d.c, den.c) is None:
            den = den * d
    return den, [den // d for d in dens]


def int_text(k: int) -> str:
    """k in decimal, also past Python's int/str digit limit, through
    `decimal.Decimal`, which has no such limit."""
    try:
        return str(k)
    except ValueError:
        return str(Decimal(k))


def shown(v) -> str:
    """A ring element (or an int) as text for a message: str(), except
    that integers and Fractions past the int/str digit limit are written in
    full instead of raising ValueError."""
    if isinstance(v, int):
        return int_text(v)
    if isinstance(v, Fraction):
        num = int_text(v.numerator)
        return num if v.denominator == 1 else f"{num}/{int_text(v.denominator)}"
    return str(v)


def canonical_ratios(num: ZX, den: ZX):
    """The coefficients of num / den, in lowest terms, as (top, bottom)
    integer pairs, not reduced, with bottom nonzero, scaled so that the
    lowest-order nonzero denominator coefficient is 1: the text of a
    rational function, which the JSON writer and `RatFunc.__repr__` read."""
    num, den = num.c, den.c
    if not num:
        return (), ((1, 1),)
    pivot = next(c for c in den if c)
    return tuple((c, pivot) for c in num), tuple((c, pivot) for c in den)


def _zstr(cs, var="x"):
    if not cs:
        return "0"
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        if i == 0:
            terms.append(shown(c))
        else:
            head = "" if c == 1 else "-" if c == -1 else f"{shown(c)}*"
            terms.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(terms).replace("+ -", "- ")


# ---------------------------------------------------------------------------


class RatFunc:
    """A quotient of polynomials over Q, held as the integer polynomials
    `numerator` / `denominator` (`ZX`) in the integral format's lowest
    terms: they share no factor, integer content included, and the
    denominator has a positive leading coefficient.  Zero is 0 / 1.  This is
    the one-entry case of `zx_lowest_terms`, as a Fraction's numerator and
    denominator are the format of Q, so equality is structural.  Its text
    (`canonical_ratios`, which the JSON writer and `repr` read) scales both
    so that the lowest-order nonzero denominator coefficient is 1; for
    elements of the local ring that is the den(0) = 1 normalization.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, num, den=(1,)):
        cs = [Fraction(c) for c in num]
        k = len(cs)
        cs += [Fraction(c) for c in den]
        # one common denominator for both coefficient lists cancels out
        d = lcm(*[c.denominator for c in cs])
        cs = [c.numerator * (d // c.denominator) for c in cs]
        d = ZX(_ztrim(cs[k:]))
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        (self.numerator,), self.denominator = zx_lowest_terms((ZX(_ztrim(cs[:k])),), d)

    @classmethod
    def _make(cls, num: ZX, den: ZX) -> RatFunc:
        # trusted constructor: the pair is already in lowest terms
        self = object.__new__(cls)
        self.numerator = num
        self.denominator = den
        return self

    @classmethod
    def from_zx(cls, num: ZX, den: ZX) -> RatFunc:
        """num / den for integer polynomials, den nonzero."""
        (num,), den = zx_lowest_terms((num,), den)
        return cls._make(num, den)

    @staticmethod
    def constant(v) -> RatFunc:
        v = Fraction(v)
        return RatFunc._make(ZX(_zconst(v.numerator)), ZX((v.denominator,)))

    # fraction-field arithmetic (closed under all four operations), on the
    # integral format's one-entry vectors

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        if other.__class__ is ZX:
            # an integer polynomial over one is in lowest terms
            return RatFunc._make(other, ZX_ONE)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (num,), den = zx_sum((self.numerator,), self.denominator,
                             (other.numerator,), other.denominator)
        return RatFunc._make(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RatFunc._make(-self.numerator, self.denominator)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (num,), den = zx_scale((self.numerator,), self.denominator,
                               other.numerator, other.denominator)
        return RatFunc._make(num, den)

    __rmul__ = __mul__

    def reciprocal(self) -> RatFunc:
        num, den = self.denominator, self.numerator
        if not den:
            raise ZeroDivisionError("division by zero rational function")
        if den.c[-1] < 0:
            num, den = -num, -den
        return RatFunc._make(num, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __bool__(self):
        return bool(self.numerator)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        # a value equal to an int, a Fraction or a ZX hashes like it
        num, den = self.numerator, self.denominator.c
        if den == _ONE_POLY:
            return hash(num)
        if len(den) == 1 and len(num.c) == 1:
            return hash(Fraction(num.c[0], den[0]))
        return hash((num.c, den))

    def is_defined_at_zero(self) -> bool:
        return self.denominator.c[0] != 0

    def __repr__(self):
        num, den = ([Fraction(*r) for r in part]
                    for part in canonical_ratios(self.numerator, self.denominator))
        if len(den) == 1:
            return f"({_zstr(num)})"
        return f"({_zstr(num)})/({_zstr(den)})"


# ---------------------------------------------------------------------------
# ring objects


class Ring:
    """What every ring derives from its own `contains`, `split`, `is_unit`
    and `value`: the membership check, the one unit test of a ring value,
    its inverse, and ring values built from a vector of the integral
    format."""

    @staticmethod
    def split(a):
        """A ring value as its numerator and denominator, in lowest terms."""
        return a.numerator, a.denominator

    def check(self, a):
        if not self.contains(a):
            raise RingMismatch(f"expected an element of {self.id}, got {shown(a)}")
        return a

    def is_invertible(self, a) -> bool:
        return self.is_unit(self.split(self.check(a))[0])

    def invert(self, a):
        num, den = self.split(self.check(a))
        if not self.is_unit(num):
            raise NotInvertible(f"{shown(a)} is not a unit of {self.id}")
        return self.value(den, num)

    def values(self, nums, den) -> list:
        """The ring values nums[i] / den; CoordinateNotIntegral when one of
        them is not in the ring."""
        out = [self.value(v, den) for v in nums]
        if not all(map(self.contains, out)):
            raise CoordinateNotIntegral(f"a coordinate left {self.id}")
        return out


class RationalField(Ring):
    """The field Q; elements are fractions.Fraction, and the integral
    format is integer numerators over one positive integer denominator."""

    id = "Q"
    zero, one = Fraction(0), Fraction(1)
    num_zero, num_one = 0, 1
    value = Fraction

    def element(self, v) -> Fraction:
        if isinstance(v, RatFunc):
            raise RingMismatch(f"{shown(v)} is not an element of {self.id}")
        return Fraction(v)

    @staticmethod
    def contains(a) -> bool:
        return isinstance(a, Fraction)

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
    def common(dens):
        den = lcm(*dens)
        return den, [den // d for d in dens]

    @staticmethod
    def primitive(nums) -> tuple:
        """nums divided by their joint content, the gcd of the ints."""
        g = gcd(*nums)
        return tuple(v // g for v in nums) if g > 1 else tuple(nums)

    @staticmethod
    def in_ring(den) -> bool:
        return True

    @staticmethod
    def is_unit(num) -> bool:
        return num != 0

    def __repr__(self):
        return "RationalField()"


class LocalRationalFunctions(Ring):
    """Q[x] localized at (x): RatFunc values with den(0) != 0, and the
    integral format is Z[x] numerators over one Z[x] denominator d with
    d(0) != 0."""

    id = "Q[x]_(x)"
    zero, one = RatFunc.constant(0), RatFunc.constant(1)
    num_zero, num_one = ZX(), ZX_ONE
    value = staticmethod(RatFunc.from_zx)
    lowest = staticmethod(zx_lowest_terms)
    common = staticmethod(zx_common)

    def element(self, v) -> RatFunc:
        if isinstance(v, RatFunc):
            a = v
        elif isinstance(v, (int, Fraction)):
            a = RatFunc.constant(v)
        elif isinstance(v, (tuple, list)):
            a = RatFunc(v)
        else:
            raise RingMismatch(f"cannot coerce {shown(v)} into {self.id}")
        if not a.is_defined_at_zero():
            raise RingMismatch(f"{shown(a)} has a pole at 0, not in {self.id}")
        return a

    @staticmethod
    def contains(a) -> bool:
        return isinstance(a, RatFunc) and a.is_defined_at_zero()

    @staticmethod
    def primitive(nums) -> tuple:
        """nums divided by their joint content, the gcd of all their
        integer coefficients."""
        g = gcd(*[c for v in nums for c in v.c])
        return tuple(ZX(tuple([c // g for c in v.c])) for v in nums) if g > 1 else tuple(nums)

    @staticmethod
    def in_ring(den) -> bool:
        # of a vector in lowest terms: a pole at 0 is a root of den
        return den.c[0] != 0

    @staticmethod
    def is_unit(num) -> bool:
        # over a den with den(0) != 0: a unit is nonzero at 0
        return bool(num) and num.c[0] != 0

    def __repr__(self):
        return "LocalRationalFunctions()"


QQ = RationalField()
QQ_LOCAL_X = LocalRationalFunctions()

_RINGS = {QQ.id: QQ, QQ_LOCAL_X.id: QQ_LOCAL_X}


def get_ring(ring_id: str):
    try:
        return _RINGS[ring_id]
    except KeyError:
        raise ValueError(f"unknown ring id {ring_id!r}") from None


def sample_residue(rng: random.Random, bound: int) -> Fraction:
    """A uniformly random integer in [-bound, bound], as a rational: every
    ring of characteristic 0 here contains it, so it coerces to a
    coordinate of an extension over Q or over Q[x]_(x)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return Fraction(rng.randint(-bound, bound))
