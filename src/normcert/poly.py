"""Dense univariate polynomials over a coefficient ring.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial is the empty tuple (degree -1 by convention, which keeps
division free of special cases).  Division is only ever needed by a monic
divisor, where it is exact over any ring.
"""

from __future__ import annotations

from .errors import NotInvertible


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = [ring.element(c) for c in coeffs]
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs[:n]))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero(ring) -> Poly:
        return Poly(ring, ())

    @staticmethod
    def one(ring) -> Poly:
        return Poly(ring, (ring.one,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else self.ring.zero

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.leading == self.ring.one

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring.id == other.ring.id and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.id, self.coeffs))

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ring, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.ring)
        out = [self.ring.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return Poly(self.ring, out)

    def scale(self, s) -> Poly:
        return Poly(self.ring, tuple(c * s for c in self.coeffs))

    def shift(self, k: int) -> Poly:
        """Multiply by t^k."""
        if not self.coeffs:
            return self
        return Poly(self.ring, (self.ring.zero,) * k + self.coeffs)

    def __call__(self, v):
        """Evaluate at v (a ring element, or anything with +/* and scalars)."""
        if not self.coeffs:
            return self.ring.zero
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def __divmod__(self, divisor: Poly):
        """Exact division by a monic divisor: self = divisor*q + r, deg r < deg divisor."""
        if not divisor.is_monic():
            raise NotInvertible("division requires a monic divisor")
        d = divisor.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < d:
            return Poly.zero(self.ring), self
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
        if not self.coeffs:
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
