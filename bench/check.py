"""Independent check of a certificate against its instance, from JSON alone.

It accepts iff every exponent is the integer 1 or -1, every factor value
q(y) = sum a_j y_j^2 is a unit, the product of the factor values raised to
their exponents equals the target, and the target equals N(q_S(x)).

Numbers are parsed here, not by normcert.serialize.  Over Q the arithmetic
is fractions.Fraction; over Q[x]_(x) it is normcert's RatFunc, the ring
arithmetic itself.  Units are decided on residues computed from the JSON
coefficient lists.  The norm is the resultant Res_t(p, c) of the monic
modulus p and c = q_S(x) reduced mod p, by the Euclidean remainder
sequence: nothing of normcert.extension, normcert.linalg or
normcert.certify is used.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from normcert.rings import RatFunc


def _rational(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text)


class _Rationals:
    one = Fraction(1)

    @staticmethod
    def parse(data) -> Fraction:
        return _rational(data)

    @staticmethod
    def residue(data) -> Fraction:
        return _rational(data)


class _LocalRationalFunctions:
    one = RatFunc.constant(1)

    @staticmethod
    def _parts(data):
        if isinstance(data, str):
            return [_rational(data)], [Fraction(1)]
        return [_rational(c) for c in data["num"]], [_rational(c) for c in data["den"]]

    @classmethod
    def parse(cls, data) -> RatFunc:
        return RatFunc(*cls._parts(data))

    @classmethod
    def residue(cls, data) -> Fraction:
        """Value at x = 0; an element with a pole there is not in the ring."""
        num, den = cls._parts(data)
        if not den or den[0] == 0:
            raise ValueError(f"{data!r} has a pole at x = 0")
        return (num[0] if num else Fraction(0)) / den[0]


ARITHMETIC = {"Q": _Rationals, "Q[x]_(x)": _LocalRationalFunctions}


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _trim(out)


def _poly_rem(a: list, b: list, one) -> list:
    """Remainder of a by a nonzero b over a field."""
    a = list(a)
    inv = one / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = a[shift + i] - c * bi
        a.pop()
        _trim(a)
    return a


def _power(x, k: int, one):
    acc = one
    for _ in range(k):
        acc = acc * x
    return acc


def resultant(a: list, b: list, one):
    """Res(a, b) over a field for deg a >= 1 and b nonzero (ascending lists):
    Res(a, b) = (-1)^(deg a * deg b) lc(b)^(deg a - deg r) Res(b, r), r = a mod b."""
    acc = one
    while len(b) > 1:
        r = _poly_rem(a, b, one)
        if not r:
            return 0 * one
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        acc = acc * _power(b[-1], da - dr, one)
        if da * db % 2:
            acc = -acc
        a, b = b, r
    return acc * _power(b[0], len(a) - 1, one)


def norm_of_witness(arith, p: list, diag: list, xs: list):
    """N(q_S(x)) for S = R[t]/(p), p monic, as Res_t(p, q_S(x) mod p)."""
    c = []
    for a, x in zip(diag, xs):
        term = [a * v for v in _poly_mul(x, x)]
        c = [u + v for u, v in zip_longest(c, term, fillvalue=0 * arith.one)]
    c = _poly_rem(_trim(c), p, arith.one)
    if not c:
        return 0 * arith.one
    return resultant(p, c, arith.one)


def form_value(arith, diag: list, ys: list):
    """q(y) = sum a_j y_j^2."""
    return sum((a * y * y for a, y in zip(diag, ys)), 0 * arith.one)


def check_certificate(instance: dict, cert: dict) -> list[str]:
    """The reasons the certificate is wrong; empty when it is right."""
    try:
        arith = ARITHMETIC[instance["ring"]]
        diag = [arith.parse(a) for a in instance["q"]]
        diag_res = [arith.residue(a) for a in instance["q"]]
        p = _trim([arith.parse(c) for c in instance["p"]["coeffs"]])
        xs = [_trim([arith.parse(v) for v in x]) for x in instance["x"]]
        target = arith.parse(cert["target"])
        factors = cert["factors"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable instance or certificate: {exc!r}"]
    problems = []
    product = arith.one
    for i, f in enumerate(factors):
        try:
            exp, vector = f["exp"], f["vector"]
            ys = [arith.parse(y) for y in vector]
            ys_res = [arith.residue(y) for y in vector]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"factor {i} is unreadable: {exc!r}")
            continue
        if type(exp) is not int or exp not in (1, -1):
            problems.append(f"factor {i} has exponent {exp!r}")
            continue
        if len(ys) != len(diag):
            problems.append(f"factor {i} has {len(ys)} coordinates for a rank-{len(diag)} form")
            continue
        if sum(a * y * y for a, y in zip(diag_res, ys_res)) == 0:
            problems.append(f"factor {i} value is not a unit")
            continue
        value = form_value(arith, diag, ys)
        product = product * value if exp == 1 else product / value
    if not problems and product != target:
        problems.append("the factor values do not multiply to the target")
    if norm_of_witness(arith, p, diag, xs) != target:
        problems.append("the target is not N(q_S(x))")
    return problems
