"""Constructive norm certificates and their independent verifier.

Given a diagonal regular form q over R and a witness x with c = q_S(x) a
unit of a simple extension S/R, `certify` produces an explicit product of
values of q over R, with exponents +-1, equal to the norm of c.  The
construction follows an induction on the degree of the extension:

  1. degree 1 means S = R and the witness itself is the certificate;
  2. otherwise pass to c^(-1), so that c * q_S(x) = 1, rescale by a square
     to make c primitive, then rescale again into general position so the
     form value r of the top coordinates of x in c's power basis is a unit
     (each discarded square of a unit norm is itself certified as a
     product of two values);
  3. with p the minimal polynomial of c and x(t) the coordinate lift of
     the witness, t*q(x(t)) - 1 is exactly divisible by p; the quotient h
     has degree n-1, leading coefficient r, and h(0)*p(0) = -1;
  4. g = h/r is monic with unit constant term, T = R[t]/(g) is one degree
     smaller, and the reduced witness certifies the norm of the class u of
     t in T; the norms combine through the sign-free exact identity
     N_S(c) * r * N_T(u) = 1.

Each level evaluates q_S(x) once and takes its norm once; that norm is the
certificate target at the top and N_T(u) one level up.  Every one of those
exact identities is re-checked at every level and a certificate is verified
before it is returned.  The verifier shares nothing with the construction
beyond ring arithmetic, form evaluation and the multiplication-matrix
determinant, and it takes the norm of its own fresh evaluation of q_S(x).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InternalAssertion, NotSimple, SearchExhausted, ValueNotUnit
from .extension import ExtElement, SimpleExtension
from .genpos import (
    DEFAULT_BOUND,
    DEFAULT_MAX_TRIES,
    find_general_position,
    find_primitive_scaling,
)
from .poly import Poly, integral_format
from .qform import QuadraticForm, ValueFactor


@dataclass
class ReductionStep:
    """Audit record of one induction level."""

    n: int
    p: Poly
    h: Poly
    r: object
    g: Poly
    b: ExtElement


@dataclass(frozen=True)
class NormCertificate:
    target: object
    factors: tuple
    trace: tuple | None = None


@dataclass
class CertifyStats:
    """Counters across one or many certification runs."""

    levels: int = 0
    level_checks: int = 0
    genpos_calls: int = 0
    genpos_tries: int = 0
    genpos_exhausted: int = 0


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


def norm_of_value(ext: SimpleExtension, q: QuadraticForm, xs):
    """The norm of q_S(x), the quantity a certificate targets."""
    value = q.evaluate_ext(list(xs))
    if not value.is_invertible():
        raise ValueNotUnit("q_S(x) is not a unit of the extension")
    return value.norm()


def _shown(v) -> str:
    """v as text for a failure message; str() raises ValueError past
    Python's int/str digit limit, and a rejection must stay a rejection."""
    try:
        return str(v)
    except ValueError:
        return "<a number past the int/str digit limit>"


def _check(condition: bool, message: str, stats: CertifyStats):
    if not condition:
        raise InternalAssertion(message)
    stats.level_checks += 1


def _certify_value(ext, q, xs, rng, max_tries, bound, stats):
    """Factors multiplying to the norm of q_S(x), that norm, and the records
    of this level and of the levels below it."""
    ring = ext.ring
    n = ext.n
    value = q.evaluate_ext(xs)
    norm = value.norm()
    if not ring.is_invertible(norm):
        raise ValueNotUnit("q_S(x) is not a unit of the extension")
    if n == 1:
        return [ValueFactor(tuple(x.coords[0] for x in xs), 1)], norm, []
    c = value.inverse()
    _check(c * value == ext.one(), "lost the defining relation", stats)
    stats.levels += 1

    square_factors = []

    def discard_square(b: ExtElement):
        # replacing c by c*b^2 multiplies N(c) by N(b)^2, so the norm of
        # q_S(x) = c^(-1) gains that square of a unit of R, as two values
        square_factors.extend(q.square_as_value_product(b.norm()))

    if not c.is_primitive():
        b1 = find_primitive_scaling(c, rng, max_tries=max_tries, bound=bound)
        b1_inv = b1.inverse()
        c = c * b1 * b1
        xs = [x * b1_inv for x in xs]
        discard_square(b1)

    stats.genpos_calls += 1
    try:
        witness = find_general_position(
            c, xs, q, rng, max_tries=max_tries, bound=bound
        )
    except SearchExhausted:
        stats.genpos_exhausted += 1
        raise
    stats.genpos_tries += witness.tries_used
    if witness.b != ext.one():
        discard_square(witness.b)
    c, r = witness.c_new, witness.r

    # coordinates of the witness in the power basis of c, read as polynomials
    tops, x_polys = witness.tops, witness.columns

    p = c.minimal_polynomial()
    q_of_x = Poly.zero(ring)
    for a, xp in zip(q.diag, x_polys):
        q_of_x = q_of_x + (xp * xp).scale(a)
    f_poly = q_of_x.shift(1) - Poly.one(ring)

    h, remainder = divmod(f_poly, p)
    _check(not remainder, "t*q(x(t)) - 1 is not divisible by the minimal polynomial", stats)
    _check(h.degree == n - 1, "quotient degree is not n - 1", stats)
    _check(h.leading == r, "leading coefficient of the quotient is not the search value", stats)
    _check(
        p.constant_term * h.constant_term == -ring.one,
        "constant terms do not multiply to -1",
        stats,
    )

    g = h.scale(ring.invert(r))
    try:
        sub_ext = SimpleExtension(ring, g)
    except NotSimple as exc:
        raise InternalAssertion(f"reduced modulus is not simple: {exc}") from exc
    _check(ring.is_invertible(g.constant_term), "g(0) is not a unit", stats)

    z = [sub_ext.from_poly(xp) for xp in x_polys]
    u = sub_ext.gen()
    q_z = q.evaluate_ext(z)
    _check(u * q_z == sub_ext.one(), "u * q_T(z) is not 1 in the reduced algebra", stats)
    # u is therefore the inverse of q_T(z), and y = z/q_T(z) has q_T(y) = u:
    # the norm the sub-level returns is N_T(u)
    ys = [zj * u for zj in z]

    sub_factors, norm_u, sub_steps = _certify_value(
        sub_ext, q, ys, rng, max_tries, bound, stats
    )

    # sign-free combine identity, checked rather than trusted
    _check(
        c.norm() * r * norm_u == ring.one,
        "norms and the leading coefficient do not combine to 1",
        stats,
    )

    # hence N(q_S(x)) = r * N_T(u) * N(b)^2 over the discarded scalings b
    factors = [ValueFactor(tops, 1), *sub_factors, *square_factors]
    step = ReductionStep(n=n, p=p, h=h, r=r, g=g, b=witness.b)
    return factors, norm, [step] + sub_steps


def certify(
    ext: SimpleExtension,
    q: QuadraticForm,
    xs,
    rng: random.Random | int | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
    bound: int = DEFAULT_BOUND,
    with_trace: bool = False,
    stats: CertifyStats | None = None,
) -> NormCertificate:
    """Produce a verified certificate that the norm of q_S(x) is a product
    of values of q over the base ring."""
    if q.ring.id != ext.ring.id:
        raise ValueError("form and extension have different coefficient rings")
    xs = list(xs)
    if rng is None or isinstance(rng, int):
        rng = random.Random(0 if rng is None else rng)
    stats = CertifyStats() if stats is None else stats
    factors, target, steps = _certify_value(ext, q, xs, rng, max_tries, bound, stats)
    cert = NormCertificate(
        target=target,
        factors=tuple(factors),
        trace=tuple(steps) if with_trace else None,
    )
    outcome = verify(ext, q, xs, cert)
    if not outcome:
        raise InternalAssertion(f"freshly built certificate failed to verify: {outcome.failure}")
    return cert


def verify(ext: SimpleExtension, q: QuadraticForm, xs, cert: NormCertificate) -> VerifyResult:
    """Independent check of a certificate against its instance.

    Accepts iff every factor value is a unit, the factor product equals the
    certificate target exactly, and the target equals the norm of q_S(x).
    """
    ring = ext.ring
    if not ring.contains(cert.target):
        return VerifyResult(False, "target is not an element of the coefficient ring")
    # the factor product as top / bottom, compared with the target by
    # cross-multiplication
    fmt = integral_format(ring)
    top = bottom = fmt.one
    for i, f in enumerate(cert.factors):
        if f.exponent not in (1, -1):
            return VerifyResult(False, f"factor {i} has exponent {f.exponent}")
        try:
            value = q.evaluate(f.vector)
        except Exception as exc:
            return VerifyResult(False, f"factor {i} cannot be evaluated: {exc}")
        if not ring.is_invertible(value):
            return VerifyResult(False, f"factor {i} value {_shown(value)} is not a unit")
        num, den = fmt.split(value)
        if f.exponent == -1:
            num, den = den, num
        top, bottom = top * num, bottom * den
    t_num, t_den = fmt.split(cert.target)
    if top * t_den != t_num * bottom:
        product = fmt.value(top, bottom)
        return VerifyResult(
            False,
            f"factor product {_shown(product)} does not equal target {_shown(cert.target)}",
        )
    value = q.evaluate_ext(list(xs))
    if not value.is_invertible():
        return VerifyResult(False, "instance value q_S(x) is not a unit")
    if value.norm() != cert.target:
        return VerifyResult(False, "target does not equal the norm of q_S(x)")
    return VerifyResult(True)
