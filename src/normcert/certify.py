"""Constructive norm certificates and their independent verifier.

Given a diagonal regular form q over R and a witness x with c = q_S(x) a
unit of a simple extension S/R, `certify` produces an explicit product of
values of q over R, with exponents +-1, equal to the norm of c.  The
construction follows an induction on the degree of the extension:

  1. degree 1 means S = R and the witness itself is the certificate;
  2. otherwise take c = q_S(x) and rescale x by one unit b, found by one
     search (so c becomes c*b^2), into general position: c primitive, and
     the form values r of the top coordinates and q(x(0)) of the constant
     coordinates of x in c's power basis units; the discarded square
     N(b)^(-2), a unit of R, rides in the level's pair below;
  3. with p the minimal polynomial of c and x(t) the coordinate lift of
     the witness, F(t) = q(x(t)) - t vanishes at c, so p divides it
     exactly; the quotient h has degree n-2, leading coefficient r, and
     p(0)*h(0) = q(x(0)) (p comes from the search's one elimination, as
     t^n minus the coordinates of c^n, its last right-hand side);
  4. for n = 2 that quotient is the constant r, and the identity below
     holds with N_T(u) = 1; otherwise g = h/r is monic with unit constant
     term, T = R[t]/(g) is two degrees smaller, and the class u of t in T
     is u = q_T(z) for the reduced witness z = x(u), which certifies
     N_T(u); for n = 3, g = t - a, so T is R itself, u = N_T(u) = a, and
     z = x(a) is the level below's one factor; comparing the roots of F
     with those of p and g gives the sign-free exact identity
     N_S(c) * r * N_T(u) = q(x(0)), so a level emits q(x(0)) and
     q(tops)^(-1) and the level below with its exponents flipped.

A level writes its two end vectors as lambda*db*x(0) and lambda*nb*tops,
with N(b) = nb/db the norm of the level's scaling written in the integral
format (nb = db = 1 when b = 1), for one unit lambda = d/g, with d the one
denominator of the witness columns and g the joint content of the
numerators of both vectors: since q(lambda*v) = lambda^2 * q(v), the
pair's ratio is N(b)^(-2) * q(x(0)) / r, and the vectors are integral with
content 1, so no entry carries a denominator.  A certificate of degree n
has exactly n factors.

Each level, on every run, records its n, p, h, r, q(x(0)), scaling b and
search tries in one `ReductionStep`, right after its division checks, top
level first; the records are the certificate's `trace`, `CertifyStats`
adds them up, and the CLI writes them under `--trace`.  The record builds
nothing: g = h/r is taken when it is read, by the level itself when its
reduced algebra has degree >= 2 and by the trace writer.

The depth is floor(n/2) and no level inverts anything.  q_S(x) is
evaluated once, in `certify`, and each level takes the norm of its value
once; that norm is the certificate target at the top and N_T(u) one
level up, and the general-position search takes the same value, so its
precondition that the value is a unit reads the cached norm.  The value
of a reduced level is u, whose norm is (-1)^n g(0), and it is not
evaluated as q_T(z): at degree >= 2 the identity q_T(z) = u is that
level's own check that p = g divides F(t) = q(z(t)) - t (when the level
scales z by a unit b, the check shows b^2 * q_T(z) = u * b^2, the same
identity).  At degree 1 no level is built below: with g = t + h0/h1,
a = -h0/h1, and each z_j = x_j(a) is the remainder of its integral
witness column modulo g, the numerators (h0, h1) over h1, by the one
division by a monic polynomial (`poly.divide_monic`), all over one
denominator; the m numerators are normalized once and must stay in the
ring, q_T(z) is one form value compared with a by cross-multiplication,
and they are the level's last factor, written as the witness numerators
of a top-level instance of degree 1 are.  F(t) is one sum over the
common denominator of the witness columns, normalized once, and so are r
and q(x(0)).  The top level solves once, and the levels below the top
solve nothing: their c is u, the class of t, so the witness columns are
z's own numerators and p is g.  Each level divides F by p once
(`Poly.__divmod__`): at degree >= 2, u and z = x(u) are built in T
straight from the integral witness columns (`from_integral`, their
remainders modulo g).  Every exact identity of steps 3 and 4 is
re-checked at every level, and a certificate is verified before it is
returned.
Both refuse a witness with a coordinate outside the given extension.
The verifier shares nothing with the construction beyond ring arithmetic,
form evaluation, the one division by a monic polynomial (which reduces
q_S(x) and builds the multiplication matrix) and that matrix's
determinant, and it takes
the norm of its own fresh evaluation of q_S(x).  It evaluates each factor
from the numerators of its vector over one denominator in the ring's
integral format (`ValueFactor.nums` and `.den`, which the certificate
reader fills straight from the JSON and each level fills from its end
vectors), as one sum that it does not normalize: a factor value is a unit
when that sum's numerator is, and the numerators and denominators of all
the values multiply into one product that is compared with the target by
cross-multiplication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InternalAssertion, NotSimple, SearchExhausted, ValueNotUnit
from .extension import ExtElement, SimpleExtension
from .genpos import DEFAULT_BOUND, DEFAULT_MAX_TRIES, find_general_position
from .poly import Poly, divide_monic, over_common_denominator
from .qform import QuadraticForm, ValueFactor
from .rings import shown


@dataclass
class ReductionStep:
    """The record of one induction level, built on every run: p is the
    minimal polynomial of q_S(x)*b^2 for the level's one scaling b, found in
    `tries` tries of its search (try 1 is the b = 1 probe's slot)."""

    n: int
    p: Poly
    h: Poly
    r: object
    q0: object
    b: ExtElement
    tries: int

    @property
    def g(self) -> Poly | None:
        """The modulus h/r of the reduced algebra, None at n = 2, where h is
        the constant r and the level ends."""
        return None if self.n == 2 else self.h.scale(self.h.ring.invert(self.r))


@dataclass(frozen=True)
class NormCertificate:
    """The factors multiplying to target, and the record of each reduction
    level, top level first (none for a decoded certificate)."""

    target: object
    factors: tuple
    trace: tuple = ()


@dataclass
class CertifyStats:
    """Counters across one or many certification runs, summed from their
    records: genpos_tries counts the tries of each level's one search, the
    b = 1 probe's slot included, and an exhausted search counts as one
    level, one call and one exhaustion, with no tries."""

    levels: int = 0
    genpos_calls: int = 0
    genpos_tries: int = 0
    genpos_exhausted: int = 0

    def add(self, steps, exhausted: int = 0):
        self.levels += len(steps) + exhausted
        self.genpos_calls += len(steps) + exhausted
        self.genpos_tries += sum(step.tries for step in steps)
        self.genpos_exhausted += exhausted


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None

    def __bool__(self):
        return self.ok


class _Seeded:
    """The `random.Random` of a seed, made on its first draw: the search
    draws only when c is not primitive or the b = 1 probe fails, which is
    rare."""

    def __init__(self, seed):
        self._seed, self._rng = seed, None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return getattr(self._rng, name)


def _check(condition: bool, message: str):
    if not condition:
        raise InternalAssertion(message)


def _scalar_factor(ring, nums, den) -> ValueFactor:
    """The one factor q(y) of degree 1, for y_j = nums[j] / den in the
    ring's integral format, put in lowest terms once."""
    return ValueFactor(ring, *ring.lowest(nums, den), 1)


def _certify_value(ext, q, xs, value, rng, max_tries, bound, steps):
    """Factors multiplying to the norm of value = q_S(x), and that norm;
    the record of this level and of each level below it goes on steps."""
    ring = ext.ring
    n = ext.n
    norm = value.norm()
    if not ring.is_invertible(norm):
        raise ValueNotUnit("q_S(x) is not a unit of the extension")
    if n == 1:
        # the witness itself, its one coordinate each over one denominator
        vecs, den = over_common_denominator(ring, [x.integral for x in xs])
        return [_scalar_factor(ring, [v[0] for v in vecs], den)], norm

    # x -> x*b replaces c = q_S(x) by c*b^2, for the level's one scaling b
    witness = find_general_position(value, xs, q, rng, max_tries=max_tries, bound=bound)
    c, p, r, q0 = witness.c_new, witness.p, witness.r, witness.q0

    # F(t) = q(x(t)) - t, one sum over the witness columns' denominator
    cols, d = witness.integral
    f_nums, f_den = q.poly_value(cols, d)
    f_nums[1] = f_nums[1] - f_den
    f_poly = Poly.from_integral(ring, f_nums, f_den)

    h, remainder = divmod(f_poly, p)
    _check(not remainder, "q(x(t)) - t is not divisible by the minimal polynomial")
    _check(h.degree == n - 2, "quotient degree is not n - 2")
    _check(h.leading == r, "leading coefficient of the quotient is not the search value")
    _check(p.constant_term * h.constant_term == q0, "constant terms do not multiply to q(x(0))")
    step = ReductionStep(n, p, h, r, q0, witness.b, witness.tries_used)
    steps.append(step)

    if n == 2:
        # h = r: F(t) = r * p(t), and no level is left below
        sub_factors, norm_u = [], ring.one
    elif n == 3:
        # g = h/r = t - a, so T is R itself and u = a = -h0/h1: the level
        # below is z = x(a), its factor, and N_T(u) = a
        (h0, h1), _ = h.integral
        if not ring.is_unit(h0):
            raise InternalAssertion("reduced modulus is not simple: its constant term is not a unit")
        # z_j is the remainder of x_j(t) modulo g, the numerators (h0, h1)
        # over h1; every column has n entries, so each remainder is over
        # d * h1^(n-1)
        rems = [divide_monic(ring, col, d, (h0, h1), h1)[1] for col in cols]
        factor = _scalar_factor(ring, [rem[0] for rem, _ in rems], rems[0][1])
        if not ring.in_ring(factor.den):
            raise InternalAssertion("a coordinate of the reduced witness left the ring")
        # F(u) = 0 in T; at degree >= 2 the level below checks it, as g
        # dividing q(z(t)) - t
        v_num, v_den = q.integral_value(factor.nums, factor.den)
        _check(v_num * h1 == -h0 * v_den, "q_T(z) is not u in the reduced algebra")
        sub_factors, norm_u = [factor], ring.value(-h0, h1)
    else:
        try:
            # g = h/r, and g(0) = q(x(0)) / (p(0) * r) is a unit, as
            # SimpleExtension requires
            sub_ext = SimpleExtension(ring, step.g)
        except NotSimple as exc:
            raise InternalAssertion(f"reduced modulus is not simple: {exc}") from exc
        # the coordinates of the witness in the power basis of c, read as
        # polynomials and reduced modulo g: z = x(u)
        z = [sub_ext.from_integral(col, d) for col in cols]
        if not all(ring.in_ring(x.integral[1]) for x in z):
            raise InternalAssertion("a coordinate of the reduced witness left the ring")
        sub_factors, norm_u = _certify_value(
            sub_ext, q, z, sub_ext.gen(), rng, max_tries, bound, steps
        )

    # sign-free combine identity, checked rather than trusted
    _check(c.norm() * r * norm_u == q0,
           "norms and the leading coefficient do not combine to q(x(0))")

    # hence N(q_S(x)) = N(b)^(-2) * q(x(0)) * r^(-1) * N_T(u)^(-1): with
    # N(b) = nb/db, x(0) scaled by lambda*db and tops by lambda*nb, where
    # lambda = d/g is a unit, since d is the Bareiss determinant of the
    # power columns of the primitive c times in-ring denominators
    bottoms, tops = [col[0] for col in cols], [col[-1] for col in cols]
    if witness.tries_used > 1:  # try 1 is the b = 1 probe
        nb, db = ring.split(witness.b.norm())
        bottoms, tops = [db * v for v in bottoms], [nb * v for v in tops]
    m = len(cols)
    # integral with content 1, so over one in lowest terms
    ends = ring.primitive(bottoms + tops)
    factors = [
        ValueFactor(ring, ends[:m], ring.num_one, 1),
        ValueFactor(ring, ends[m:], ring.num_one, -1),
        *(f.flipped() for f in sub_factors),
    ]
    return factors, norm


def _witness_in(ext, xs) -> list:
    """The witness as a list, refused when a coordinate is not in `ext`."""
    xs = list(xs)
    if any(x.ext != ext for x in xs):
        raise ValueError("a witness coordinate is not an element of the extension")
    return xs


def certify(
    ext: SimpleExtension,
    q: QuadraticForm,
    xs,
    rng: random.Random | int | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
    bound: int = DEFAULT_BOUND,
    stats: CertifyStats | None = None,
) -> NormCertificate:
    """Produce a verified certificate that the norm of q_S(x) is a product
    of values of q over the base ring, with the record of each reduction
    level; `stats`, when given, adds up the records."""
    if q.ring is not ext.ring:
        raise ValueError("form and extension have different coefficient rings")
    xs = _witness_in(ext, xs)
    if rng is None or isinstance(rng, int):
        rng = _Seeded(0 if rng is None else rng)
    value = q.evaluate_ext(xs)
    steps, exhausted = [], 0
    try:
        factors, target = _certify_value(ext, q, xs, value, rng, max_tries, bound, steps)
    except SearchExhausted:
        # the exhausted level built no record
        exhausted = 1
        raise
    finally:
        if stats is not None:
            stats.add(steps, exhausted)
    cert = NormCertificate(target=target, factors=tuple(factors), trace=tuple(steps))
    outcome = verify(ext, q, xs, cert)
    if not outcome:
        raise InternalAssertion(f"freshly built certificate failed to verify: {outcome.failure}")
    return cert


def verify(ext: SimpleExtension, q: QuadraticForm, xs, cert: NormCertificate) -> VerifyResult:
    """Independent check of a certificate against its instance.

    Accepts iff every factor is a vector over the coefficient ring whose
    value is a unit, the factor product equals the
    certificate target exactly, and the target equals the norm of q_S(x).
    """
    xs = _witness_in(ext, xs)
    ring = ext.ring
    if not ring.contains(cert.target):
        return VerifyResult(False, "target is not an element of the coefficient ring")
    # the factor product as top / bottom, compared with the target by
    # cross-multiplication
    top = bottom = ring.num_one
    for i, f in enumerate(cert.factors):
        if f.exponent not in (1, -1):
            return VerifyResult(False, f"factor {i} has exponent {f.exponent}")
        if f.ring is not ring:
            return VerifyResult(False, f"factor {i} is a vector over {f.ring.id}, not {ring.id}")
        if len(f.nums) != q.rank:
            return VerifyResult(False, f"factor {i} cannot be evaluated: "
                                       f"expected {q.rank} coordinates, got {len(f.nums)}")
        # in_ring reads a denominator in lowest terms, as a factor's is
        if not f.den or not ring.in_ring(f.den):
            return VerifyResult(False, f"factor {i} has an entry outside {ring.id}")
        num, den = q.integral_value(f.nums, f.den)
        if not ring.is_unit(num):
            value = shown(ring.value(num, den))
            return VerifyResult(False, f"factor {i} value {value} is not a unit")
        if f.exponent == -1:
            num, den = den, num
        top, bottom = top * num, bottom * den
    t_num, t_den = ring.split(cert.target)
    if top * t_den != t_num * bottom:
        product = ring.value(top, bottom)
        return VerifyResult(
            False,
            f"factor product {shown(product)} does not equal target {shown(cert.target)}",
        )
    value = q.evaluate_ext(xs)
    if not value.is_invertible():
        return VerifyResult(False, "instance value q_S(x) is not a unit")
    if value.norm() != cert.target:
        return VerifyResult(False, "target does not equal the norm of q_S(x)")
    return VerifyResult(True)
