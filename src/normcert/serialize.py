"""JSON encodings for every exchanged object.

Numbers are always strings so arbitrary precision survives the trip:
rationals are "p/q" (the "/q" omitted when q = 1), local rational
functions are {"num": [...], "den": [...]} with rational-string
coefficient lists ascending by degree; integers past Python's int/str
digit limit go through `decimal.Decimal`, which has no such limit.  Every
malformed input, a pole at 0 or a modulus that is not simple included, is a
FormatError.  Emission is deterministic (sorted keys, fixed separators) so
identical inputs and seeds produce byte-identical artifacts.

A string of the form -?[0-9]+(/[0-9]+)? is read straight into an integer
pair; every other string goes through `Fraction`, so the accepted strings
and the refused ones are those of a parser with one `Fraction` per string.
Over Q the pair becomes one `Fraction`.  A local rational function is
built from its cleared integer-polynomial numerator and denominator (one
lcm per list, one polynomial gcd), and written back from its integer form
with one gcd per coefficient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .certify import NormCertificate, ReductionStep
from .errors import NotRegular, NotSimple, RingMismatch
from .extension import SimpleExtension
from .poly import Poly
from .qform import QuadraticForm, ValueFactor
from .rings import QQ, ZX, RatFunc, get_ring


class FormatError(ValueError):
    """Malformed instance or certificate JSON."""


def _ring_from_json(ring_id):
    if not isinstance(ring_id, str):
        raise FormatError(f"ring id must be a string, got {ring_id!r}")
    try:
        return get_ring(ring_id)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# the rational strings read straight into integers; any other string goes
# through Fraction, which also takes signs, spaces, decimals and exponents
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _int_to_json(k: int) -> str:
    try:
        return str(k)
    except ValueError:
        # past the int/str digit limit
        return str(Decimal(k))


def _ratio_to_json(top: int, bottom: int) -> str:
    """top / bottom in lowest terms as a rational string, bottom nonzero."""
    g = gcd(top, bottom)
    if bottom < 0:
        g = -g
    num = _int_to_json(top // g)
    return num if bottom == g else f"{num}/{_int_to_json(bottom // g)}"


def rational_to_json(v: Fraction) -> str:
    num = _int_to_json(v.numerator)
    return num if v.denominator == 1 else f"{num}/{_int_to_json(v.denominator)}"


def _rational_pair(data) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q the value of a rational string, not
    necessarily in lowest terms."""
    if not isinstance(data, str):
        raise FormatError(f"expected a rational string, got {data!r}")
    match = _RATIONAL.fullmatch(data)
    if match is None:
        try:
            v = Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {data!r}: {exc}") from None
        return v.numerator, v.denominator
    num, den = match.groups()
    try:
        p, q = int(num), int(den or "1")
    except ValueError:
        # past the int/str digit limit, which Decimal does not have
        p, q = int(Decimal(num)), int(Decimal(den or "1"))
    if not q:
        raise FormatError(f"bad rational {data!r}: zero denominator")
    return p, q


def rational_from_json(data) -> Fraction:
    return Fraction(*_rational_pair(data))


def element_to_json(ring, a):
    if ring.id == QQ.id:
        return rational_to_json(a)
    num, den = a.canonical_ratios()
    return {
        "num": [_ratio_to_json(*r) for r in num],
        "den": [_ratio_to_json(*r) for r in den],
    }


def _int_poly(data) -> tuple[ZX, int]:
    """A list of rational strings as an integer polynomial over the lcm of
    their denominators."""
    pairs = [_rational_pair(c) for c in data]
    den = lcm(*(q for _, q in pairs))
    cs = [p * (den // q) for p, q in pairs]
    while cs and not cs[-1]:
        cs.pop()
    return ZX(tuple(cs)), den


def element_from_json(ring, data):
    if ring.id == QQ.id:
        return rational_from_json(data)
    if isinstance(data, str):
        # shorthand: a constant
        return ring.element(rational_from_json(data))
    if not isinstance(data, dict) or "num" not in data:
        raise FormatError(f"expected a num/den object, got {data!r}")
    num, den = data["num"], data.get("den", ["1"])
    if not isinstance(num, list) or not isinstance(den, list):
        raise FormatError(f"num and den must be lists, got {data!r}")
    (num, dn), (den, dd) = _int_poly(num), _int_poly(den)
    if not den:
        raise FormatError("rational function with zero denominator")
    # (num / dn) / (den / dd), normalized once
    try:
        return ring.check(RatFunc.from_zx(num * dd, den * dn))
    except RingMismatch as exc:
        raise FormatError(str(exc)) from None


def poly_to_json(p: Poly) -> dict:
    return {
        "ring": p.ring.id,
        "coeffs": [element_to_json(p.ring, c) for c in p.coeffs],
    }


def _ring_and_entries(data, key: str, ring, what: str):
    """The ring and the parsed entries of {"ring": ..., key: [...]} or of a bare list."""
    if isinstance(data, dict) and key in data:
        ring = _ring_from_json(data["ring"]) if "ring" in data else ring
        data = data[key]
    if not isinstance(data, list):
        raise FormatError(f"expected a {what}, got {data!r}")
    if ring is None:
        raise FormatError(f"{what} without a ring")
    return ring, [element_from_json(ring, c) for c in data]


def poly_from_json(data, ring=None) -> Poly:
    return Poly(*_ring_and_entries(data, "coeffs", ring, "polynomial"))


def form_to_json(q: QuadraticForm) -> dict:
    return {"ring": q.ring.id, "diag": [element_to_json(q.ring, a) for a in q.diag]}


def form_from_json(data, ring=None) -> QuadraticForm:
    return QuadraticForm(*_ring_and_entries(data, "diag", ring, "quadratic form"))


def factor_to_json(ring, f: ValueFactor) -> dict:
    return {
        "vector": [element_to_json(ring, v) for v in f.vector],
        "exp": f.exponent,
    }


def factor_from_json(ring, data) -> ValueFactor:
    if not isinstance(data, dict) or "vector" not in data or "exp" not in data:
        raise FormatError(f"expected a value factor, got {data!r}")
    if type(data["exp"]) is not int or data["exp"] not in (1, -1):
        raise FormatError(f"factor exponent must be 1 or -1, got {data['exp']!r}")
    if not isinstance(data["vector"], list):
        raise FormatError(f"factor vector must be a list, got {data['vector']!r}")
    return ValueFactor(
        tuple(element_from_json(ring, v) for v in data["vector"]), data["exp"]
    )


def _step_to_json(ring, step: ReductionStep) -> dict:
    out = {
        "n": step.n,
        "p": poly_to_json(step.p),
        "h": poly_to_json(step.h),
        "r": element_to_json(ring, step.r),
        "q0": element_to_json(ring, step.q0),
        "b": [element_to_json(ring, v) for v in step.b.coords],
    }
    if step.g is not None:
        out["g"] = poly_to_json(step.g)
    return out


def certificate_to_json(ring, cert: NormCertificate) -> dict:
    out = {
        "target": element_to_json(ring, cert.target),
        "factors": [factor_to_json(ring, f) for f in cert.factors],
    }
    if cert.trace is not None:
        out["trace"] = [_step_to_json(ring, s) for s in cert.trace]
    return out


def certificate_from_json(ring, data) -> NormCertificate:
    if not isinstance(data, dict) or "target" not in data or "factors" not in data:
        raise FormatError("certificate needs 'target' and 'factors'")
    if not isinstance(data["factors"], list):
        raise FormatError(f"'factors' must be a list, got {data['factors']!r}")
    return NormCertificate(
        target=element_from_json(ring, data["target"]),
        factors=tuple(factor_from_json(ring, f) for f in data["factors"]),
    )


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# problem instances


@dataclass
class InstanceSpec:
    ext: SimpleExtension
    q: QuadraticForm
    xs: list
    options: dict

    @property
    def ring(self):
        return self.ext.ring


def instance_to_json(inst: InstanceSpec) -> dict:
    ring = inst.ring
    return {
        "ring": ring.id,
        "p": poly_to_json(inst.ext.modulus),
        "q": [element_to_json(ring, a) for a in inst.q.diag],
        "x": [[element_to_json(ring, v) for v in x.coords] for x in inst.xs],
        "options": dict(inst.options),
    }


def _check_options(options: dict):
    # bool is an int subclass, so JSON true would pass a bare isinstance test
    for key, least in (("seed", None), ("max_tries", 1), ("bound", 1)):
        if key not in options:
            continue
        v = options[key]
        if type(v) is not int or (least is not None and v < least):
            need = "an integer" if least is None else f"an integer >= {least}"
            raise FormatError(f"option {key!r} must be {need}, got {v!r}")


def instance_from_json(data) -> InstanceSpec:
    if not isinstance(data, dict):
        raise FormatError("instance must be a JSON object")
    for key in ("ring", "p", "q", "x"):
        if key not in data:
            raise FormatError(f"instance is missing {key!r}")
    ring = _ring_from_json(data["ring"])
    try:
        ext = SimpleExtension(ring, poly_from_json(data["p"], ring))
        q = form_from_json(data["q"], ring)
    except (NotSimple, NotRegular) as exc:
        raise FormatError(str(exc)) from None
    if not isinstance(data["x"], list) or not data["x"]:
        raise FormatError("'x' must be a non-empty list of coordinate vectors")
    if len(data["x"]) != q.rank:
        raise FormatError(
            f"witness has {len(data['x'])} vectors but the form has rank {q.rank}"
        )
    xs = []
    for vec in data["x"]:
        if not isinstance(vec, list) or len(vec) != ext.n:
            raise FormatError(f"each witness vector needs {ext.n} coordinates")
        xs.append(ext.element([element_from_json(ring, v) for v in vec]))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise FormatError("'options' must be an object")
    _check_options(options)
    return InstanceSpec(ext=ext, q=q, xs=xs, options=options)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer literal past the int/str digit limit
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None


def load_instance(path: str) -> InstanceSpec:
    return instance_from_json(_load_json(path))


def load_certificate(path: str, ring) -> NormCertificate:
    return certificate_from_json(ring, _load_json(path))
