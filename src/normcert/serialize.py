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
Each vector of an instance or a certificate (the modulus, the diagonal,
each witness vector, each factor vector) is decoded straight from those
pairs into the integral format of its ring (`poly.integral_format`):
numerators over one denominator in lowest terms, integers over Q and
integer polynomials over Q[x]_(x).  A local entry is its cleared numerator
over its cleared denominator (one lcm per coefficient list); when every
entry of a vector has a constant denominator, the vector's denominator is
one integer lcm.  A vector whose denominator in lowest terms vanishes at
0 has an entry with a pole there.  The modulus, the form, the witness and
each factor are built from those numerators (`Poly.from_integral`,
`QuadraticForm.from_integral`, the `ValueFactor` fields), so no ring value
is built for a coefficient; only the target is one ring value.  A factor
over Q is written back from its numerators over its denominator, and one
over Q[x]_(x) from its ring values (`ValueFactor.vector`); a local rational
function is written back from its integer form with one gcd per
coefficient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .certify import NormCertificate
from .errors import NotRegular, NotSimple
from .extension import ExtElement, SimpleExtension
from .poly import Poly, _poly, integral_format
from .qform import QuadraticForm, ValueFactor
from .rings import QQ, ZX, get_ring, int_text, shown


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


def _ratio_to_json(top: int, bottom: int) -> str:
    """top / bottom in lowest terms as a rational string, bottom nonzero."""
    g = gcd(top, bottom)
    if bottom < 0:
        g = -g
    num = int_text(top // g)
    return num if bottom == g else f"{num}/{int_text(bottom // g)}"


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
        p, q = int(num), (int(den) if den else 1)
    except ValueError:
        # past the int/str digit limit, which Decimal does not have
        p, q = int(Decimal(num)), int(Decimal(den or "1"))
    if not q:
        raise FormatError(f"bad rational {data!r}: zero denominator")
    return p, q


def element_to_json(ring, a):
    if ring.id == QQ.id:
        # "p", or "p/q" when q > 1, with every digit: the text of a message
        return shown(a)
    num, den = a.canonical_ratios()
    return {
        "num": [_ratio_to_json(*r) for r in num],
        "den": [_ratio_to_json(*r) for r in den],
    }


def _int_poly(data) -> tuple[tuple, int]:
    """A list of rational strings as integer polynomial coefficients (no
    trailing zero) over the lcm of their denominators."""
    if not isinstance(data, list):
        raise FormatError(f"num and den must be lists, got {data!r}")
    pairs = [_rational_pair(c) for c in data]
    den = lcm(*[q for _, q in pairs])
    cs = [p for p, _ in pairs] if den == 1 else [p * (den // q) for p, q in pairs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs), den


def _local_pair(data) -> tuple[tuple, tuple]:
    """An element of Q[x]_(x) as the integer coefficients of a numerator
    and of a nonzero denominator, not necessarily in lowest terms."""
    if isinstance(data, str):
        # shorthand: a constant
        p, q = _rational_pair(data)
        return ((p,) if p else ()), (q,)
    if not isinstance(data, dict) or "num" not in data:
        raise FormatError(f"expected a num/den object, got {data!r}")
    (num, dn), (den, dd) = _int_poly(data["num"]), _int_poly(data.get("den", ["1"]))
    if not den:
        raise FormatError("rational function with zero denominator")
    # (num / dn) / (den / dd)
    if dd != 1:
        num = tuple([c * dd for c in num])
    if dn != 1:
        den = tuple([c * dn for c in den])
    return num, den


def _vector_from_json(ring, data) -> tuple[tuple, object]:
    """A list of ring elements as numerators over one denominator in lowest
    terms in the integral format of `ring`; FormatError when an entry is
    malformed or has a pole at 0."""
    if not isinstance(data, list):
        raise FormatError(f"expected a list of {ring.id} elements, got {data!r}")
    fmt = integral_format(ring)
    if ring.id == QQ.id:
        pairs = [_rational_pair(c) for c in data]
        den = lcm(*[q for _, q in pairs])
        if den == 1:
            # integers are in lowest terms over one
            return tuple([p for p, _ in pairs]), 1
        nums = [p * (den // q) for p, q in pairs]
    else:
        pairs = [_local_pair(c) for c in data]
        if all(len(d) == 1 for _, d in pairs):
            # constant denominators: one integer lcm, no division in Z[x]
            den = lcm(*[d[0] for _, d in pairs])
            nums = [ZX(v if (k := den // d[0]) == 1 else tuple([c * k for c in v]))
                    for v, d in pairs]
            den = ZX((den,))
        else:
            den, quos = fmt.common([ZX(d) for _, d in pairs])
            nums = [ZX(v) * k for (v, _), k in zip(pairs, quos)]
    nums, den = fmt.lowest(nums, den)
    if not fmt.in_ring(den):
        raise FormatError(f"an entry has a pole at 0, so it is not in {ring.id}")
    return nums, den


def element_from_json(ring, data):
    """One element of `ring`: the one-entry case of the vector decoder."""
    (num,), den = _vector_from_json(ring, [data])
    return integral_format(ring).value(num, den)


def poly_to_json(p: Poly) -> dict:
    return {
        "ring": p.ring.id,
        "coeffs": [element_to_json(p.ring, c) for c in p.coeffs],
    }


def _ring_and_entries(data, key: str, ring):
    """The ring of {"ring": ..., key: [...]} (`ring` without that key) and
    the entries, or `ring` and a bare list."""
    if isinstance(data, dict) and key in data:
        ring = _ring_from_json(data["ring"]) if "ring" in data else ring
        data = data[key]
    return ring, data


def factor_to_json(ring, f: ValueFactor) -> dict:
    if ring.id == QQ.id:
        # each entry straight from its numerator over the one denominator
        vector = [_ratio_to_json(v, f.den) for v in f.nums]
    else:
        vector = [element_to_json(ring, v) for v in f.vector]
    return {"vector": vector, "exp": f.exponent}


def _factor_from_json(ring, data) -> ValueFactor:
    if not isinstance(data, dict) or "vector" not in data or "exp" not in data:
        raise FormatError(f"expected a value factor, got {data!r}")
    if type(data["exp"]) is not int or data["exp"] not in (1, -1):
        raise FormatError(f"factor exponent must be 1 or -1, got {data['exp']!r}")
    return ValueFactor(ring, *_vector_from_json(ring, data["vector"]), data["exp"])


def trace_to_json(ring, steps) -> list:
    """The record of each reduction level, top level first."""
    out = []
    for step in steps:
        record = {
            "n": step.n,
            "p": poly_to_json(step.p),
            "h": poly_to_json(step.h),
            "r": element_to_json(ring, step.r),
            "q0": element_to_json(ring, step.q0),
            "b": [element_to_json(ring, v) for v in step.b.coords],
        }
        g = step.g
        if g is not None:
            record["g"] = poly_to_json(g)
        out.append(record)
    return out


def certificate_to_json(ring, cert: NormCertificate) -> dict:
    """The target and the factors; `trace_to_json` writes the records."""
    return {
        "target": element_to_json(ring, cert.target),
        "factors": [factor_to_json(ring, f) for f in cert.factors],
    }


def certificate_from_json(ring, data) -> NormCertificate:
    if not isinstance(data, dict) or "target" not in data or "factors" not in data:
        raise FormatError("certificate needs 'target' and 'factors'")
    if not isinstance(data["factors"], list):
        raise FormatError(f"'factors' must be a list, got {data['factors']!r}")
    return NormCertificate(
        target=element_from_json(ring, data["target"]),
        factors=tuple(_factor_from_json(ring, f) for f in data["factors"]),
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
    p_ring, coeffs = _ring_and_entries(data["p"], "coeffs", ring)
    q_ring, diag = _ring_and_entries(data["q"], "diag", ring)
    if q_ring is not ring:
        raise FormatError(f"the form is over {q_ring.id}, the instance over {ring.id}")
    try:
        # the decoded modulus is in lowest terms, so built as it is
        ext = SimpleExtension(ring, _poly(
            p_ring, integral_format(p_ring), *_vector_from_json(p_ring, coeffs)))
        q = QuadraticForm.from_integral(ring, *_vector_from_json(ring, diag))
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
        xs.append(ExtElement(ext, None, *_vector_from_json(ring, vec)))
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
