"""JSON encodings for every exchanged object.

Numbers are always strings so arbitrary precision survives the trip:
rationals are "p/q" (the "/q" omitted when q = 1), local rational
functions are {"num": [...], "den": [...]} with rational-string
coefficient lists ascending by degree; integers past Python's int/str
digit limit go through `decimal.Decimal`, which has no such limit.  Every
malformed input, an entry outside the ring or a modulus that is not
simple included, is a FormatError, whose message echoes an offending
value cut short (`reprlib`), so its size does not reach stderr.
Emission is deterministic (sorted keys, fixed separators) so identical
inputs and seeds produce byte-identical artifacts.

Each vector of an instance or a certificate (the modulus, the diagonal,
each witness vector, each factor vector, and the target as a vector of
one) is read in one pass into the integral format of its ring, which the
ring object is (`rings.Ring`): numerators over one denominator in lowest
terms.  The reader and the writer branch once, on the ring's numerator
type (the type of `num_one`): an `int` entry is a rational string, a
`ZX` entry a num/den object (or a rational string, for a constant).  No
ring id is compared, so a ring with either numerator type needs no
branch of its own.  When every string of the vector is an integer
-?[0-9]+ (for `ZX`: every entry is {"num": [integers], "den": ["1"]}),
one regular expression over the joined strings checks them all and `int`
reads each; those numerators over one are already in lowest terms, so no
gcd runs.  Every other vector is read entry by entry into a numerator and
a denominator, string by string: -?[0-9]+(/[0-9]+)? straight into an
integer pair, and any other string through `Fraction` (and `Decimal` past
the int/str digit limit), so the accepted strings, the refused ones and
the values are those of a parser with one `Fraction` per string.  The
entries then go over one common denominator (the ring's `common`), are
put in lowest terms once (`lowest`) and are refused unless the
denominator passes `in_ring`.
The modulus, the form, the witness and each factor are built from those
numerators (`Poly.from_integral`, `QuadraticForm.from_integral`, the
`ValueFactor` fields), so no ring value is built for a coefficient; only
the target is one ring value, the one-entry case (`element_from_json`).
The schema is closed: every object names its keys, and any other key is
a FormatError.

Every vector is written from its numerators over its denominator by one
writer (`_vector_to_json`): the modulus and every other polynomial, the
diagonal, each witness vector, each factor and each level's b.  Over one,
or with one entry, each entry is already in lowest terms; otherwise each
is put in lowest terms once by the ring's `lowest`.  The target and each
level's r and q0 are single ring values, its one-entry case
(`element_to_json`).  A local rational function is scaled so that its
lowest-order nonzero denominator coefficient is 1
(`rings.canonical_ratios`).
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from .certify import NormCertificate
from .errors import NotRegular, NotSimple
from .extension import ExtElement, SimpleExtension
from .poly import Poly, _poly
from .qform import QuadraticForm, ValueFactor
from .rings import ZX, ZX_ONE, _ztrim, canonical_ratios, get_ring, int_text


class FormatError(ValueError):
    """Malformed instance or certificate JSON."""


# the keys each object may have; any other key is a FormatError
_INSTANCE_KEYS = frozenset(("ring", "p", "q", "x", "options"))
_OPTION_KEYS = frozenset(("seed", "max_tries", "bound"))
_CERTIFICATE_KEYS = frozenset(("target", "factors", "trace"))
_FACTOR_KEYS = frozenset(("vector", "exp"))
_ENTRY_KEYS = frozenset(("num", "den"))


# an offending value is echoed in a message as the stdlib's cut-short
# repr: three entries of one level (deeper ones read [...] or {...}), and
# strings and numbers cut to 24 characters, so 170 characters at most
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxlist, _ECHO.maxdict = 1, 3, 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 24
_echo = _ECHO.repr


def _check_keys(data: dict, allowed, what: str):
    if not data.keys() <= allowed:
        # JSON keys are strings; the message names the least unknown one
        raise FormatError(f"unknown key {_echo(min(data.keys() - allowed))} in {what}")


def _ring_from_json(ring_id):
    if not isinstance(ring_id, str):
        raise FormatError(f"ring id must be a string, got {_echo(ring_id)}")
    try:
        return get_ring(ring_id)
    except ValueError:
        raise FormatError(f"unknown ring id {_echo(ring_id)}") from None


# the rational strings read straight into integers; any other string goes
# through Fraction, which also takes signs, spaces, decimals and exponents
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a list of integer strings joined by commas
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
_ONE_TEXT = ["1"]


def _integers(texts):
    """The ints of a non-empty list of strings that are all -?[0-9]+ and
    within the int/str digit limit, from one regular expression over the
    joined list; None for any other list."""
    try:
        joined = ",".join(texts)
    except TypeError:
        # an entry that is not a string
        return None
    if _INTEGERS.fullmatch(joined) is None:
        return None
    try:
        return [int(t) for t in texts]
    except ValueError:
        # a string with a comma in it, or past the int/str digit limit
        return None


def _local_integers(data):
    """The ZX numerators of a list of Q[x]_(x) entries that are all
    {"num": [integer strings], "den": ["1"]}, over one; None for any other
    list."""
    texts, ends = [], [0]
    for entry in data:
        if (type(entry) is not dict or len(entry) != 2 or entry.get("den") != _ONE_TEXT
                or type(num := entry.get("num")) is not list):
            return None
        texts += num
        ends.append(len(texts))
    ints = _integers(texts)
    if ints is None:
        return None
    return [ZX(_ztrim(ints[start:end])) for start, end in zip(ends, ends[1:])]


def _ratio_to_json(top: int, bottom: int) -> str:
    """top / bottom in lowest terms as a rational string, bottom nonzero."""
    g = gcd(top, bottom)
    if bottom < 0:
        g = -g
    return _rational_to_json(top // g, bottom // g)


def _rational_to_json(num: int, den: int) -> str:
    """The rational string of num / den, given in lowest terms: "p", or
    "p/q" when q > 1, with every digit."""
    text = int_text(num)
    return text if den == 1 else f"{text}/{int_text(den)}"


def _rational_pair(data) -> tuple[int, int]:
    """(p, q) with q > 0 and p / q the value of a rational string, not
    necessarily in lowest terms."""
    if not isinstance(data, str):
        raise FormatError(f"expected a rational string, got {_echo(data)}")
    match = _RATIONAL.fullmatch(data)
    if match is None:
        try:
            v = Fraction(data)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad rational {_echo(data)}") from None
        return v.numerator, v.denominator
    num, den = match.groups()
    try:
        p, q = int(num), (int(den) if den else 1)
    except ValueError:
        # past the int/str digit limit, which Decimal does not have
        p, q = int(Decimal(num)), int(Decimal(den or "1"))
    if not q:
        raise FormatError(f"bad rational {_echo(data)}: zero denominator")
    return p, q


def _local_to_json(num: ZX, den: ZX) -> dict:
    """The JSON object of the local rational function num / den, given in
    lowest terms."""
    if den == ZX_ONE:
        # the integer coefficients, with den(0) already 1
        return {"num": [int_text(c) for c in num.c], "den": ["1"]}
    num, den = canonical_ratios(num, den)
    return {
        "num": [_ratio_to_json(*r) for r in num],
        "den": [_ratio_to_json(*r) for r in den],
    }


def _int_poly(data) -> tuple[tuple, int]:
    """A list of rational strings as integer polynomial coefficients (no
    trailing zero) over the lcm of their denominators: integers over one by
    `_integers` when it reads them, else string by string."""
    if not isinstance(data, list):
        raise FormatError(f"num and den must be lists, got {_echo(data)}")
    cs = _integers(data)
    if cs is not None:
        return _ztrim(cs), 1
    pairs = [_rational_pair(c) for c in data]
    den = lcm(*[q for _, q in pairs])
    return _ztrim([p * (den // q) for p, q in pairs]), den


def _local_pair(data) -> tuple[ZX, ZX]:
    """An element of Q[x]_(x) as an integer polynomial numerator over a
    nonzero integer polynomial denominator, not necessarily in lowest
    terms."""
    if isinstance(data, str):
        # shorthand: a constant
        p, q = _rational_pair(data)
        return ZX((p,) if p else ()), ZX((q,))
    if not isinstance(data, dict) or "num" not in data:
        raise FormatError(f"expected a num/den object, got {_echo(data)}")
    _check_keys(data, _ENTRY_KEYS, "a Q[x]_(x) entry")
    (num, dn), (den, dd) = _int_poly(data["num"]), _int_poly(data.get("den", ["1"]))
    if not den:
        raise FormatError("rational function with zero denominator")
    # (num / dn) / (den / dd)
    if dd != 1:
        num = tuple([c * dd for c in num])
    if dn != 1:
        den = tuple([c * dn for c in den])
    return ZX(num), ZX(den)


def _vector_from_json(ring, data) -> tuple[tuple, object]:
    """A list of ring elements as numerators over one denominator in lowest
    terms in the integral format of `ring`, whose numerators are ints or
    `ZX`; FormatError when an entry is malformed or not in the ring."""
    if not isinstance(data, list):
        raise FormatError(f"expected a list of {ring.id} elements, got {_echo(data)}")
    if isinstance(ring.num_one, int):
        nums, pair = _integers(data), _rational_pair
    else:
        nums, pair = _local_integers(data), _local_pair
    if nums is not None:
        # integers, or integer polynomials, over one are in lowest terms
        return tuple(nums), ring.num_one
    pairs = [pair(c) for c in data]
    den, quos = ring.common([d for _, d in pairs])
    nums, den = ring.lowest([v * k for (v, _), k in zip(pairs, quos)], den)
    if not ring.in_ring(den):
        raise FormatError(f"an entry is not in {ring.id}")
    return nums, den


def element_from_json(ring, data):
    """One element of `ring`: the one-entry case of the vector decoder."""
    (num,), den = _vector_from_json(ring, [data])
    return ring.value(num, den)


def _vector_to_json(ring, nums, den) -> list:
    """The JSON list of the vector nums / den in lowest terms in the
    integral format of `ring`, whose numerators are ints or `ZX`: each
    entry put in lowest terms once by the ring's `lowest`, except over one
    or in a vector of one entry, where each entry already is."""
    entry = _rational_to_json if isinstance(ring.num_one, int) else _local_to_json
    if den == ring.num_one or len(nums) == 1:
        return [entry(v, den) for v in nums]
    vector = []
    for v in nums:
        (num,), d = ring.lowest((v,), den)
        vector.append(entry(num, d))
    return vector


def element_to_json(ring, a):
    """One element of `ring`: the one-entry case of the vector writer."""
    num, den = ring.split(a)
    return _vector_to_json(ring, (num,), den)[0]


def poly_to_json(p: Poly) -> dict:
    return {"ring": p.ring.id, "coeffs": _vector_to_json(p.ring, *p.integral)}


def _ring_and_entries(data, key: str, ring):
    """The ring of {"ring": ..., key: [...]} (`ring` without that key) and
    the entries, or `ring` and a bare list."""
    if isinstance(data, dict):
        _check_keys(data, {"ring", key}, f"the object with {key!r}")
        if key in data:
            ring = _ring_from_json(data["ring"]) if "ring" in data else ring
            data = data[key]
    return ring, data


def factor_to_json(ring, f: ValueFactor) -> dict:
    return {"vector": _vector_to_json(ring, f.nums, f.den), "exp": f.exponent}


def _factor_from_json(ring, data) -> ValueFactor:
    if not isinstance(data, dict) or "vector" not in data or "exp" not in data:
        raise FormatError(f"expected a value factor, got {_echo(data)}")
    _check_keys(data, _FACTOR_KEYS, "a factor")
    if type(data["exp"]) is not int or data["exp"] not in (1, -1):
        raise FormatError(f"factor exponent must be 1 or -1, got {_echo(data['exp'])}")
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
            "b": _vector_to_json(ring, *step.b.integral),
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
    _check_keys(data, _CERTIFICATE_KEYS, "the certificate")
    if not isinstance(data["factors"], list):
        raise FormatError(f"'factors' must be a list, got {_echo(data['factors'])}")
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
        "q": _vector_to_json(ring, *inst.q.integral),
        "x": [_vector_to_json(ring, *x.integral) for x in inst.xs],
        "options": dict(inst.options),
    }


def _check_options(options: dict):
    _check_keys(options, _OPTION_KEYS, "'options'")
    # bool is an int subclass, so JSON true would pass a bare isinstance test
    for key, least in (("seed", None), ("max_tries", 1), ("bound", 1)):
        if key not in options:
            continue
        v = options[key]
        if type(v) is not int or (least is not None and v < least):
            need = "an integer" if least is None else f"an integer >= {least}"
            raise FormatError(f"option {key!r} must be {need}, got {_echo(v)}")


def instance_from_json(data) -> InstanceSpec:
    if not isinstance(data, dict):
        raise FormatError("instance must be a JSON object")
    _check_keys(data, _INSTANCE_KEYS, "the instance")
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
        ext = SimpleExtension(ring, _poly(p_ring, *_vector_from_json(p_ring, coeffs)))
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
        xs.append(ExtElement(ext, *_vector_from_json(ring, vec)))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise FormatError("'options' must be an object")
    _check_options(options)
    return InstanceSpec(ext=ext, q=q, xs=xs, options=options)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer literal past the int/str digit limit; RecursionError is
        # nesting deeper than the parser's recursion limit
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        except RecursionError:
            raise FormatError(f"{path}: JSON nested too deeply") from None


def load_instance(path: str) -> InstanceSpec:
    return instance_from_json(_load_json(path))


def load_certificate(path: str, ring) -> NormCertificate:
    return certificate_from_json(ring, _load_json(path))
