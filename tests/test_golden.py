"""Byte identity of certificates: the README promises the same JSON bytes for
the same instance and seed, and this digest pins it across refactors.  A
change that alters the bytes on purpose (say, a different search) updates
the digest and says why."""

import hashlib
import random
from fractions import Fraction as F

from normcert import rings
from normcert.certify import CertifyStats, certify
from normcert.extension import SimpleExtension
from normcert.instances import random_instance
from normcert.poly import Poly
from normcert.qform import QuadraticForm
from normcert.rings import QQ, QQ_LOCAL_X
from normcert.serialize import certificate_to_json, dumps

GOLDEN_SHA256 = "e3afe8e1e9d0b82a4dc51dd23ed12fcdd6e2bd21280340b5f3a675e1836a6e0f"

# (ring, n, m, seed): random_instance(ring, Random(seed), n, m), certified with rng=seed
RANDOM_CASES = (
    [(QQ, 3, m, seed) for m in (1, 2) for seed in range(3)]
    + [(QQ, 4, 1, 0), (QQ, 4, 1, 1), (QQ, 4, 2, 0)]
    # the q-tall benchmark shape: two reduction levels, 5x5 eliminations
    + [(QQ, 5, 1, 0), (QQ, 5, 1, 1)]
    + [(QQ_LOCAL_X, 2, m, seed) for m, seed in ((1, 0), (2, 1), (3, 2))]
    # 3x3 eliminations over Z[x], whose Bareiss steps divide by polynomials
    + [(QQ_LOCAL_X, 3, 1, 0)]
)


def _instances():
    for ring, n, m, seed in RANDOM_CASES:
        inst = random_instance(ring, random.Random(seed), n, m)
        yield inst.ext, inst.q, inst.xs, seed
    # q_S(x) = 5 is a scalar, so the first level searches a primitive scaling
    ext = SimpleExtension(QQ, Poly(QQ, [3, 0, 0, 1]))
    yield ext, QuadraticForm(QQ, [5, 7]), [ext.one(), ext.zero()], 0
    # the b = 1 probe fails, so the general-position search samples and lifts
    ext = SimpleExtension(QQ_LOCAL_X, Poly(QQ_LOCAL_X, [-2, 0, 1]))
    xs = [ext.element([F(1, 2), F(1, 2)]), ext.element([F(-1, 2), F(1, 2)])]
    yield ext, QuadraticForm(QQ_LOCAL_X, [1, -1]), xs, 0


def _digest():
    digest = hashlib.sha256()
    stats = CertifyStats()
    for ext, q, xs, seed in _instances():
        for with_trace in (False, True):
            cert = certify(ext, q, xs, rng=seed, with_trace=with_trace, stats=stats)
            digest.update(dumps(certificate_to_json(ext.ring, cert)).encode())
    assert stats.genpos_tries > stats.genpos_calls
    return digest.hexdigest()


def test_certificates_are_byte_identical():
    assert _digest() == GOLDEN_SHA256


def test_modular_gcd_fallback_is_byte_identical(monkeypatch):
    # the heuristic gcd gives up on every pair, so the fallback (the
    # primitive pseudo-remainder sequence) computes every gcd and cofactor
    # of the Q[x]_(x) cases
    calls = []
    fallback = rings._zgcd_prs

    def counted(a, b):
        calls.append(1)
        return fallback(a, b)

    monkeypatch.setattr(rings, "_zgcd_heuristic", lambda a, b: None)
    monkeypatch.setattr(rings, "_zgcd_prs", counted)
    assert _digest() == GOLDEN_SHA256
    assert calls
