"""Byte identity of certificates: the README promises the same JSON bytes for
the same instance and seed, and these digests pin it across refactors: one
over a fixed list of instances, and one per benchmark workload over its
seed-11 corpus.  A change that alters the bytes on purpose (say, a different
search) updates the digests and says why."""

import hashlib
import importlib.util
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from normcert import rings
from normcert.certify import CertifyStats, certify, verify
from normcert.extension import SimpleExtension
from normcert.instances import random_instance
from normcert.poly import Poly, cleared
from normcert.qform import QuadraticForm
from normcert.rings import QQ, QQ_LOCAL_X
from normcert.serialize import (
    InstanceSpec,
    certificate_from_json,
    certificate_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    trace_to_json,
)

from oracles import factor_vector

GOLDEN_SHA256 = "77734a6b173bb891e492d4cf2ba34df6ae739618cf6c2f74f9615d56480e4950"

# sha256 of the concatenated certificate JSON texts that the benchmark's
# certify operation gives for its seed-11 corpus of each workload
CORPUS_SHA256 = {
    "q-small": "e0c689cba7c673ef5c0e16f69b5445299bf5fd858e493d27c7edd159efddab79",
    "q-tall": "f7c90c01de3b93a1c69ccde3a5318f588b1e7d16d15788cf5aa647daa2b311cd",
    "local": "e825eccdbe7aed2533585d26d375ccf2e4bb265e0cf306638d1b78b719ff9959",
}
CORPUS_SEED = 11

# sha256 of the certificate texts of SCALED_CASES, which pin the scaling
# search: every first level there samples, since its b = 1 probe fails
SCALED_SHA256 = "7179361f6390745efc7b1dead19f9fa6d97530743f57a7e8b88835b206ea5ce2"

# sha256 of the instance JSON texts that `instance_to_json` writes for
# _instances(), then of the seed-11 corpus texts of each workload
INSTANCE_SHA256 = "27e653994c880767402bec2f20a66fb8e5423d2a92c276375eb54324e8ff2929"

# sha256 of the instance, certificate and --trace JSON texts of the
# north-star grid, GRID_CASES, each certified with rng=0
GRID_SHA256 = "4c9be6331a410f2d4a3613e9ff0dbfc08f5f47a9e430b973167df8b67fc5409a"

BENCH = Path(__file__).resolve().parent.parent / "bench"

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


# (ring, n, m, seed): random_instance(ring, Random(seed), n, m)
GRID_CASES = [(ring, n, m, seed)
              for ring, degrees in ((QQ, range(2, 8)), (QQ_LOCAL_X, range(2, 5)))
              for n in degrees for m in range(1, 5) for seed in (3, 4, 29)]


def _instances():
    for ring, n, m, seed in RANDOM_CASES:
        inst = random_instance(ring, random.Random(seed), n, m)
        yield inst.ext, inst.q, inst.xs, seed
    # q_S(x) = 5 is a scalar, so the first level skips the b = 1 probe and
    # searches a scaling that makes it primitive
    ext = SimpleExtension(QQ, Poly(QQ, [3, 0, 0, 1]))
    yield ext, QuadraticForm(QQ, [5, 7]), [ext.one(), ext.scalar(0)], 0
    # the b = 1 probe fails, so the general-position search samples
    ext = SimpleExtension(QQ_LOCAL_X, Poly(QQ_LOCAL_X, [-2, 0, 1]))
    xs = [ext.element([F(1, 2), F(1, 2)]), ext.element([F(-1, 2), F(1, 2)])]
    yield ext, QuadraticForm(QQ_LOCAL_X, [1, -1]), xs, 0


# (n, m, seed): the extension and form of random_instance(QQ_LOCAL_X,
# Random(seed), n, m) with scalar witnesses, so q_S(x) is a scalar unit,
# never primitive for n >= 2, and the first level searches a scaling
SCALED_CASES = [(n, m, seed) for n in (3, 4) for m in (1, 2) for seed in range(3)]


def _scaled_instances():
    for n, m, seed in SCALED_CASES:
        rng = random.Random(seed)
        inst = random_instance(QQ_LOCAL_X, rng, n, m)
        xs = None
        while xs is None or not inst.q.evaluate_ext(xs).is_invertible():
            xs = [inst.ext.scalar(QQ_LOCAL_X.element((rng.randint(-9, 9), rng.randint(-9, 9))))
                  for _ in range(m)]
        yield inst.ext, inst.q, xs, seed


def _texts(ring, cert):
    """The certificate's JSON text without its records, then with them, as
    `normcert certify` writes it without and with --trace."""
    out = certificate_to_json(ring, cert)
    plain = dumps(out)
    out["trace"] = trace_to_json(ring, cert.trace)
    return plain, dumps(out)


def _digest():
    digest = hashlib.sha256()
    stats = CertifyStats()
    for ext, q, xs, seed in _instances():
        cert = certify(ext, q, xs, rng=seed, stats=stats)
        for text in _texts(ext.ring, cert):
            digest.update(text.encode())
    assert stats.genpos_tries > stats.genpos_calls
    return digest.hexdigest()


def test_certificates_are_byte_identical():
    assert _digest() == GOLDEN_SHA256


def test_scaled_levels_build_every_factor_from_numerators():
    # a first level with a scaling b writes N(b)^(-2) into its pair; like
    # every other factor, that pair is built in the integral format, so
    # verify clears no ring value
    scaled = 0
    for ext, q, xs, seed in _instances():
        cert = certify(ext, q, xs, rng=seed)
        if cert.trace[0].b == ext.one():
            continue
        scaled += 1
        for f in cert.factors:
            assert f.ring is ext.ring
            assert (f.nums, f.den) == cleared(ext.ring, factor_vector(f))
    assert scaled == 2


def test_grid_is_byte_identical():
    # the regression oracle of a refactor: 108 instances, their certificates
    # and their records
    digest = hashlib.sha256()
    for ring, n, m, seed in GRID_CASES:
        inst = random_instance(ring, random.Random(seed), n, m)
        digest.update(dumps(instance_to_json(inst)).encode())
        for text in _texts(ring, certify(inst.ext, inst.q, inst.xs, rng=0)):
            digest.update(text.encode())
    assert digest.hexdigest() == GRID_SHA256


def test_decoded_instances_reproduce_the_digest():
    # the same certificates from the instances written to JSON and read
    # back, and each certificate read back verifies
    digest = hashlib.sha256()
    for ext, q, xs, seed in _instances():
        spec = InstanceSpec(ext=ext, q=q, xs=list(xs), options={})
        inst = instance_from_json(json.loads(dumps(instance_to_json(spec))))
        cert = certify(inst.ext, inst.q, inst.xs, rng=seed)
        for text in _texts(inst.ring, cert):
            digest.update(text.encode())
            back = certificate_from_json(inst.ring, json.loads(text))
            assert back.factors == cert.factors
            assert verify(inst.ext, inst.q, inst.xs, back)
    assert digest.hexdigest() == GOLDEN_SHA256


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


def test_scaled_local_certificates_are_byte_identical():
    digest = hashlib.sha256()
    for ext, q, xs, seed in _scaled_instances():
        cert = certify(ext, q, xs, rng=seed)
        assert cert.trace[0].b != ext.one() and cert.trace[0].tries > 1
        for text in _texts(ext.ring, cert):
            digest.update(text.encode())
    assert digest.hexdigest() == SCALED_SHA256


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py loaded from its path, without importing the benchmark as
    a package.  It imports its sibling modules `check` and `layers` by name,
    so its directory is on the path while it loads, and its dataclasses
    need it in sys.modules then; those three names are taken out again."""
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for name in {spec.name, "check", "layers"} - before:
            sys.modules.pop(name, None)
    return module


@pytest.mark.parametrize("workload", sorted(CORPUS_SHA256))
def test_benchmark_corpus_is_byte_identical(bench_run, workload):
    digest = hashlib.sha256()
    for text in bench_run.make_corpus(workload, CORPUS_SEED):
        digest.update(bench_run.certify_op(text).encode())
    assert digest.hexdigest() == CORPUS_SHA256[workload]


def test_instances_are_byte_identical(bench_run):
    digest = hashlib.sha256()
    for ext, q, xs, _ in _instances():
        spec = InstanceSpec(ext=ext, q=q, xs=list(xs), options={})
        digest.update(dumps(instance_to_json(spec)).encode())
    for workload in sorted(CORPUS_SHA256):
        for text in bench_run.make_corpus(workload, CORPUS_SEED):
            digest.update(text.encode())
    assert digest.hexdigest() == INSTANCE_SHA256
