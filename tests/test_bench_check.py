"""The benchmark's independent checker (`bench/check.py`) decides its
verdicts with `RatFunc` arithmetic over Q[x]_(x), so a change to that
arithmetic can make it accept a wrong certificate or reject a right one.
This loads the checker from its path, without importing the benchmark as
a package, and runs it on fresh certificates."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from normcert import QQ, QQ_LOCAL_X, certify, random_instance, serialize

CHECK = Path(__file__).resolve().parent.parent / "bench" / "check.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("bench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _instance_and_certificate(ring, seed: int, n: int, m: int):
    """A fresh instance and its certificate, as the JSON objects the
    checker reads."""
    rng = random.Random(seed)
    inst = random_instance(ring, rng, n, m, 5)
    cert = certify(inst.ext, inst.q, inst.xs, rng=rng.randrange(2**31))
    return (json.loads(serialize.dumps(serialize.instance_to_json(inst))),
            json.loads(serialize.dumps(serialize.certificate_to_json(ring, cert))))


@pytest.mark.parametrize("ring, n, m", [(QQ, 3, 2), (QQ_LOCAL_X, 2, 3), (QQ_LOCAL_X, 3, 1)])
def test_checker_accepts_fresh_certificates_and_rejects_an_altered_target(ring, n, m):
    check = _load_check()
    for seed in range(3):
        instance, cert = _instance_and_certificate(ring, seed, n, m)
        assert check.check_certificate(instance, cert) == []
        # the target plus one is another ring value, and no longer the norm
        target = serialize.element_from_json(ring, cert["target"]) + 1
        altered = dict(cert, target=serialize.element_to_json(ring, target))
        assert "the target is not N(q_S(x))" in check.check_certificate(instance, altered)
