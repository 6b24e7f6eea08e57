"""Random problem instances and the batch certify-verify suite."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .certify import CertifyStats, certify
from .errors import InternalAssertion, NormCertError
from .extension import SimpleExtension
from .genpos import DEFAULT_BOUND, DEFAULT_MAX_TRIES
from .poly import Poly
from .qform import QuadraticForm
from .rings import QQ, RatFunc
from .serialize import InstanceSpec

_RESAMPLE_LIMIT = 1000


def _random_element(ring, rng: random.Random, bound: int):
    if ring.id == QQ.id:
        return ring.element(rng.randint(-bound, bound))
    # a + b*x keeps local instances genuinely local but cheap
    return ring.element(RatFunc((rng.randint(-bound, bound), rng.randint(-bound, bound))))


def _random_unit(ring, rng: random.Random, bound: int):
    for _ in range(_RESAMPLE_LIMIT):
        a = _random_element(ring, rng, bound)
        if ring.is_invertible(a):
            return a
    raise RuntimeError("could not sample a unit")  # pragma: no cover


def random_instance(
    ring, rng: random.Random, n: int, m: int, coeff_bound: int = 10
) -> InstanceSpec:
    """A random extension, diagonal form and witness with q_S(x) a unit."""
    for _ in range(_RESAMPLE_LIMIT):
        coeffs = [_random_element(ring, rng, coeff_bound) for _ in range(n)]
        coeffs[0] = _random_unit(ring, rng, coeff_bound)
        ext = SimpleExtension(ring, Poly(ring, coeffs + [ring.one]))
        q = QuadraticForm(ring, [_random_unit(ring, rng, coeff_bound) for _ in range(m)])
        for _ in range(_RESAMPLE_LIMIT):
            xs = [
                ext.element([_random_element(ring, rng, coeff_bound) for _ in range(n)])
                for _ in range(m)
            ]
            if q.evaluate_ext(xs).is_invertible():
                return InstanceSpec(ext=ext, q=q, xs=xs, options={})
    raise RuntimeError("could not sample an instance")  # pragma: no cover


@dataclass
class SuiteResult:
    total: int
    verified: int
    failures: list = field(default_factory=list)
    internal_errors: list = field(default_factory=list)
    stats: CertifyStats = field(default_factory=CertifyStats)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verified == self.total


def run_random_suite(
    ring,
    count: int,
    seed: int = 0,
    n_choices=(2, 3, 4, 5),
    m_choices=(1, 2, 3, 4),
    coeff_bound: int = 10,
    max_tries: int = DEFAULT_MAX_TRIES,
    bound: int = DEFAULT_BOUND,
) -> SuiteResult:
    """Certify `count` random instances.

    `certify` verifies each certificate before returning it, so a returned
    certificate counts as verified.  A failed engine identity
    (`InternalAssertion`, a bug) goes to `internal_errors`, every other
    library error to `failures`, each as (index, message).
    """
    rng = random.Random(seed)
    result = SuiteResult(total=count, verified=0)
    start = time.monotonic()
    for index in range(count):
        n = rng.choice(list(n_choices))
        m = rng.choice(list(m_choices))
        inst = random_instance(ring, rng, n, m, coeff_bound)
        try:
            certify(
                inst.ext,
                inst.q,
                inst.xs,
                rng=rng,
                max_tries=max_tries,
                bound=bound,
                stats=result.stats,
            )
        except InternalAssertion as exc:
            result.internal_errors.append((index, str(exc)))
        except NormCertError as exc:
            result.failures.append((index, f"certify failed: {exc}"))
        else:
            result.verified += 1
    result.elapsed = time.monotonic() - start
    return result
