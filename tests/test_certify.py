import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert import instances, linalg
from normcert.charp import GF
from normcert.certify import (
    CertifyStats,
    NormCertificate,
    certify,
    verify,
)
from normcert.errors import InternalAssertion, SearchExhausted, ValueNotUnit
from normcert.extension import ExtElement, SimpleExtension
from normcert.instances import random_instance, run_random_suite
from normcert.poly import Poly, divide_monic
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, ZX, ZX_ONE, RatFunc
from normcert.serialize import certificate_to_json, dumps

from oracles import (
    LOCAL_X, factor_vector, mult_matrix, naive_base_value, naive_det, naive_horner,
    value_factor,
)

# the module, which the package's `certify` function shadows
certify_module = sys.modules["normcert.certify"]

F = Fraction


def qq_ext(*coeffs):
    return SimpleExtension(QQ, Poly(QQ, coeffs))


@pytest.fixture
def gauss_instance():
    ext = qq_ext(1, 0, 1)
    q = QuadraticForm(QQ, [1, 1])
    xs = [ext.element([F(3, 2), F(1, 2)]), ext.element([F(1, 2), F(-1, 2)])]
    return ext, q, xs


@pytest.fixture
def hyperbolic_instance():
    ext = qq_ext(-2, 0, 1)
    q = QuadraticForm(QQ, [1, -1])
    xs = [ext.element([F(1, 2), F(1, 2)]), ext.element([F(-1, 2), F(1, 2)])]
    return ext, q, xs


def factor_product(q, cert):
    ring = q.ring
    acc = ring.one
    for f in cert.factors:
        v = naive_base_value(q, factor_vector(f))
        acc = acc * (v if f.exponent == 1 else ring.invert(v))
    return acc


def level_pairs(cert):
    """The end-vector pair of each level, in order: a level's two factors
    come before those of the level below, so the pairs lead the list."""
    return [cert.factors[2 * k: 2 * k + 2] for k in range(len(cert.trace))]


def joint_content(ring, vectors):
    """The gcd of all integer numerators of the entries (every coefficient
    of them over Q[x]_(x)), after checking that every entry is over one."""
    nums = []
    for v in vectors:
        for e in v:
            if ring is QQ:
                assert e.denominator == 1
                nums.append(e.numerator)
            else:
                assert e.denominator == ZX_ONE
                nums.extend(e.numerator.c)
    return gcd(*nums)


class TestBaseCase:
    def test_degree_one_single_factor(self):
        ext = qq_ext(-1, 1)  # t - 1, so S = Q
        q = QuadraticForm(QQ, [1])
        xs = [ext.element([3])]
        cert = certify(ext, q, xs)
        assert cert.target == 9
        assert len(cert.factors) == 1
        assert cert.factors[0] == value_factor(QQ, (F(3),), 1)

    def test_degree_one_norm_is_value(self):
        ext = qq_ext(-5, 1)
        q = QuadraticForm(QQ, [2, 3])
        xs = [ext.element([2]), ext.element([1])]
        cert = certify(ext, q, xs)
        assert cert.target == 11 == q.evaluate_ext(xs).norm()


class TestWorkedExamples:
    def test_gauss_target_five(self, gauss_instance):
        ext, q, xs = gauss_instance
        value = q.evaluate_ext(xs)
        assert value == ext.element([2, 1])
        # the norm oracle is the multiplication-matrix determinant
        assert naive_det(mult_matrix(value)) == 5
        cert = certify(ext, q, xs, rng=0)
        assert cert.target == 5
        assert verify(ext, q, xs, cert)
        assert factor_product(q, cert) == 5
        # and 5 is visibly a value of the form: q(1, 2) = 5
        assert naive_base_value(q, [1, 2]) == 5

    def test_hyperbolic_target_minus_two(self, hyperbolic_instance):
        ext, q, xs = hyperbolic_instance
        value = q.evaluate_ext(xs)
        assert value == ext.gen()
        assert naive_det(mult_matrix(value)) == -2
        cert = certify(ext, q, xs, rng=0)
        assert cert.target == -2
        assert verify(ext, q, xs, cert)
        assert factor_product(q, cert) == -2

    def test_local_ring_scalar_witness(self):
        ring = QQ_LOCAL_X
        one_plus_x = ring.element((1, 1))
        ext = SimpleExtension(ring, Poly(ring, [-one_plus_x, ring.zero, ring.one]))
        q = QuadraticForm(ring, [ring.one])
        xs = [ext.gen()]
        assert q.evaluate_ext(xs).norm() == one_plus_x * one_plus_x
        cert = certify(ext, q, xs, rng=0)
        assert cert.target == one_plus_x * one_plus_x
        assert verify(ext, q, xs, cert)

    def test_local_ring_hyperbolic_needs_sampling(self):
        # the b = 1 probe fails at the first level, so the certification
        # exercises the sampled search over the local ring
        ring = QQ_LOCAL_X
        ext = SimpleExtension(ring, Poly(ring, [-2, 0, 1]))
        q = QuadraticForm(ring, [1, -1])
        xs = [
            ext.element([F(1, 2), F(1, 2)]),
            ext.element([F(-1, 2), F(1, 2)]),
        ]
        stats = CertifyStats()
        cert = certify(ext, q, xs, rng=0, stats=stats)
        assert cert.target == ring.element(-2)
        assert verify(ext, q, xs, cert)
        assert stats.genpos_tries > stats.genpos_calls  # sampling happened


class TestVerifier:
    def test_accepts_round_trip(self, gauss_instance):
        ext, q, xs = gauss_instance
        cert = certify(ext, q, xs, rng=0)
        assert verify(ext, q, xs, cert).ok

    def test_rejects_flipped_exponent(self, gauss_instance):
        ext, q, xs = gauss_instance
        cert = certify(ext, q, xs, rng=0)
        first = cert.factors[0]
        flipped = value_factor(QQ, factor_vector(first), -first.exponent)
        tampered = NormCertificate(target=cert.target, factors=(flipped,) + cert.factors[1:])
        outcome = verify(ext, q, xs, tampered)
        assert not outcome.ok
        # the message shows the product in lowest terms
        assert f"factor product {factor_product(q, tampered)} does" in outcome.failure

    def test_local_product_is_compared_exactly(self):
        inst = random_instance(QQ_LOCAL_X, random.Random(5), 2, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=5)
        assert verify(inst.ext, inst.q, inst.xs, cert)
        x = LOCAL_X
        for target in (cert.target * (1 + x), cert.target * (1 + x) / (1 + x + x * x)):
            tampered = NormCertificate(target=target, factors=cert.factors)
            outcome = verify(inst.ext, inst.q, inst.xs, tampered)
            assert not outcome.ok and "factor product" in outcome.failure
        # a factor and its inverse change nothing
        extra = cert.factors[0]
        padded = NormCertificate(
            target=cert.target,
            factors=cert.factors + (
                extra, value_factor(QQ_LOCAL_X, factor_vector(extra), -extra.exponent)),
        )
        assert verify(inst.ext, inst.q, inst.xs, padded)

    def test_finite_field_certificate(self):
        # over GF(5) each value is its own numerator over one
        k = GF(5)
        ext = SimpleExtension(k, Poly(k, [k.element(2), k.one]))
        q = QuadraticForm(k, [k.one, k.element(2)])
        xs = [ext.element([k.element(1)]), ext.element([k.element(1)])]
        factors = (value_factor(k, (k.element(1), k.element(1)), 1),
                   value_factor(k, (k.element(2), k.zero), 1),
                   value_factor(k, (k.element(2), k.zero), -1))
        assert verify(ext, q, xs, NormCertificate(target=k.element(3), factors=factors))
        outcome = verify(ext, q, xs, NormCertificate(target=k.element(4), factors=factors))
        assert not outcome.ok and "factor product F5(3) " in outcome.failure

    def test_rejects_isotropic_factor(self, hyperbolic_instance):
        ext, q, xs = hyperbolic_instance
        cert = certify(ext, q, xs, rng=0)
        tampered = NormCertificate(
            target=cert.target,
            factors=cert.factors + (value_factor(QQ, (F(1), F(1)), 1),),
        )
        outcome = verify(ext, q, xs, tampered)
        assert not outcome.ok
        assert "unit" in outcome.failure

    def test_rejects_wrong_target(self, gauss_instance):
        ext, q, xs = gauss_instance
        cert = certify(ext, q, xs, rng=0)
        tampered = NormCertificate(target=F(7), factors=cert.factors)
        outcome = verify(ext, q, xs, tampered)
        assert not outcome.ok

    def test_rejects_a_factor_over_another_ring(self, gauss_instance):
        ext, q, xs = gauss_instance
        cert = certify(ext, q, xs, rng=0)
        local = tuple(value_factor(QQ_LOCAL_X, factor_vector(f), f.exponent) for f in cert.factors)
        outcome = verify(ext, q, xs, NormCertificate(cert.target, local))
        assert not outcome.ok and "over Q[x]_(x), not Q" in outcome.failure

    def test_rejects_a_factor_vector_outside_the_ring(self):
        # the vector 1/x has a pole at 0; q(1/x) = 1/x^2 has the unit
        # numerator 1, so only the denominator shows it, and the pair
        # q(1/x) * q(1/x)^(-1) multiplies to the target 1
        ext = SimpleExtension(QQ_LOCAL_X, Poly(QQ_LOCAL_X, [-1, 1]))
        q = QuadraticForm(QQ_LOCAL_X, [1])
        factor = ValueFactor(QQ_LOCAL_X, (ZX_ONE,), ZX((0, 1)), 1)
        cert = NormCertificate(QQ_LOCAL_X.one, (factor, factor.flipped()))
        outcome = verify(ext, q, [ext.one()], cert)
        assert not outcome.ok and "factor 0 has an entry outside Q[x]_(x)" in outcome.failure

    def test_refuses_a_witness_from_another_extension(self, gauss_instance):
        # the same coordinates in Q[t]/(t^2+2): there the norm of q_S(x) is
        # 17/4, and in Q[t]/(t^2+1) it is 5
        ext, q, _ = gauss_instance
        other = qq_ext(2, 0, 1)
        xs = [other.element([F(3, 2), F(1, 2)]), other.element([F(1, 2), F(-1, 2)])]
        cert = certify(other, q, xs, rng=0)
        assert cert.target == F(17, 4)
        with pytest.raises(ValueError, match="not an element of the extension"):
            verify(ext, q, xs, cert)
        with pytest.raises(ValueError, match="not an element of the extension"):
            certify(ext, q, xs, rng=0)

    def test_rejects_non_unit_instance_value(self, gauss_instance):
        ext, q, _ = gauss_instance
        bad_xs = [ext.scalar(0), ext.scalar(0)]
        cert = NormCertificate(target=F(1), factors=())
        outcome = verify(ext, q, bad_xs, cert)
        assert not outcome.ok


class TestIntegralEndVectors:
    """Each level writes its two end vectors as integral numerators with
    joint content 1: the witness's bottoms and tops scaled by one unit, which
    leaves the ratio of their values, and so the certificate, unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([QQ.id, QQ_LOCAL_X.id]), st.integers(2, 5), st.integers(1, 3),
           st.integers(0, 2**32))
    def test_every_level_pair_is_primitive(self, ring_id, n, m, seed):
        ring = QQ if ring_id == QQ.id else QQ_LOCAL_X
        if ring is QQ_LOCAL_X:
            # Z[x] eliminations grow fast with the degree and the rank
            m = min(m, 2 if n <= 3 else 1)
        inst = random_instance(ring, random.Random(seed), n, m)
        cert = certify(inst.ext, inst.q, inst.xs, rng=seed)
        pairs = level_pairs(cert)
        assert len(pairs) == n // 2
        for level, (bottom, top) in enumerate(pairs):
            sign = (-1) ** level
            assert (bottom.exponent, top.exponent) == (sign, -sign)
            assert joint_content(ring, [factor_vector(bottom), factor_vector(top)]) == 1
        assert factor_product(inst.q, cert) == cert.target

    def test_scaling_one_vector_of_a_pair_is_rejected(self):
        inst = random_instance(QQ, random.Random(7), 3, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=7)
        assert verify(inst.ext, inst.q, inst.xs, cert)
        bottom = cert.factors[0]
        doubled = value_factor(QQ, [2 * v for v in factor_vector(bottom)], bottom.exponent)
        tampered = NormCertificate(cert.target, (doubled,) + cert.factors[1:])
        outcome = verify(inst.ext, inst.q, inst.xs, tampered)
        assert not outcome.ok and "factor product" in outcome.failure

    def test_scaling_a_pair_by_a_non_unit_is_rejected(self):
        # x * v leaves the ratio of the pair alone, but q(x * v) = x^2 q(v)
        # is not a unit of Q[x]_(x)
        inst = random_instance(QQ_LOCAL_X, random.Random(7), 2, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=7)
        x = LOCAL_X
        scaled = tuple(value_factor(QQ_LOCAL_X, [x * v for v in factor_vector(f)], f.exponent)
                       for f in cert.factors[:2])
        tampered = NormCertificate(cert.target, scaled + cert.factors[2:])
        outcome = verify(inst.ext, inst.q, inst.xs, tampered)
        assert not outcome.ok and "not a unit" in outcome.failure

    def test_fractional_end_vectors_still_verify(self, gauss_instance):
        # the Gauss certificate as it was written before the end vectors
        # became integral: q(1/2, 3/2) / q(1/2, -1/2) = (5/2) / (1/2) = 5
        ext, q, xs = gauss_instance
        old = NormCertificate(F(5), (value_factor(QQ, (F(1, 2), F(3, 2)), 1),
                                     value_factor(QQ, (F(1, 2), F(-1, 2)), -1)))
        assert verify(ext, q, xs, old)
        assert certify(ext, q, xs, rng=0).factors == (
            value_factor(QQ, (F(1), F(3)), 1), value_factor(QQ, (F(1), F(-1)), -1))


def scaled_instances():
    """The golden instances whose first level is scaled: q_S(x) = 5 is a
    scalar, so never primitive, and over Q[x]_(x) the b = 1 probe fails."""
    ext = qq_ext(3, 0, 0, 1)
    yield ext, QuadraticForm(QQ, [5, 7]), [ext.one(), ext.scalar(0)]
    ext = SimpleExtension(QQ_LOCAL_X, Poly(QQ_LOCAL_X, [-2, 0, 1]))
    xs = [ext.element([F(1, 2), F(1, 2)]), ext.element([F(-1, 2), F(1, 2)])]
    yield ext, QuadraticForm(QQ_LOCAL_X, [1, -1]), xs


def scaled_levels(ext, q, xs, seed):
    """Certifies, checks that the certificate has exactly n factors and
    that each level's pair has the ratio q0 / (r * N(b)^2) of its trace,
    and returns the number of levels with a scaling b other than 1."""
    cert = certify(ext, q, xs, rng=seed)
    assert len(cert.factors) == ext.n
    scaled = 0
    for step, (bottom, top) in zip(cert.trace, level_pairs(cert)):
        nb = step.b.norm()
        scaled += step.b != step.b.ext.one()
        assert (naive_base_value(q, factor_vector(bottom)) * step.r * nb * nb
                == step.q0 * naive_base_value(q, factor_vector(top)))
    return scaled


class TestFactorCount:
    """A level's scaling b rides in its pair, as N(b)^(-2) in the ratio of
    the pair's values, so a certificate of degree n has n factors: two per
    level and one at degree 1 when n is odd."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([QQ.id, QQ_LOCAL_X.id]), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 2**32))
    def test_degree_n_gives_n_factors(self, ring_id, n, m, seed):
        ring = QQ if ring_id == QQ.id else QQ_LOCAL_X
        if ring is QQ_LOCAL_X:
            # Z[x] eliminations grow fast with the degree and the rank
            m = min(m, 2 if n <= 3 else 1)
        inst = random_instance(ring, random.Random(seed), n, m)
        scaled_levels(inst.ext, inst.q, inst.xs, seed)

    def test_scaled_golden_instances(self):
        for ext, q, xs in scaled_instances():
            assert scaled_levels(ext, q, xs, 0) == 1


class TestStructure:
    def test_value_must_be_unit(self, hyperbolic_instance, monkeypatch):
        ext, q, _ = hyperbolic_instance
        with pytest.raises(ValueNotUnit):
            certify(ext, q, [ext.one(), ext.one()])  # q(1,1) = 0

        # refused from the norm that certify takes, before any search: the
        # search does not test q(x) itself
        def refused(*args, **kwargs):
            raise AssertionError("the search ran on a value that is not a unit")

        monkeypatch.setattr(certify_module, "find_general_position", refused)
        with pytest.raises(ValueNotUnit):
            certify(ext, q, [ext.one(), ext.one()])

    @pytest.mark.parametrize("n, message", [
        # T has degree 2: the level below finds that g does not divide
        # q(z(t)) - t
        (4, "q(x(t)) - t is not divisible by the minimal polynomial"),
        # T has degree 1: the parent's own check of q_T(z) = u
        (3, "q_T(z) is not u in the reduced algebra"),
    ])
    def test_a_corrupted_reduced_witness_is_refused(self, monkeypatch, n, message):
        # z_1, the first coordinate of the reduced witness, is built off by
        # one: at degree 2 it is the first element built in T, and at
        # degree 1, where T is R, the first remainder modulo g = t - a
        # that certify takes through its own name for the shared division
        class Corrupting(SimpleExtension):
            __slots__ = ("_built",)

            def from_integral(self, nums, den):
                elt = super().from_integral(nums, den)
                if getattr(self, "_built", False):
                    return elt
                self._built = True
                nums, den = elt.integral
                return super().from_integral([nums[0] + den, *nums[1:]], den)

        divide_monic, divided = certify_module.divide_monic, []

        def corrupting_divide_monic(*args):
            quo, (rem, den) = divide_monic(*args)
            if not divided:
                rem = [rem[0] + den, *rem[1:]]
            divided.append(1)
            return quo, (rem, den)

        inst = random_instance(QQ, random.Random(5), n, 2)
        certify(inst.ext, inst.q, inst.xs, rng=0)  # as drawn, it certifies
        if n == 3:
            monkeypatch.setattr(certify_module, "divide_monic", corrupting_divide_monic)
        else:
            monkeypatch.setattr(certify_module, "SimpleExtension", Corrupting)
        with pytest.raises(InternalAssertion, match=re.escape(message)):
            certify(inst.ext, inst.q, inst.xs, rng=0)

    def test_trace_reduction_chain(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 5)
            m = rng.randint(1, 3)
            inst = random_instance(QQ, rng, n, m)
            cert = certify(inst.ext, inst.q, inst.xs, rng=rng)
            # depth is exactly floor(n/2) and degrees descend two at a time
            assert len(cert.trace) == n // 2
            # the first level's scaling b gives its element c = q_S(x)*b^2
            b = cert.trace[0].b
            c = inst.q.evaluate_ext(inst.xs) * b * b
            assert c.minimal_polynomial() == cert.trace[0].p
            for level, step in enumerate(cert.trace):
                expected_degree = n - 2 * level
                assert step.n == expected_degree
                assert step.p.degree == expected_degree
                assert step.p.is_monic()
                assert step.h.degree == expected_degree - 2
                # leading coefficient of h is the search value r
                assert step.h.leading == step.r
                assert QQ.is_invertible(step.r)
                # evaluating the division identity at t = 0
                assert QQ.is_invertible(step.q0)
                assert step.p.constant_term * step.h.constant_term == step.q0
                if expected_degree == 2:
                    # h is the constant r and the chain ends
                    assert step.g is None
                    continue
                assert step.g.degree == expected_degree - 2
                assert step.g.is_monic()
                assert step.h == step.g.scale(step.r)
                assert QQ.is_invertible(step.g.constant_term)

    def test_group_closure(self, gauss_instance):
        # certificates for c and for c^(-1) have reciprocal targets
        ext, q, xs = gauss_instance
        c = q.evaluate_ext(xs)
        cert = certify(ext, q, xs, rng=0)
        cinv = c.inverse()
        xs_inv = [x * cinv for x in xs]
        assert q.evaluate_ext(xs_inv) == cinv
        cert_inv = certify(ext, q, xs_inv, rng=0)
        assert cert.target * cert_inv.target == 1

    def test_determinism(self, gauss_instance):
        ext, q, xs = gauss_instance
        a = certify(ext, q, xs, rng=5)
        b = certify(ext, q, xs, rng=5)
        assert a == b

    def test_stats_collection(self):
        rng = random.Random(32)
        stats = CertifyStats()
        inst = random_instance(QQ, rng, 4, 2)
        certify(inst.ext, inst.q, inst.xs, rng=rng, stats=stats)
        # levels of degree 4 and 2
        assert stats.levels == 2
        assert stats.genpos_calls == 2
        assert stats.genpos_tries >= 2
        assert stats.genpos_exhausted == 0

    def test_stats_are_the_sums_of_the_records(self, monkeypatch):
        certs = []

        def recorded(*args, **kwargs):
            certs.append(certify(*args, **kwargs))
            return certs[-1]

        monkeypatch.setattr(instances, "certify", recorded)
        result = run_random_suite(QQ, count=40, seed=8, n_choices=(1, 2, 3, 4, 5, 6))
        levels = sum(len(cert.trace) for cert in certs)
        tries = sum(step.tries for cert in certs for step in cert.trace)
        assert len(certs) == 40 and levels > 40
        assert result.stats == CertifyStats(levels, levels, tries, 0)

    def test_exhausted_search_counts_one_level_and_no_tries(self):
        # q_S(x) = 5 is a scalar, never primitive, and one try is only the
        # b = 1 probe's slot
        ext = qq_ext(3, 0, 0, 1)
        q = QuadraticForm(QQ, [5, 7])
        stats = CertifyStats()
        with pytest.raises(SearchExhausted):
            certify(ext, q, [ext.one(), ext.scalar(0)], rng=0, max_tries=1, stats=stats)
        assert stats == CertifyStats(levels=1, genpos_calls=1, genpos_tries=0, genpos_exhausted=1)

    def test_trace_records_the_primitive_scaling(self):
        # q_S(x) = 5 is a scalar, so the level's scaling b makes 5*b^2
        # primitive, and the trace records it
        ext = qq_ext(3, 0, 0, 1)
        q = QuadraticForm(QQ, [5, 7])
        xs = [ext.one(), ext.scalar(0)]
        cert = certify(ext, q, xs, rng=0)
        step = cert.trace[0]
        assert step.b != ext.one()
        assert (q.evaluate_ext(xs) * step.b * step.b).minimal_polynomial() == step.p

    def test_one_determinant_per_norm(self, monkeypatch):
        # n = 3, one reduction level: the norm of q_S(x) (the search's unit
        # check and the combine identity reuse it, and b = 1 leaves c equal
        # to q_S(x); the primitivity of c is read off the search's one
        # elimination); then the verifier's independent norm of q_S(x).  The
        # reduced algebra has degree 1, so it is R, and N_T(u) is u itself,
        # with no 1x1 determinant.  Over Q every norm is an integer
        # determinant.
        inst = random_instance(QQ, random.Random(0), 3, 2)
        sizes, det = [], linalg.det
        monkeypatch.setattr(linalg, "det", lambda rows: sizes.append(len(rows)) or det(rows))
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert cert.trace[0].b == inst.ext.one()
        assert sorted(sizes) == [3, 3]

    @pytest.mark.parametrize("n, built", [(3, []), (4, [2]), (5, [3])])
    def test_degree_one_builds_no_extension(self, monkeypatch, n, built):
        # a reduced algebra of degree 1 is R: only degree >= 2 builds one
        degrees = []

        class Counted(SimpleExtension):
            __slots__ = ()

            def __init__(self, ring, modulus):
                degrees.append(modulus.degree)
                super().__init__(ring, modulus)

        monkeypatch.setattr(certify_module, "SimpleExtension", Counted)
        inst = random_instance(QQ, random.Random(0), n, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert [step.n for step in cert.trace] == list(range(n, 1, -2))
        assert degrees == built

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_elimination_per_level(self, monkeypatch, m):
        # n = 3, one reduction level at b = 1: one solve with m + 1
        # right-hand sides gives every witness column and, from c^n, the
        # minimal polynomial; the degree-one level below solves nothing.
        # No value of the form multiplies extension elements.
        inst = random_instance(QQ, random.Random(m), 3, m)
        widths, solve = [], linalg.solve_columns
        monkeypatch.setattr(
            linalg, "solve_columns", lambda a, b: widths.append(len(b[0])) or solve(a, b))
        products, evaluating = [], []
        mul, evaluate_ext = ExtElement.__mul__, QuadraticForm.evaluate_ext

        def counted_mul(self, other):
            if evaluating:
                products.append(1)
            return mul(self, other)

        def flagged_evaluate_ext(self, xs):
            evaluating.append(1)
            try:
                return evaluate_ext(self, xs)
            finally:
                evaluating.pop()

        monkeypatch.setattr(ExtElement, "__mul__", counted_mul)
        monkeypatch.setattr(ExtElement, "__rmul__", counted_mul)
        monkeypatch.setattr(QuadraticForm, "evaluate_ext", flagged_evaluate_ext)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert cert.trace[0].b == inst.ext.one()
        assert widths == [m + 1]
        assert not products

    def test_one_pass_per_level_at_the_benchmark_shape(self, monkeypatch):
        # the q-tall shape, n = 5 and m = 1, with b = 1 at both levels: one
        # solve at the top (the witness column and c^n), one division per
        # level (of F by p, none to reduce into T), and the integer seed is
        # never made a random.Random, since no search draws
        inst = random_instance(QQ, random.Random(0), 5, 1)
        widths, solve = [], linalg.solve_columns
        monkeypatch.setattr(
            linalg, "solve_columns", lambda a, b: widths.append(len(b[0])) or solve(a, b))
        divisions, divmod_ = [], Poly.__divmod__
        monkeypatch.setattr(
            Poly, "__divmod__", lambda f, g: divisions.append(f.degree) or divmod_(f, g))
        seeded = []

        class CountedRandom(random.Random):
            def __init__(self, *args):
                seeded.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountedRandom)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert [step.n for step in cert.trace] == [5, 3]
        assert all(step.b == step.b.ext.one() for step in cert.trace)
        # the level below solves nothing: its c is u, the class of t, whose
        # power basis is the canonical basis
        assert widths == [2]
        # F = q(x(t)) - t has degree 2(n-1) at each level
        assert divisions == [8, 4]
        assert not seeded

    @pytest.mark.parametrize("n, scales", [(3, 0), (4, 1), (5, 1)])
    def test_records_build_no_reduced_modulus(self, monkeypatch, n, scales):
        # g = h/r is built for a reduced algebra of degree >= 2 only (at
        # n = 5 the level below has degree 3 and builds none); a record
        # takes it when it is read
        calls, scale = [], Poly.scale
        monkeypatch.setattr(Poly, "scale", lambda p, s: calls.append(1) or scale(p, s))
        inst = random_instance(QQ, random.Random(0), n, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert len(calls) == scales
        assert [step.n for step in cert.trace] == list(range(n, 1, -2))
        assert cert.trace[0].g.degree == n - 2
        assert len(calls) == scales + 1


SCALAR_FIELDS = [GF(order) for order in (2, 3, 4, 9)]
small = st.integers(-4, 4)


def _zx(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return ZX(tuple(cs))


@st.composite
def scalar_evaluations(draw):
    """Integral columns of lengths 1..6 (about half the entries 0), a
    denominator d in the ring, and a unit a = an/ad with an and ad both
    scaled by one nonzero factor, so not in lowest terms; over Q, Q[x]_(x)
    and small finite fields."""
    kind = draw(st.sampled_from(["Q", "local", "field"]))
    if kind == "Q":
        ring = QQ
        nonzero = st.integers(-(10**6), 10**6).filter(bool)
        entry = st.one_of(st.just(0), st.integers(-(10**9), 10**9))
        a = F(draw(nonzero), draw(nonzero))
        d, k = draw(nonzero), draw(nonzero)
    elif kind == "local":
        ring = QQ_LOCAL_X
        # Z[x] with a nonzero constant term: in the ring, and a unit there
        unit_zx = st.builds(
            lambda c0, rest: _zx([c0, *rest]),
            small.filter(bool), st.lists(small, max_size=2))
        entry = st.one_of(st.just(ZX()), st.lists(small, max_size=3).map(_zx))
        a = ring.element(RatFunc(draw(unit_zx).c, draw(unit_zx).c))
        d, k = draw(unit_zx), draw(unit_zx)
    else:
        ring = draw(st.sampled_from(SCALAR_FIELDS))
        elems = ring.elements()
        entry = st.sampled_from(elems)
        a, d, k = (draw(st.sampled_from(elems[1:])) for _ in range(3))
    length, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    cols = [draw(st.lists(entry, min_size=length, max_size=length)) for _ in range(m)]
    return ring, cols, d, a, k


class TestScalarEvaluation:
    @settings(max_examples=120, deadline=None)
    @given(scalar_evaluations())
    def test_matches_the_degree_one_extension(self, case):
        # reducing modulo t - a is evaluating at a: the one remainder
        # numerator of each column, over d * ad^(L-1) (the shared division
        # takes t - a as the numerators (-an, ad) over ad, here scaled by
        # k), is the naive Horner value of that column's ring values at a
        ring, cols, d, a, k = case
        an, ad = ring.split(a)
        for col in cols:
            _, (rem, den) = divide_monic(ring, col, d, (-an * k, ad * k), ad * k)
            assert len(rem) == 1
            assert ring.value(rem[0], den) == naive_horner(ring.values(col, d), a, ring.zero)


class TestRandomRoundTrips:
    def test_rational_round_trips(self):
        result = run_random_suite(QQ, count=30, seed=33)
        assert result.ok, result.failures
        assert result.stats.genpos_exhausted == 0

    def test_local_round_trips(self):
        result = run_random_suite(
            QQ_LOCAL_X, count=5, seed=34, n_choices=(2, 3), m_choices=(1, 2)
        )
        assert result.ok, result.failures

    def test_oracle_agreement(self):
        rng = random.Random(35)
        for _ in range(10):
            inst = random_instance(QQ, rng, rng.randint(2, 4), rng.randint(1, 3))
            cert = certify(inst.ext, inst.q, inst.xs, rng=rng)
            value = inst.q.evaluate_ext(inst.xs)
            assert cert.target == naive_det(mult_matrix(value))


class TestScalingWall:
    """Heights stay low down the descent: the largest number in a Q n=7
    certificate is hundreds of digits, where recursing on the inverse of
    q_S(x) through n-1 levels made it 132,855 digits."""

    def test_rational_degree_seven(self):
        inst = random_instance(QQ, random.Random(3), 7, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert verify(inst.ext, inst.q, inst.xs, cert)
        text = dumps(certificate_to_json(QQ, cert))
        assert max(len(digits) for digits in re.findall(r"\d+", text)) < 2000

    def test_local_degree_four(self):
        inst = random_instance(QQ_LOCAL_X, random.Random(3), 4, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        assert verify(inst.ext, inst.q, inst.xs, cert)
        assert [step.n for step in cert.trace] == [4, 2]


class TestNormOfValue:
    def test_worked_example(self, gauss_instance):
        ext, q, xs = gauss_instance
        assert q.evaluate_ext(xs).norm() == 5 == certify(ext, q, xs, rng=0).target

    def test_scalar_witness_norm_is_a_power(self):
        # a witness shaped like the first basis vector gives q_S(x) = a_1,
        # a scalar, whose norm is a_1^n
        for n in (2, 3, 4):
            ext = qq_ext(*([3] + [0] * (n - 1) + [1]))
            q = QuadraticForm(QQ, [5, 7])
            xs = [ext.one(), ext.scalar(0)]
            assert q.evaluate_ext(xs) == ext.scalar(5)
            assert q.evaluate_ext(xs).norm() == F(5) ** n

    def test_rejects_non_unit(self, hyperbolic_instance):
        # q(1, 1) = 0 has norm 0, which no certificate targets
        ext, q, _ = hyperbolic_instance
        xs = [ext.one(), ext.one()]
        assert q.evaluate_ext(xs).norm() == 0
        with pytest.raises(ValueNotUnit):
            certify(ext, q, xs)
