import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normcert.certify import ReductionStep, certify
from normcert.extension import ExtElement, SimpleExtension
from normcert.instances import random_instance
from normcert.poly import Poly
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, ZX, ZX_ONE, RatFunc
from normcert.serialize import (
    FormatError,
    InstanceSpec,
    certificate_from_json,
    certificate_to_json,
    dumps,
    element_from_json,
    element_to_json,
    factor_to_json,
    instance_from_json,
    instance_to_json,
    poly_to_json,
    trace_to_json,
)

from oracles import (
    coords_of, factor_vector, fraction_view, local_factor_json, value_factor, vector_json,
)

F = Fraction

GAUSS_INSTANCE = {
    "ring": "Q",
    "p": {"ring": "Q", "coeffs": ["1", "0", "1"]},
    "q": ["1", "1"],
    "x": [["3/2", "1/2"], ["1/2", "-1/2"]],
    "options": {"seed": 0},
}
POLE = {"num": ["1"], "den": ["0", "1"]}


class TestRationalStrings:
    def test_denominator_omitted_when_one(self):
        assert element_to_json(QQ, F(5)) == "5"
        assert element_to_json(QQ, F(-2, 3)) == "-2/3"

    def test_past_the_int_str_digit_limit(self):
        # 5000-digit numerator and denominator, past Python's default limit
        for v in (F(-(10**4999) - 7, 3**10478), F(10**4999)):
            assert element_from_json(QQ, element_to_json(QQ, v)) == v
        with pytest.raises(FormatError):
            element_from_json(QQ, "1" * 5000 + "/0")

    def test_parse(self):
        assert element_from_json(QQ, "5/6") == F(5, 6)
        assert element_from_json(QQ, "-7") == F(-7)
        with pytest.raises(FormatError):
            element_from_json(QQ, "a/b")
        with pytest.raises(FormatError):
            element_from_json(QQ, 5)
        with pytest.raises(FormatError):
            element_from_json(QQ, "1/0")


class TestElements:
    def test_local_element_round_trip(self):
        a = QQ_LOCAL_X.element(RatFunc((0, 1), (1, 1)))  # x/(1+x)
        data = element_to_json(QQ_LOCAL_X, a)
        assert data == {"num": ["0", "1"], "den": ["1", "1"]}
        assert element_from_json(QQ_LOCAL_X, data) == a

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=10**6), max_size=4),
           st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=3)
           .filter(lambda d: d[0] != 0))
    def test_local_encoding_matches_the_fraction_view(self, num, den):
        # written from the integer form, the bytes of the Fraction view
        a = QQ_LOCAL_X.element(RatFunc(num, den))
        data = element_to_json(QQ_LOCAL_X, a)
        num, den = fraction_view(a)
        assert data == {"num": [str(c) for c in num], "den": [str(c) for c in den]}
        assert element_from_json(QQ_LOCAL_X, data) == a

    def test_local_element_past_the_int_str_digit_limit(self):
        big = F(-(10**4999) - 7, 3**10478)
        a = QQ_LOCAL_X.element(RatFunc((big, 1), (F(-2, 3), 1, 5)))
        data = element_to_json(QQ_LOCAL_X, a)
        assert max(len(c) for c in data["num"]) > 5000
        assert element_from_json(QQ_LOCAL_X, data) == a

    def test_local_constant_shorthand(self):
        assert element_from_json(QQ_LOCAL_X, "3/2") == QQ_LOCAL_X.element(F(3, 2))

    def test_rejects_pole_at_zero(self):
        with pytest.raises(FormatError):
            element_from_json(QQ_LOCAL_X, POLE)


def _instance(**fields):
    """The Gauss instance with some fields replaced."""
    return dict(json.loads(json.dumps(GAUSS_INSTANCE)), **fields)


def _factor(factor):
    """A certificate of one factor, decoded over Q."""
    return certificate_from_json(QQ, {"target": "1", "factors": [factor]})


class TestPolyAndForm:
    def test_poly_round_trip(self):
        p = Poly(QQ, [F(1, 2), F(0), F(1)])
        data = poly_to_json(p)
        assert data["ring"] == "Q"
        assert instance_from_json(_instance(p=data)).ext.modulus == p

    def test_poly_bare_list_needs_ring(self):
        data = _instance(p=["1", "1"], q=["1"], x=[["1"]])
        assert instance_from_json(data).ext.modulus == Poly(QQ, [1, 1])
        del data["ring"]
        with pytest.raises(FormatError):
            instance_from_json(data)

    def test_form_round_trip(self):
        q = QuadraticForm(QQ_LOCAL_X, [QQ_LOCAL_X.one, QQ_LOCAL_X.element((2, 1))])
        ext = SimpleExtension(QQ_LOCAL_X, Poly(QQ_LOCAL_X, [-2, 0, 1]))
        spec = InstanceSpec(ext=ext, q=q, xs=[ext.one(), ext.gen()], options={})
        data = instance_to_json(spec)
        assert instance_from_json(data).q == q
        # the form as an object that names its ring
        data["q"] = {"ring": q.ring.id, "diag": data["q"]}
        assert instance_from_json(data).q == q

    def test_factor_validation(self):
        with pytest.raises(FormatError):
            _factor({"vector": ["1"], "exp": 2})
        with pytest.raises(FormatError):
            _factor({"vector": ["1"]})
        # JSON true and 1.0 both compare equal to 1
        for exp in (True, 1.0):
            with pytest.raises(FormatError):
                _factor({"vector": ["1"], "exp": exp})


def assert_vectors_match_the_value_route(ring, nums, den):
    """Every vector the writer puts out from numerators (a factor, the
    coefficients of a polynomial, a witness vector and a level's b) is
    the JSON of its entries' ring values, `vector_json`."""
    nums, den = ring.lowest(nums, den)
    expected = vector_json(ring, nums, den)
    assert factor_to_json(ring, ValueFactor(ring, nums, den, 1))["vector"] == expected
    p = Poly.from_integral(ring, nums, den)
    assert poly_to_json(p) == {"ring": ring.id, "coeffs": expected[:p.degree + 1]}
    # the vector as an element of R[t]/(t^n + 1)
    n = len(nums)
    ext = SimpleExtension(ring, Poly(ring, [1] + [0] * (n - 1) + [1]))
    x = ExtElement(ext, nums, den)
    spec = InstanceSpec(ext=ext, q=QuadraticForm(ring, [1]), xs=[x], options={})
    assert instance_to_json(spec)["x"] == [expected]
    step = ReductionStep(n=2, p=p, h=p, r=ring.one, q0=ring.one, b=x, tries=1)
    assert trace_to_json(ring, [step])[0]["b"] == expected


BIG = 10**4400 + 1


@pytest.mark.parametrize("ring, nums, den", [
    (QQ, [BIG, -3, 0], 1),
    (QQ, [BIG, 0, -3 * 10**4350], 7 * 10**4350),
    (QQ_LOCAL_X, [ZX((BIG, 2)), ZX(), ZX((5,))], ZX_ONE),
    (QQ_LOCAL_X, [ZX((BIG, 2)), ZX((0, 3))], ZX((3, 10**4301))),
], ids=["Q-over-one", "Q", "local-over-one", "local"])
def test_vectors_past_the_digit_limit_match_the_value_route(ring, nums, den):
    assert_vectors_match_the_value_route(ring, nums, den)


class TestFactorEncoding:
    """Over Q a factor is written from its numerators over one denominator,
    entry by entry; the text must be that of each entry's Fraction, and
    every other vector is written as a factor is."""

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.just(0), st.integers(-(10**30), 10**30)), min_size=1,
                    max_size=5),
           st.integers(1, 10**20), st.sampled_from([1, -1]))
    @example([3, 0, -4], 6, 1)
    @example([0], 7, -1)
    @example([-5, 10, 0], 1, 1)
    def test_matches_the_fraction_route(self, nums, den, exp):
        vector = [F(v, den) for v in nums]
        expected = {"vector": [str(v) for v in vector], "exp": exp}
        # built from ring values, and from numerators over one denominator
        by_values = value_factor(QQ, vector, exp)
        by_integral = ValueFactor(QQ, *QQ.lowest(nums, den), exp)
        assert factor_to_json(QQ, by_values) == expected
        assert factor_to_json(QQ, by_integral) == expected
        assert_vectors_match_the_value_route(QQ, nums, den)


def _zx(coeffs):
    """The integer polynomial of an ascending coefficient list."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return ZX(tuple(coeffs))


zx_coeffs = st.lists(st.integers(-(10**30), 10**30), max_size=4)


class TestLocalFactorEncoding:
    """Over Q[x]_(x) a factor is written from its Z[x] numerators: over one
    as their integer strings, over any other denominator each entry put in
    lowest terms once; the text must be that of each entry's RatFunc, and
    every other vector is written as a factor is."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(zx_coeffs, min_size=1, max_size=4),
           st.none() | zx_coeffs.filter(lambda d: d and d[0] != 0),
           st.sampled_from([1, -1]))
    # over one, with a zero entry and a constant one
    @example([[3, 0, -4], [], [7]], None, 1)
    # a denominator of degree 1 that cancels against one entry only
    @example([[2, 2], [0, 3]], [1, 1], -1)
    # a constant denominator, and one whose lowest-order coefficient is negative
    @example([[4, 6]], [2], 1)
    @example([[1], [0, 5]], [-3, 0, 2], 1)
    def test_matches_the_ratfunc_route(self, nums, den, exp):
        den = ZX_ONE if den is None else _zx(den)
        factor = ValueFactor(QQ_LOCAL_X, *QQ_LOCAL_X.lowest([_zx(v) for v in nums], den), exp)
        data = factor_to_json(QQ_LOCAL_X, factor)
        assert data == local_factor_json(factor)
        assert data["vector"] == [element_to_json(QQ_LOCAL_X, v) for v in factor_vector(factor)]
        assert_vectors_match_the_value_route(QQ_LOCAL_X, factor.nums, factor.den)


class TestCertificates:
    def test_round_trip(self):
        inst = instance_from_json(GAUSS_INSTANCE)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        data = certificate_to_json(QQ, cert)
        back = certificate_from_json(QQ, data)
        assert back.target == cert.target
        assert back.factors == cert.factors
        # the records are the constructor's, written only by trace_to_json
        assert set(data) == {"target", "factors"}
        assert cert.trace and back.trace == ()

    def test_trace_keys(self):
        inst = instance_from_json(GAUSS_INSTANCE)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        data = trace_to_json(QQ, cert.trace)
        # the Gauss instance has degree 2: one level, which ends at h = r
        assert set(data[0]) == {"n", "p", "h", "r", "q0", "b"}
        # a quartic descends to degree 2 through the modulus g of T
        inst = random_instance(QQ, random.Random(0), 4, 2)
        cert = certify(inst.ext, inst.q, inst.xs, rng=0)
        data = trace_to_json(QQ, cert.trace)
        assert [set(step) for step in data] == [
            {"n", "p", "h", "r", "q0", "g", "b"},
            {"n", "p", "h", "r", "q0", "b"},
        ]
        assert [step["n"] for step in data] == [4, 2]

    def test_dumps_deterministic(self):
        payload = {"b": True, "a": [1, 2]}
        assert dumps(payload) == '{"a":[1,2],"b":true}\n'


class TestInstances:
    def test_parse_worked_instance(self):
        inst = instance_from_json(GAUSS_INSTANCE)
        assert inst.ring is QQ
        assert inst.ext.n == 2
        assert inst.q.rank == 2
        assert coords_of(inst.xs[0]) == (F(3, 2), F(1, 2))
        assert inst.options == {"seed": 0}

    def test_round_trip(self):
        inst = instance_from_json(GAUSS_INSTANCE)
        assert instance_to_json(inst) == GAUSS_INSTANCE

    def test_bare_coefficient_list_modulus(self):
        data = dict(GAUSS_INSTANCE, p=["1", "0", "1"])
        assert instance_from_json(data).ext.n == 2

    def test_local_instance(self):
        data = {
            "ring": "Q[x]_(x)",
            "p": [{"num": ["-1", "-1"]}, "0", "1"],
            "q": ["1"],
            "x": [["0", "1"]],
        }
        inst = instance_from_json(data)
        assert inst.ring is QQ_LOCAL_X
        assert inst.ext.modulus.constant_term == RatFunc((-1, -1))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("ring"),
            lambda d: d.pop("x"),
            lambda d: d.update(ring="Z"),
            lambda d: d.update(q=[]),
            lambda d: d.update(x=[["1", "0"]]),  # wrong vector count
            lambda d: d.update(x=[["1"], ["2"]]),  # wrong coordinate count
            lambda d: d.update(options=[1]),
            lambda d: d.update(p=["0", "0", "1"]),  # p(0) = 0, not simple
            lambda d: d.update(p={"ring": "Z", "coeffs": ["1", "0", "1"]}),
            # 1/x has a pole at 0, so it is not in the local ring
            lambda d: d.update(ring="Q[x]_(x)", p=["1", "0", "1"], q=["1", POLE]),
            lambda d: d.update(ring="Q[x]_(x)", p=["1", "0", "1"], x=[["1", POLE], ["0", "1"]]),
        ],
    )
    def test_malformed_instances(self, mutate):
        data = json.loads(json.dumps(GAUSS_INSTANCE))
        mutate(data)
        with pytest.raises(FormatError):
            instance_from_json(data)
