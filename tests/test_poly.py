import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert.errors import NotInvertible
from normcert.extension import ExtElement, SimpleExtension
from normcert.poly import Poly
from normcert.rings import QQ, QQ_LOCAL_X

from oracles import (
    horner_free_eval,
    naive_ext_eval,
    naive_poly,
    naive_poly_add,
    naive_poly_divmod,
    naive_poly_mul,
)

ZERO = Fraction(0)
nonzero = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9).filter(bool)
# about half the coefficients are 0, so zero terms and trailing zeros come up
entries = st.one_of(st.just(ZERO), nonzero)
coefficient_lists = st.lists(entries, max_size=8)


@st.composite
def monic_moduli(draw):
    n = draw(st.integers(1, 5))
    return [draw(nonzero)] + draw(st.lists(entries, min_size=n - 1, max_size=n - 1)) + [
        Fraction(1)
    ]


def qp(*coeffs):
    return Poly(QQ, coeffs)


class TestBasics:
    def test_zero_polynomial_conventions(self):
        z = Poly.zero(QQ)
        assert z.degree == -1
        assert not z
        assert z + qp(1, 2) == qp(1, 2)
        assert z * qp(1, 2) == z

    def test_trailing_zeros_trimmed(self):
        assert qp(1, 2, 0, 0) == qp(1, 2)
        assert qp(0, 0).degree == -1

    def test_evaluation_matches_power_sum(self):
        rng = random.Random(2)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
            f = qp(*coeffs)
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert f(v) == horner_free_eval(coeffs, v)


class TestDivision:
    def test_synthetic_division_example(self):
        # (t^2 - 2) / (t - 1) = (t + 1, remainder -1)
        quo, rem = divmod(qp(-2, 0, 1), qp(-1, 1))
        assert quo == qp(1, 1)
        assert rem == qp(-1)

    def test_exact_multiple(self):
        f = qp(0, 1) * qp(1, 0, 1)  # t * (t^2 + 1)
        quo, rem = divmod(f, qp(1, 0, 1))
        assert quo == qp(0, 1)
        assert not rem

    def test_long_division_example(self):
        # hand-checked: 2t^3 + t = (t^2 + 1)(2t) + (-t)
        f, g = qp(0, 1, 0, 2), qp(1, 0, 1)
        quo, rem = divmod(f, g)
        assert g * quo + rem == f  # the oracle identity first
        assert quo == qp(0, 2)
        assert rem == qp(0, -1)

    def test_non_monic_divisor_rejected(self):
        with pytest.raises(NotInvertible):
            divmod(qp(1, 1), qp(1, 2))

    def test_division_identity_random(self):
        rng = random.Random(3)
        for _ in range(300):
            f = qp(*[Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 7))])
            g = qp(*([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))] + [1]))
            quo, rem = divmod(f, g)
            assert g * quo + rem == f
            assert rem.degree < g.degree

    def test_division_over_local_ring(self):
        ring = QQ_LOCAL_X
        x = ring.x
        f = Poly(ring, [x, ring.one, x + ring.one, ring.one])
        g = Poly(ring, [x, ring.one])
        quo, rem = divmod(f, g)
        assert g * quo + rem == f
        assert rem.degree < g.degree


class TestStructure:
    def test_shift_and_scale(self):
        assert qp(1, 2).shift(2) == qp(0, 0, 1, 2)
        assert qp(1, 2).scale(Fraction(3)) == qp(3, 6)

    def test_map_coefficients(self):
        ring = QQ_LOCAL_X
        f = Poly(ring, [ring.element((2, 1)), ring.one])  # (2+x) + t
        reduced = f.map_coefficients(ring.residue, QQ)
        assert reduced == qp(2, 1)

    def test_mixed_ring_equality(self):
        assert Poly(QQ, [1]) != Poly(QQ_LOCAL_X, [1])


def assert_matches(f, coeffs):
    """f holds the Fractions coeffs (trimmed) as integer numerators over one
    positive denominator sharing no factor with all of them, and equals and
    hashes like the polynomial built from those Fractions."""
    coeffs = naive_poly(coeffs)
    nums, den = f.int_form
    assert den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1]
    assert [Fraction(v, den) for v in nums] == coeffs
    assert list(f.coeffs) == coeffs
    assert f.degree == len(coeffs) - 1
    fresh = Poly(QQ, coeffs)
    assert f == fresh and hash(f) == hash(fresh)


class TestIntegerRepresentation:
    """Over Q a Poly is integers over one denominator; every operation
    against a naive Fraction polynomial."""

    @given(coefficient_lists, coefficient_lists, nonzero, st.integers(0, 3))
    def test_ring_operations(self, a, b, s, k):
        f, g = qp(*a), qp(*b)
        assert_matches(f, a)
        assert_matches(f + g, naive_poly_add(a, b))
        assert_matches(f - g, naive_poly_add(a, [-c for c in b]))
        assert_matches(-f, [-c for c in a])
        assert_matches(f * g, naive_poly_mul(naive_poly(a), naive_poly(b)))
        assert_matches(f.scale(s), [c * s for c in a])
        assert_matches(f.scale(ZERO), [])
        assert_matches(f.shift(k), [ZERO] * k + naive_poly(a) if naive_poly(a) else [])
        assert (f == g) == (naive_poly(a) == naive_poly(b))
        assert f.is_monic() == (bool(naive_poly(a)) and naive_poly(a)[-1] == 1)

    @given(st.lists(st.integers(-(10**6), 10**6), max_size=6),
           st.integers(-(10**6), 10**6).filter(bool))
    def test_from_integers(self, nums, den):
        f = Poly.from_ints(nums, den)
        assert_matches(f, [Fraction(v, den) for v in nums])
        assert Poly.from_ints(*f.int_form) == f

    @given(coefficient_lists, monic_moduli())
    def test_division_by_monic_moduli(self, a, modulus):
        quo, rem = divmod(qp(*a), qp(*modulus))
        if len(naive_poly(a)) < len(modulus):
            assert_matches(quo, [])
            assert_matches(rem, a)
            return
        naive_quo, naive_rem = naive_poly_divmod(naive_poly(a), modulus)
        assert_matches(quo, naive_quo)
        assert_matches(rem, naive_rem)

    @given(coefficient_lists, nonzero | st.integers(-50, 50).map(Fraction))
    def test_evaluation_at_a_rational(self, a, v):
        assert qp(*a)(v) == (horner_free_eval(naive_poly(a), v) if naive_poly(a) else 0)

    @settings(max_examples=60, deadline=None)
    @given(coefficient_lists, monic_moduli(), st.data())
    def test_evaluation_and_reduction_in_an_extension(self, a, modulus, data):
        n = len(modulus) - 1
        x = data.draw(st.lists(entries, min_size=n, max_size=n))
        ext = SimpleExtension(QQ, qp(*modulus))
        f = qp(*a)
        value = f(ext.element(x))
        coords = list(value.coords) if isinstance(value, ExtElement) else [value] + [ZERO] * (
            n - 1
        )
        assert coords == naive_ext_eval(modulus, naive_poly(a), x)
        reduced = ext.from_poly(f)
        expected = naive_poly_divmod(naive_poly(a), modulus)[1]
        assert list(reduced.coords) == expected
        assert reduced._den > 0 and gcd(reduced._den, *reduced._nums) == 1
        assert reduced == ext.element(expected)
