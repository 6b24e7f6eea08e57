import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normcert.charp import GF, FiniteField
from normcert.errors import CoordinateNotIntegral, NotInvertible, NotSimple
from normcert.extension import SimpleExtension
from normcert.poly import Poly
from normcert.qform import QuadraticForm
from normcert.rings import QQ, QQ_LOCAL_X, ZX, RationalField, RatFunc

from oracles import (
    LOCAL_X,
    coeffs_of,
    coords_of,
    naive_ext_eval,
    naive_poly,
    naive_poly_add,
    naive_poly_divmod,
    naive_poly_mul,
)

nonzero = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9).filter(bool)


def qp(*coeffs):
    return Poly(QQ, coeffs)


def division_identity(f, g, quo, rem):
    """g * quo + rem == f, coefficientwise in the ring's own values."""
    zero = f.ring.zero
    lhs = naive_poly_add(naive_poly_mul(list(coeffs_of(g)), list(coeffs_of(quo)), zero),
                         list(coeffs_of(rem)), zero)
    return lhs == list(coeffs_of(f))


class TestBasics:
    def test_zero_polynomial_conventions(self):
        z = Poly(QQ, ())
        assert z.degree == -1
        assert not z
        assert z * qp(1, 2) == z

    def test_trailing_zeros_trimmed(self):
        assert qp(1, 2, 0, 0) == qp(1, 2)
        assert qp(0, 0).degree == -1


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
        assert division_identity(f, g, quo, rem)  # the oracle identity first
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
            assert division_identity(f, g, quo, rem)
            assert rem.degree < g.degree

    def test_division_over_local_ring(self):
        ring = QQ_LOCAL_X
        x = LOCAL_X
        f = Poly(ring, [x, ring.one, x + ring.one, ring.one])
        g = Poly(ring, [x, ring.one])
        quo, rem = divmod(f, g)
        assert division_identity(f, g, quo, rem)
        assert rem.degree < g.degree


class TestStructure:
    def test_shift_and_scale(self):
        assert qp(1, 2) * qp(0, 0, 1) == qp(0, 0, 1, 2)
        assert qp(1, 2).scale(Fraction(3)) == qp(3, 6)

    def test_mixed_ring_equality(self):
        assert Poly(QQ, [1]) != Poly(QQ_LOCAL_X, [1])

    def test_two_fields_of_one_order_are_unequal(self):
        # two FiniteField(5) objects share an id, and their elements never mix
        a, b = FiniteField(5), FiniteField(5)
        assert Poly(a, [2, 0, 1]) != Poly(b, [2, 0, 1])
        assert Poly(a, [2, 0, 1]) == Poly(a, [2, 0, 1])

    def test_a_field_is_its_own_format(self):
        # two fields of one order share an id, and each holds its vectors
        # over its own one: lowest terms multiply by the inverse of den
        a, b = FiniteField(5), FiniteField(5)
        assert a.num_one is a.one and b.num_one is b.one
        assert a.lowest([a.element(2)], a.element(3)) == ((a.element(4),), a.one)
        assert Poly(a, [2, 0, 1]).integral[1] is a.one
        assert Poly(b, [2, 0, 1]).integral[1] is b.one


LOCAL_UNITS = st.builds(
    lambda num, den: QQ_LOCAL_X.element(RatFunc(num, den)),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda cs: cs[0]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda cs: cs[0]),
)
# over the local ring, a nonzero non-unit now and then: x times a unit
LOCAL_NONZERO = LOCAL_UNITS | LOCAL_UNITS.map(lambda u: u * LOCAL_X)
FIELD = GF(9)
FIELD_NONZERO = st.sampled_from(FIELD.elements()[1:])
# per ring: its nonzero entries, its units, the longest coefficient list
# and the highest modulus degree drawn (the local oracle is slow)
RINGS = {
    QQ.id: (QQ, nonzero, nonzero, 8, 5),
    QQ_LOCAL_X.id: (QQ_LOCAL_X, LOCAL_NONZERO, LOCAL_UNITS, 5, 3),
    FIELD.id: (FIELD, FIELD_NONZERO, FIELD_NONZERO, 8, 5),
}
rings = st.sampled_from(sorted(RINGS))


def ring_case(data):
    """A ring drawn from RINGS with its strategies: coefficient lists
    (about half the entries 0, so zero terms and trailing zeros come up),
    nonzero entries, units and monic moduli with a unit constant term."""
    ring, nonzero_entries, units, size, degree = RINGS[data.draw(rings)]
    lists = st.lists(st.just(ring.zero) | nonzero_entries, max_size=size)

    @st.composite
    def moduli(draw):
        n = draw(st.integers(1, degree))
        middle = draw(st.lists(st.just(ring.zero) | nonzero_entries,
                               min_size=n - 1, max_size=n - 1))
        return [draw(units)] + middle + [ring.one]

    return ring, lists, nonzero_entries, moduli()


def assert_matches(f, coeffs):
    """f holds the ring values coeffs (trimmed) as numerators over one
    denominator in lowest terms, and equals and hashes like the polynomial
    built from those values."""
    ring = f.ring
    coeffs = naive_poly(coeffs)
    nums, den = f.integral
    assert ring.lowest(nums, den) == (nums, den)
    if ring is QQ:
        assert den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1]
    assert ring.values(nums, den) == coeffs
    assert list(coeffs_of(f)) == coeffs
    assert f.degree == len(coeffs) - 1
    fresh = Poly(ring, coeffs)
    assert f == fresh and hash(f) == hash(fresh)


def _zx(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return ZX(tuple(cs))


# numerators and a nonzero denominator in each ring's integral format
INTEGRAL = {
    QQ.id: (st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool)),
    QQ_LOCAL_X.id: (st.lists(st.integers(-20, 20), max_size=3).map(_zx),
                    st.lists(st.integers(-20, 20), min_size=1, max_size=3).map(_zx).filter(bool)),
    FIELD.id: (st.sampled_from(FIELD.elements()), FIELD_NONZERO),
}


class TestIntegerRepresentation:
    """A Poly is numerators over one denominator in its ring's integral
    format; every operation, over Q, Q[x]_(x) and GF(9), against a naive
    coefficientwise polynomial."""

    @settings(deadline=None)
    @given(st.data(), st.integers(0, 3))
    def test_ring_operations(self, data, k):
        ring, lists, nonzero_entries, _ = ring_case(data)
        a, b, s = data.draw(lists), data.draw(lists), data.draw(nonzero_entries)
        zero = ring.zero
        f, g = Poly(ring, a), Poly(ring, b)
        assert_matches(f, a)
        assert_matches(f * g, naive_poly_mul(naive_poly(a), naive_poly(b), zero))
        assert_matches(f.scale(s), [c * s for c in a])
        assert_matches(f.scale(zero), [])
        t_k = Poly(ring, [zero] * k + [ring.one])
        assert_matches(f * t_k, [zero] * k + naive_poly(a) if naive_poly(a) else [])
        assert (f == g) == (naive_poly(a) == naive_poly(b))
        assert f.is_monic() == (bool(naive_poly(a)) and naive_poly(a)[-1] == ring.one)

    @settings(deadline=None)
    @given(rings, st.data())
    def test_from_integers(self, ring_id, data):
        # from the numerators of the integral format over any denominator;
        # over Q[x]_(x) a root of the reduced denominator at x = 0 is a
        # coefficient outside the ring
        ring = RINGS[ring_id][0]
        numerators, denominators = INTEGRAL[ring_id]
        nums = data.draw(st.lists(numerators, max_size=6))
        den = data.draw(denominators)
        values = [ring.value(v, den) for v in nums]
        if not all(ring.contains(v) for v in values):
            with pytest.raises(CoordinateNotIntegral):
                Poly.from_integral(ring, nums, den)
            return
        f = Poly.from_integral(ring, nums, den)
        assert_matches(f, values)
        assert Poly.from_integral(ring, *f.integral) == f

    @settings(deadline=None)
    @given(st.data())
    def test_division_by_monic_moduli(self, data):
        ring, lists, _, moduli = ring_case(data)
        a, modulus = data.draw(lists), data.draw(moduli)
        quo, rem = divmod(Poly(ring, a), Poly(ring, modulus))
        if len(naive_poly(a)) < len(modulus):
            assert_matches(quo, [])
            assert_matches(rem, a)
            return
        naive_quo, naive_rem = naive_poly_divmod(naive_poly(a), modulus, ring.zero)
        assert_matches(quo, naive_quo)
        assert_matches(rem, naive_rem)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluation_and_reduction_in_an_extension(self, data):
        ring, lists, _, moduli = ring_case(data)
        zero = ring.zero
        a, modulus = data.draw(lists), data.draw(moduli)
        n = len(modulus) - 1
        ext = SimpleExtension(ring, Poly(ring, modulus))
        f = Poly(ring, a)
        # the reduction of f is f evaluated at the class of t
        reduced = ext.from_integral(*f.integral)
        expected = naive_poly_divmod(naive_poly(a), modulus, zero)[1]
        assert list(coords_of(reduced)) == expected
        gen = [zero, ring.one] + [zero] * (n - 2) if n > 1 else [-modulus[0]]
        assert expected == naive_ext_eval(modulus, naive_poly(a), gen, zero, ring.one)
        assert ring.lowest(reduced._nums, reduced._den) == (reduced._nums, reduced._den)
        assert reduced == ext.element(expected)

    @settings(max_examples=80, deadline=None)
    @given(rings, st.data())
    def test_reduction_of_any_length(self, ring_id, data):
        # any number of numerators, fewer than n among them, reduced into
        # R[t]/(p) for n = 1..4: the remainder of long division, normalized,
        # so equal to and hashing like the element built from its
        # coordinates; and the class of t is t, or -p(0) when n = 1
        ring, nonzero_entries, units, _, _ = RINGS[ring_id]
        zero = ring.zero
        n = data.draw(st.integers(1, 4))
        middle = data.draw(st.lists(st.just(zero) | nonzero_entries,
                                    min_size=n - 1, max_size=n - 1))
        modulus = [data.draw(units)] + middle + [ring.one]
        ext = SimpleExtension(ring, Poly(ring, modulus))
        numerators, denominators = INTEGRAL[ring_id]
        nums = data.draw(st.lists(numerators, max_size=2 * n + 1))
        den = data.draw(denominators)
        values = [ring.value(v, den) for v in nums]
        assume(all(ring.contains(v) for v in values))
        reduced = ext.from_integral(nums, den)
        expected = naive_poly_divmod(values, modulus, zero)[1]
        assert list(coords_of(reduced)) == expected
        assert ring.lowest(*reduced.integral) == reduced.integral
        fresh = ext.element(expected)
        assert reduced == fresh and hash(reduced) == hash(fresh)
        t = ext.element(naive_poly_divmod([zero, ring.one], modulus, zero)[1])
        assert ext.gen() == t and hash(ext.gen()) == hash(t)
        if n == 1:
            assert coords_of(t) == (-modulus[0],)


def test_rings_are_compared_as_objects():
    # a second ring object under the id "Q" is another ring: polynomials,
    # extensions and forms compare and hash the ring object, not its id
    twin = RationalField()
    assert twin.id == QQ.id
    assert qp(1, 1) != Poly(twin, [1, 1])
    assert len({qp(1, 1), Poly(twin, [1, 1])}) == 2
    with pytest.raises(NotSimple):
        SimpleExtension(twin, qp(1, 0, 1))
    ext = SimpleExtension(QQ, qp(1, 0, 1))
    assert ext != SimpleExtension(twin, Poly(twin, [1, 0, 1]))
    with pytest.raises(ValueError):
        QuadraticForm(twin, [1, 1]).evaluate_ext([ext.one(), ext.gen()])
    assert QuadraticForm(twin, [1, 1]) != QuadraticForm(QQ, [1, 1])
