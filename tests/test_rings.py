import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert import rings
from normcert.errors import NotInvertible, NotRegular, RingMismatch
from normcert.rings import QQ, QQ_LOCAL_X, RatFunc, get_ring, sample_residue

from oracles import (
    LOCAL_X,
    fraction_view,
    horner_free_eval,
    naive_poly_gcd,
    naive_poly_mul,
    value_at_zero,
)


def rf(num, den=(1,)):
    return RatFunc(num, den)


def value_at(a, v):
    """a(v) from the Fraction view; a pole raises ZeroDivisionError."""
    num, den = fraction_view(a)
    return (horner_free_eval(num, v) or Fraction(0)) / horner_free_eval(den, v)


X = LOCAL_X


class TestRationalField:
    def test_arithmetic_examples(self):
        half, third = QQ.element(Fraction(1, 2)), QQ.element(Fraction(1, 3))
        assert half + third == Fraction(5, 6)
        assert QQ.element(Fraction(2, 3)) * QQ.element(Fraction(3, 2)) == QQ.one
        assert half - half == QQ.zero

    def test_invert(self):
        assert QQ.invert(Fraction(5, 7)) == Fraction(7, 5)
        with pytest.raises(NotInvertible):
            QQ.invert(Fraction(0))

    def test_mixed_ring_arithmetic_rejected(self):
        with pytest.raises(RingMismatch):
            QQ.is_invertible(rf((1, 1)))
        with pytest.raises(RingMismatch):
            QQ.element(rf((1,)))

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @given(st.fractions().filter(bool))
    def test_inverse_axiom(self, a):
        assert a * QQ.invert(a) == 1


class TestLocalRationalFunctions:
    def test_cancellation_example(self):
        # (x/(1+x)) * ((1+x)/1) = x
        a = rf((0, 1), (1, 1))
        b = rf((1, 1))
        assert a * b == X

    def test_canonical_form(self):
        # x(1+x)/(1+x) reduces to x
        a = rf((0, 1, 1), (1, 1))
        assert (a.numerator, a.denominator) == (rings.ZX((0, 1)), rings.ZX_ONE)
        assert fraction_view(a) == ((Fraction(0), Fraction(1)), (Fraction(1),))
        # integer polynomials without content over a positive leading
        # coefficient; the text scales the denominator's constant term to 1
        b = rf((2, 1), (2, -1))
        assert (b.numerator, b.denominator) == (rings.ZX((-2, -1)), rings.ZX((-2, 1)))
        assert repr(b) == "(1 + 1/2*x)/(1 - 1/2*x)"
        assert b == rf((1, Fraction(1, 2)), (1, Fraction(-1, 2)))

    def test_invert_examples(self):
        a = rf((1, 1), (1, -1))  # (1+x)/(1-x)
        assert QQ_LOCAL_X.invert(a) == rf((1, -1), (1, 1))
        with pytest.raises(NotInvertible):
            QQ_LOCAL_X.invert(rf((0, 1), (1, 1)))  # x/(1+x)
        with pytest.raises(NotInvertible):
            QQ_LOCAL_X.invert(QQ_LOCAL_X.zero)

    def test_membership(self):
        assert not QQ_LOCAL_X.contains(rf((1,), (0, 1)))  # 1/x has a pole at 0
        with pytest.raises(RingMismatch):
            QQ_LOCAL_X.check(rf((1,), (0, 1)))
        with pytest.raises(RingMismatch):
            QQ_LOCAL_X.is_invertible(Fraction(1))

    def test_unit_iff_nonzero_residue(self):
        rng = random.Random(5)
        for _ in range(300):
            a = _random_local(rng)
            has_inverse = True
            try:
                inv = QQ_LOCAL_X.invert(a)
            except NotInvertible:
                has_inverse = False
            assert has_inverse == (value_at_zero(a) != 0)
            if has_inverse:
                assert a * inv == QQ_LOCAL_X.one

    def test_residue_is_ring_homomorphism(self):
        rng = random.Random(6)
        for _ in range(1000):
            a = _random_local(rng)
            b = _random_local(rng)
            assert value_at_zero(a + b) == value_at_zero(a) + value_at_zero(b)
            assert value_at_zero(a * b) == value_at_zero(a) * value_at_zero(b)


class TestRatFuncArithmetic:
    def test_operations_agree_with_pointwise_values(self):
        rng = random.Random(8)
        points = [Fraction(2), Fraction(1, 3), Fraction(-5, 2), Fraction(9)]
        for _ in range(300):
            a = _random_ratfunc(rng)
            b = _random_ratfunc(rng)
            combos = [(a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y),
                      (a * b, lambda x, y: x * y)]
            if b:
                combos.append((a / b, lambda x, y: x / y))
            for result, op in combos:
                for v in points:
                    try:
                        expected = op(value_at(a, v), value_at(b, v))
                        got = value_at(result, v)
                    except ZeroDivisionError:
                        continue
                    assert got == expected

    def test_equality_is_structural(self):
        assert rf((1, 2, 1), (1, 1)) == rf((1, 1))  # (1+x)^2/(1+x) = 1+x
        assert rf((0, 2), (2,)) == X
        assert hash(rf((0, 2), (2,))) == hash(X)

    def test_values_equal_to_numbers_hash_like_them(self):
        zx_constants = [rings.ZX((k,) if k else ()) for k in range(-5, 6)]
        pool = (
            list(range(-5, 6))
            + [Fraction(k, 2) for k in range(-5, 6, 2)] + [Fraction(-1, 3)]
            + zx_constants + [rings.ZX((0, 1)), rings.ZX((1, 1))]
            + [RatFunc.constant(v) for v in (-5, 0, 3, Fraction(1, 2), Fraction(-1, 3))]
            + [QQ_LOCAL_X.element(k) for k in range(-5, 6)]
            + [X, rf((1, 1)), rf((0, 2), (2,)), QQ_LOCAL_X.one / X, rf((1,), (2, 1)),
               rf((0, 1), (3,))]
        )
        equal_pairs = 0
        for a in pool:
            for b in pool:
                if a == b:
                    equal_pairs += 1
                    assert hash(a) == hash(b), (a, b)
        # each number above meets its RatFunc and ZX twins
        assert equal_pairs > 2 * len(pool)
        assert len({3, QQ_LOCAL_X.element(3), rings.ZX((3,))}) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ_LOCAL_X.one / QQ_LOCAL_X.zero
        with pytest.raises(ZeroDivisionError):
            RatFunc((1,), ())

    def test_values_outside_the_local_ring(self):
        # 1/x exists as a fraction-field value but has a pole at 0
        one_over_x = QQ_LOCAL_X.one / X
        assert not QQ_LOCAL_X.in_ring(one_over_x.denominator)
        assert not QQ_LOCAL_X.contains(one_over_x)
        assert fraction_view(one_over_x)[1] == (Fraction(0), Fraction(1))
        with pytest.raises(ZeroDivisionError):
            value_at_zero(one_over_x)
        # multiplying back by x lands in the ring again
        assert one_over_x * X == QQ_LOCAL_X.one


def _mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _trim_int(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


_RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_COEFFS = st.lists(_RATIONAL, max_size=4)
_NONZERO_COEFFS = _COEFFS.filter(any)


@st.composite
def _ratfuncs(draw):
    return RatFunc(draw(_COEFFS), draw(_NONZERO_COEFFS))


def _small_zx(min_size=0):
    return st.lists(st.integers(-9, 9), min_size=min_size, max_size=4).map(_trim_int)


def _assert_lowest_terms(a):
    """numerator / denominator share no factor, integer content included,
    and the denominator has a positive leading coefficient."""
    num, den = a.numerator.c, a.denominator.c
    assert den and den[-1] > 0, a
    if not num:
        assert den == (1,), a
        return
    assert gcd(*num, *den) == 1, a
    assert naive_poly_gcd(num, den) == (1,), a


class TestOneNormalForm:
    @settings(deadline=None)
    @given(_ratfuncs(), _ratfuncs(), _small_zx(), _small_zx(1).filter(bool),
           _small_zx(1).filter(bool), st.integers(-6, 6).filter(bool))
    def test_every_result_is_in_lowest_terms(self, a, b, n, d, common, k):
        # a planted common factor k * common for from_zx to cancel, and
        # sums and products that must cancel b's denominator again
        scale = _mul_int(common, (k,))
        results = [a, b, a + b, a - b, a * b, (a + b) - b, (a * b) * b,
                   RatFunc.from_zx(rings.ZX(n), rings.ZX(d)),
                   RatFunc.from_zx(rings.ZX(_mul_int(n, scale) if n else ()),
                                   rings.ZX(_mul_int(d, scale)))]
        if b:
            results += [a / b, (a * b) / b, (a / b) * b]
        for r in results:
            _assert_lowest_terms(r)

    @settings(deadline=None)
    @given(_COEFFS, _NONZERO_COEFFS, st.integers(-9, 9).filter(bool))
    def test_one_value_has_one_pair(self, num, den, k):
        a = RatFunc(num, den)
        one_plus_x = [Fraction(1), Fraction(1)]
        twins = [
            RatFunc([k * c for c in num], [k * c for c in den]),
            RatFunc(naive_poly_mul(num, one_plus_x), naive_poly_mul(den, one_plus_x)),
            RatFunc.from_zx(a.numerator * k * rings.ZX((1, 1)),
                            a.denominator * k * rings.ZX((1, 1))),
        ]
        for b in twins:
            assert (b.numerator, b.denominator) == (a.numerator, a.denominator)
            assert b == a and hash(b) == hash(a)


def _fallback_zgcd(a, b):
    """`_zgcd` with the heuristic giving up at once, so the fallback decides."""
    with mock.patch.object(rings, "_zgcd_heuristic", lambda a, b: None):
        return rings._zgcd(a, b)


# coefficients of a few digits and past 2^64, of either sign
_COEFF = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))


def _zpoly(max_degree):
    return st.lists(_COEFF, min_size=1, max_size=max_degree + 1).map(_trim_int).filter(bool)


@st.composite
def _gcd_inputs(draw):
    """A planted common factor times two cofactors (total degree <= 20);
    sometimes equal inputs or a constant input."""
    common = draw(_zpoly(10))
    a = _mul_int(common, draw(_zpoly(10)))
    shape = draw(st.sampled_from(["planted", "planted", "planted", "equal", "constant"]))
    if shape == "equal":
        return a, a
    if shape == "constant":
        return a, draw(_zpoly(0))
    return a, _mul_int(common, draw(_zpoly(10)))


class TestPolynomialGcd:
    def test_matches_slow_euclid(self):
        from normcert.rings import _zgcd

        rng = random.Random(40)
        for _ in range(250):
            a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            common = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            left = _mul_int(a, common)
            right = _mul_int(b, common)
            got = _zgcd(left, right)[0]
            expected = naive_poly_gcd(
                [Fraction(v) for v in left], [Fraction(v) for v in right]
            )
            if not expected:
                assert got == ()
                continue
            # same monic polynomial up to the primitive-integer normalization
            assert got, (left, right)
            assert tuple(Fraction(c, got[-1]) for c in got) == expected

    def test_divides_both_inputs(self):
        from normcert.rings import _zdivides, _zgcd

        rng = random.Random(41)
        for _ in range(200):
            a = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 7)))
            b = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 7)))
            while a and a[-1] == 0:
                a = a[:-1]
            while b and b[-1] == 0:
                b = b[:-1]
            if not a or not b:
                continue
            g = _zgcd(a, b)[0]
            assert _zdivides(g, a) is not None
            assert _zdivides(g, b) is not None

    @settings(deadline=None)
    @given(_gcd_inputs())
    def test_cofactors_property(self, pair):
        a, b = pair
        g, qa, qb = rings._zgcd(a, b)
        assert g[-1] > 0 and gcd(*g) == 1
        assert _mul_int(g, qa) == a
        assert _mul_int(g, qb) == b
        assert _fallback_zgcd(qa, qb)[0] == (1,)
        assert _fallback_zgcd(a, b) == (g, qa, qb)


def test_zx_leaves_foreign_operands_to_them():
    # a ZX numerator times an extension element or a RatFunc is theirs to take
    p = rings.ZX((1, 2))
    for op in ("__add__", "__sub__", "__mul__", "__floordiv__"):
        assert getattr(p, op)(Fraction(1, 2)) is NotImplemented
    assert p * X == rf((0, 1, 2)) and X * p == rf((0, 1, 2))
    assert p - 3 == rings.ZX((-2, 2)) and p + X == rf((1, 3))


def test_get_ring():
    assert get_ring("Q") is QQ
    assert get_ring("Q[x]_(x)") is QQ_LOCAL_X
    with pytest.raises(ValueError):
        get_ring("Z")


class TestSampleResidue:
    def test_range_contract(self):
        rng = random.Random(0)
        for _ in range(200):
            v = sample_residue(rng, 10)
            assert v.denominator == 1 and -10 <= v <= 10

    def test_determinism(self):
        a = [sample_residue(random.Random(42), 7) for _ in range(20)]
        b = [sample_residue(random.Random(42), 7) for _ in range(20)]
        assert a == b

    def test_bound_one(self):
        rng = random.Random(1)
        values = {sample_residue(rng, 1) for _ in range(100)}
        assert values == {Fraction(-1), Fraction(0), Fraction(1)}

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            sample_residue(random.Random(0), 0)

    def test_a_draw_is_an_integer_constant_of_the_local_ring(self):
        # the search builds its sampled scalings from draws over the ring
        # itself: a draw v is the constant v, a unit exactly when v != 0
        rng = random.Random(8)
        for _ in range(200):
            v = sample_residue(rng, 20)
            a = QQ_LOCAL_X.element(v)
            assert fraction_view(a) == (((v,) if v else ()), (Fraction(1),))
            assert value_at_zero(a) == v
            assert QQ_LOCAL_X.is_invertible(a) == (v != 0)


def _random_local(rng: random.Random) -> RatFunc:
    num = [Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(1, 4))]
    den = [Fraction(rng.choice([-2, -1, 1, 2, 3]))] + [
        Fraction(rng.randint(-8, 8)) for _ in range(rng.randint(0, 3))
    ]
    return QQ_LOCAL_X.element(RatFunc(num, den))


def _random_ratfunc(rng: random.Random) -> RatFunc:
    num = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
    den = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
    if not any(den):
        den = [Fraction(1)]
    return RatFunc(num, den)


class TestMessagesPastTheDigitLimit:
    """Each message that shows a ring element writes it in full, also past
    Python's int/str digit limit, where str() and repr() raise ValueError."""

    BIG = 10**4400 + 1

    def test_shown_writes_every_digit(self):
        big = self.BIG
        assert rings.shown(big) == "1" + "0" * 4399 + "1"
        assert rings.shown(Fraction(-big, 3)) == "-1" + "0" * 4399 + "1/3"
        assert rings.shown(Fraction(7)) == str(Fraction(7))
        assert rings.shown(Fraction(-2, 3)) == str(Fraction(-2, 3))
        assert "0" * 4399 in repr(rf((1, Fraction(big, 2)), (3, big)))

    def test_every_message_site(self):
        from normcert.charp import GF
        from normcert.qform import QuadraticForm

        big = self.BIG
        huge_pole = rf((-1,), (0, big))
        cases = [
            (RingMismatch, lambda: QQ.element(huge_pole)),
            (RingMismatch, lambda: QQ.check(big)),
            (RingMismatch, lambda: QQ_LOCAL_X.element(huge_pole)),
            (RingMismatch, lambda: QQ_LOCAL_X.check(Fraction(big))),
            (RingMismatch, lambda: QQ_LOCAL_X.check(huge_pole)),
            (NotInvertible, lambda: QQ_LOCAL_X.invert(rf((0, big)))),
            (RingMismatch, lambda: GF(5).element(huge_pole)),
            (RingMismatch, lambda: GF(5).check(Fraction(big))),
            (NotRegular, lambda: QuadraticForm(QQ_LOCAL_X, [rf((0, big))])),
            # the unit test and the inverse take ring values only
            (RingMismatch, lambda: QQ.is_invertible("1/2")),
            (RingMismatch, lambda: QQ.invert(1)),
            (RingMismatch, lambda: GF(5).is_invertible(Fraction(1))),
            (NotInvertible, lambda: QQ.invert(QQ.zero)),
            (NotInvertible, lambda: QQ_LOCAL_X.invert(QQ_LOCAL_X.zero)),
            (NotInvertible, lambda: GF(5).invert(GF(5).zero)),
        ]
        for error, call in cases:
            with pytest.raises(error):
                call()
