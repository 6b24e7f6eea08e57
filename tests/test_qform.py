import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert.charp import GF
from normcert.errors import NotRegular
from normcert.extension import SimpleExtension
from normcert.poly import Poly, cleared
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, ZX, RatFunc

from oracles import (
    LOCAL_X,
    coords_of,
    diag_of,
    factor_vector,
    form_at_zero,
    naive_form_value,
    naive_poly_mul,
    reduce_at_zero,
    value_factor,
)

F = Fraction


class TestEvaluate:
    def test_base_examples(self):
        assert QuadraticForm(QQ, [1, 1]).value([1, 2], 1) == 5
        assert QuadraticForm(QQ, [1, -1]).value([1, 1], 1) == 0
        assert QuadraticForm(QQ, [1, 2]).value([3, 0], 1) == 9

    def test_ext_examples(self):
        gauss = SimpleExtension(QQ, Poly(QQ, [1, 0, 1]))
        q = QuadraticForm(QQ, [1, 1])
        xs = [gauss.element([F(3, 2), F(1, 2)]), gauss.element([F(1, 2), F(-1, 2)])]
        assert q.evaluate_ext(xs) == gauss.element([2, 1])

        sqrt2 = SimpleExtension(QQ, Poly(QQ, [-2, 0, 1]))
        assert QuadraticForm(QQ, [1]).evaluate_ext([sqrt2.gen()]) == sqrt2.scalar(2)

        hyp = QuadraticForm(QQ, [1, -1])
        xs = [sqrt2.element([F(1, 2), F(1, 2)]), sqrt2.element([F(-1, 2), F(1, 2)])]
        assert hyp.evaluate_ext(xs) == sqrt2.gen()

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(NotRegular):
            QuadraticForm(QQ, [1, 0])
        with pytest.raises(NotRegular):
            QuadraticForm(QQ_LOCAL_X, [LOCAL_X])
        with pytest.raises(NotRegular):
            QuadraticForm(QQ, [])

    def test_finite_field_values_are_coordinatewise(self):
        k = GF(9)
        q = QuadraticForm(k, [k.one, k.element((0, 1))])
        for y1 in k.elements():
            for y2 in k.elements():
                assert q.value([y1, y2], k.one) == y1 * y1 + diag_of(q)[1] * y2 * y2

    def test_dimension_checks(self):
        q = QuadraticForm(QQ, [1, 1])
        with pytest.raises(ValueError):
            q.value([1], 1)

    def test_residue_commutes_with_ext_evaluation(self):
        ring = QQ_LOCAL_X
        ext = SimpleExtension(
            ring, Poly(ring, [ring.element((1, 1)), ring.zero, ring.one])
        )
        q = QuadraticForm(ring, [ring.one, ring.element((2, 1))])
        rng = random.Random(16)
        for _ in range(100):
            xs = [
                ext.element(
                    [RatFunc((rng.randint(-6, 6), rng.randint(-6, 6))) for _ in range(2)]
                )
                for _ in range(2)
            ]
            lhs = reduce_at_zero(q.evaluate_ext(xs))
            rhs = form_at_zero(q).evaluate_ext([reduce_at_zero(x) for x in xs])
            assert lhs == rhs


small = st.integers(-30, 30)


@st.composite
def forms_and_vectors(draw):
    """A form of rank 1..4 whose diagonal has non-trivial denominators, and
    a vector with zero coordinates and coordinates over a shared and over
    their own denominators."""
    ring = draw(st.sampled_from([QQ, QQ_LOCAL_X]))
    m = draw(st.integers(1, 4))
    if ring is QQ:
        def den():
            return draw(st.integers(1, 40))

        def value(d, unit=False):
            return Fraction(draw(small.filter(bool) if unit else small), d)
    else:
        def den():
            # a denominator with d(0) != 0, of degree 0..2
            return [draw(small.filter(bool))] + draw(st.lists(small, max_size=2))

        def value(d, unit=False):
            num = draw(st.lists(small, min_size=1, max_size=3))
            if unit and not num[0]:
                num[0] = 1
            return RatFunc(num, d)
    diag = [value(den(), unit=True) for _ in range(m)]
    shared = den()
    ys = []
    for _ in range(m):
        kind = draw(st.sampled_from(["zero", "shared", "own"]))
        ys.append(ring.zero if kind == "zero" else value(shared if kind == "shared" else den()))
    return ring, diag, ys


@settings(max_examples=200, deadline=None)
@given(forms_and_vectors())
def test_values_match_coordinatewise_sums(case):
    # equality of Fractions and of RatFuncs compares their normalized
    # parts, so an unnormalized value fails it
    ring, diag, ys = case
    expected = ring.zero
    for a, y in zip(diag, ys):
        expected = expected + a * y * y
    value = QuadraticForm(ring, diag).value(*cleared(ring, ys))
    assert type(value) is type(expected) and value == expected


# the finite fields of orders 2 to 9
FIELDS = [GF(order) for order in (2, 3, 4, 5, 7, 8, 9)]


@st.composite
def forms_and_witnesses(draw):
    """A form of rank 1..4 over Q, Q[x]_(x) or a small finite field, an
    extension of degree 1..4, and a witness whose coordinates are zero,
    share a denominator or have their own; some witness coordinates are
    zero altogether."""
    ring = draw(st.sampled_from([QQ, QQ_LOCAL_X, *FIELDS]))
    if ring is QQ:
        def den():
            return draw(st.integers(1, 40))

        def value(d, unit=False):
            return Fraction(draw(small.filter(bool) if unit else small), d)
    elif ring is QQ_LOCAL_X:
        def den():
            # a denominator with d(0) != 0, of degree 0..2
            return [draw(small.filter(bool))] + draw(st.lists(small, max_size=2))

        def value(d, unit=False):
            num = draw(st.lists(small, min_size=1, max_size=3))
            if unit and not num[0]:
                num[0] = 1
            return RatFunc(num, d)
    else:
        def den():
            return None

        def value(d, unit=False):
            return draw(st.sampled_from(ring.elements()[1:] if unit else ring.elements()))
    n = draw(st.integers(1, 4))
    modulus = Poly(ring, [value(den(), unit=True)] + [value(den()) for _ in range(n - 1)]
                   + [ring.one])
    ext = SimpleExtension(ring, modulus)
    m = draw(st.integers(1, 4))
    diag = [value(den(), unit=True) for _ in range(m)]
    xs = []
    for _ in range(m):
        if draw(st.integers(0, 4)) == 0:
            xs.append(ext.scalar(0))
            continue
        shared = den()
        coords = []
        for _ in range(n):
            kind = draw(st.sampled_from(["zero", "shared", "own"]))
            coords.append(ring.zero if kind == "zero"
                          else value(shared if kind == "shared" else den()))
        xs.append(ext.element(coords))
    return QuadraticForm(ring, diag), xs


@settings(max_examples=200, deadline=None)
@given(forms_and_witnesses())
def test_extension_values_match_coordinatewise_sums(case):
    # element equality compares numerators over a denominator in lowest
    # terms, so an unnormalized value fails it
    q, xs = case
    ext = xs[0].ext
    value = q.evaluate_ext(xs)
    expected = ext.element(naive_form_value(q, xs))
    assert value == expected and hash(value) == hash(expected)
    assert list(coords_of(value)) == list(coords_of(expected))


def _zx(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return ZX(tuple(cs))


@st.composite
def forms_and_columns(draw):
    """A form of rank 1..4 over Q, Q[x]_(x) or a small finite field, and
    one numerator column per diagonal entry in the ring's integral format,
    all of one length 1..6, about half of their entries zero, over a
    denominator d."""
    ring = draw(st.sampled_from([QQ, QQ_LOCAL_X, *FIELDS]))
    if ring is QQ:
        unit = small.filter(bool).map(F)
        entry = st.integers(-(10**6), 10**6)
        d = draw(st.integers(1, 40))
    elif ring is QQ_LOCAL_X:
        unit = st.tuples(small.filter(bool), small).map(RatFunc)
        entry = st.lists(small, max_size=3).map(_zx)
        d = _zx([draw(small.filter(bool)), draw(small)])
    else:
        unit = st.sampled_from(ring.elements()[1:])
        entry = st.sampled_from(ring.elements())
        d = ring.one
    entry = st.one_of(st.just(ring.num_zero), entry)
    m = draw(st.integers(1, 4))
    size = draw(st.integers(1, 6))
    diag = [draw(unit) for _ in range(m)]
    cols = [draw(st.lists(entry, min_size=size, max_size=size)) for _ in range(m)]
    return QuadraticForm(ring, diag), cols, d


@settings(max_examples=200, deadline=None)
@given(forms_and_columns())
def test_poly_value_matches_the_naive_squares(case):
    # each column squared by the schoolbook product, which takes every
    # cross term twice
    q, cols, d = case
    zero = q.ring.num_zero
    coeffs, e = q.integral
    expected = [zero] * (2 * len(cols[0]) - 1)
    for a, col in zip(coeffs, cols):
        for i, s in enumerate(naive_poly_mul(col, col, zero)):
            expected[i] = expected[i] + a * s
    assert q.poly_value(cols, d) == (expected, e * (d * d))


class TestValueFactor:
    def test_factor_exponent_validation(self):
        with pytest.raises(ValueError):
            value_factor(QQ, (F(1),), 2)
        with pytest.raises(ValueError):
            value_factor(QQ, (F(1),), True)  # bool is an int, and True == 1

    def test_a_factor_is_its_vector_in_lowest_terms(self):
        f = value_factor(QQ, (F(1, 2), F(3, 2)), 1)
        assert f == ValueFactor(QQ, (1, 3), 2, 1)
        assert hash(f) == hash(ValueFactor(QQ, (1, 3), 2, 1))
        assert factor_vector(f) == (F(1, 2), F(3, 2))
        assert f.flipped() == ValueFactor(QQ, (1, 3), 2, -1) != f

