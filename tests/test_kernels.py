"""The integer kernels over Q against naive Fraction references: products
in Q[t]/(p), determinants and solves, with zero entries, moduli with
non-integer coefficients (as the sub-level moduli g = h/r have) and
systems whose first pivot is 0.  Extension elements over Q are integers
over one denominator: every way of building one must leave them
normalized, and their norms, inverses, power-basis coordinates and minimal
polynomials must match the same references."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert import linalg
from normcert.errors import InternalAssertion, NotInvertible, NotPrimitive
from normcert.extension import SimpleExtension
from normcert.poly import Poly
from normcert.rings import QQ

from oracles import naive_det, naive_ext_mul, naive_solve

ZERO = Fraction(0)
nonzero = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9).filter(bool)
# about half the entries are 0, so zero coordinates and zero pivots come up
entries = st.one_of(st.just(ZERO), nonzero)


@st.composite
def products(draw):
    n = draw(st.integers(1, 6))
    lower = [draw(nonzero)] + draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    a = draw(st.lists(entries, min_size=n, max_size=n))
    b = draw(st.lists(entries, min_size=n, max_size=n))
    return lower + [Fraction(1)], a, b


@st.composite
def elements(draw):
    modulus, a, b = draw(products())
    return modulus, a, b, draw(nonzero)


def assert_normalized(e, coords):
    # the stored integers are the coordinates over one positive denominator
    # sharing no factor with all of them, so equal elements store equal ints
    nums, den = e._nums, e._den
    assert den > 0 and gcd(den, *nums) == 1
    assert [Fraction(v, den) for v in nums] == list(coords)
    fresh = e.ext.element(coords)
    assert e == fresh and hash(e) == hash(fresh) == hash((e.ext, tuple(coords)))


def naive_matrix(columns):
    return [list(row) for row in zip(*columns)]


def naive_powers(modulus, b):
    n = len(b)
    cols = [[Fraction(1)] + [ZERO] * (n - 1)]
    for _ in range(n):
        cols.append(naive_ext_mul(modulus, cols[-1], b))
    return cols  # b^0 .. b^n


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        a[0][0] = ZERO
    width = draw(st.integers(1, 3))
    b = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(n)]
    return a, b


@given(products())
def test_product_matches_naive(case):
    modulus, a, b = case
    ext = SimpleExtension(QQ, Poly(QQ, modulus))
    assert list((ext.element(a) * ext.element(b)).coords) == naive_ext_mul(modulus, a, b)


@given(elements())
def test_elements_stay_normalized(case):
    modulus, a, b, s = case
    ext = SimpleExtension(QQ, Poly(QQ, modulus))
    x, y = ext.element(a), ext.element(b)
    assert_normalized(x, a)
    assert_normalized(x * y, naive_ext_mul(modulus, a, b))
    assert_normalized(x + y, [u + v for u, v in zip(a, b)])
    assert_normalized(x - y, [u - v for u, v in zip(a, b)])
    assert_normalized(-x, [-u for u in a])
    assert_normalized(x * s, [u * s for u in a])
    assert_normalized(s + x, [a[0] + s] + a[1:])
    assert (x == y) == (a == b)


@settings(max_examples=40, deadline=None)
@given(elements())
def test_norm_inverse_and_basis_match_naive(case):
    modulus, a, b, _ = case
    n = len(a)
    ext = SimpleExtension(QQ, Poly(QQ, modulus))
    x, y = ext.element(a), ext.element(b)
    units = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    mult = naive_matrix([naive_ext_mul(modulus, a, e) for e in units])
    norm = naive_det(mult)
    assert x.norm() == norm
    if norm:
        inverse = x.inverse()
        assert list(inverse.coords) == naive_solve(mult, units[0])
        assert_normalized(inverse, inverse.coords)
    else:
        with pytest.raises(NotInvertible):
            x.inverse()
    powers = naive_powers(modulus, b)
    basis = naive_matrix(powers[:n])
    if naive_det(basis):
        assert y.is_primitive()
        assert x.coords_in(y) == naive_solve(basis, a)
        top = naive_solve(basis, powers[n])
        assert list(y.minimal_polynomial().coeffs) == [-v for v in top] + [1]
    else:
        assert not y.is_primitive()
        with pytest.raises(NotPrimitive):
            x.coords_in(y)


@settings(max_examples=40, deadline=None)
@given(systems())
def test_det_and_solve_match_naive(case):
    a, b = case
    d = linalg.det(QQ, a)
    assert d == naive_det(a)
    if d == 0:
        with pytest.raises(InternalAssertion):
            linalg.solve_columns(QQ, a, b)
        return
    cols = linalg.solve_columns(QQ, a, b)
    assert cols == [naive_solve(a, [row[j] for row in b]) for j in range(len(b[0]))]


def test_zero_first_pivot_swaps_rows():
    a = [[ZERO, Fraction(2), Fraction(1, 3)],
         [Fraction(1, 2), ZERO, Fraction(5)],
         [Fraction(-7), Fraction(3, 4), ZERO]]
    rhs = [Fraction(1), Fraction(-2, 9), Fraction(4)]
    assert linalg.det(QQ, a) == naive_det(a)
    assert linalg.solve(QQ, a, rhs) == naive_solve(a, rhs)
