"""The integer kernels over Q against naive Fraction references: products
in Q[t]/(p), determinants and solves, with zero entries, moduli with
non-integer coefficients (as the sub-level moduli g = h/r have) and
systems whose first pivot is 0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert import linalg
from normcert.errors import InternalAssertion
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
