"""The integral kernels against naive coordinatewise references: products
in Q[t]/(p), determinants and solves, with zero entries, moduli with
non-integer coefficients (as the sub-level moduli g = h/r have) and
systems whose first pivot is 0.  Extension elements over Q are integers
over one denominator, over Q[x]_(x) Z[x] numerators over one Z[x]
denominator, and over a small finite field their coordinates over one:
every way of building one must leave them normalized, and their norms,
inverses, power-basis coordinates and minimal polynomials must match the
Fraction, RatFunc and finite-field references.  The one fraction-free
elimination runs on int, Z[x] and finite-field entries, where every
division must be exact."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcert import linalg
from normcert.charp import GF
from normcert.errors import InternalAssertion, NotInvertible, NotPrimitive
from normcert.extension import SimpleExtension
from normcert.poly import Poly
from normcert.rings import QQ, QQ_LOCAL_X, ZX, RatFunc

from oracles import (
    coeffs_of, coords_of, mult_matrix, naive_det, naive_ext_mul, naive_poly_gcd, naive_solve,
)

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
    assert e == fresh and hash(e) == hash(fresh)


def naive_matrix(columns):
    return [list(row) for row in zip(*columns)]


def naive_powers(modulus, b):
    n = len(b)
    cols = [[Fraction(1)] + [ZERO] * (n - 1)]
    for _ in range(n):
        cols.append(naive_ext_mul(modulus, cols[-1], b))
    return cols  # b^0 .. b^n


# the finite fields of orders 2 to 9 and 27, those of the char-p demos among them
FIELDS = [GF(order) for order in (2, 3, 4, 5, 7, 8, 9, 27)]
# about half the entries are 0
ints = st.one_of(st.just(0), st.integers(-(10**9), 10**9))


@st.composite
def systems(draw):
    """A square matrix and right-hand columns (as rows), of ints or of the
    elements of one finite field (None for the ints)."""
    field = draw(st.sampled_from([None, *FIELDS]))
    entry = ints if field is None else st.sampled_from(field.elements())
    n = draw(st.integers(1, 6))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        a[0][0] = 0 if field is None else field.zero
    width = draw(st.integers(1, 3))
    b = [draw(st.lists(entry, min_size=width, max_size=width)) for _ in range(n)]
    return a, b, field


def field_div(field):
    """Division in the finite field through its inverse table (not `/`)."""
    return lambda u, v: u * field.invert(v)


def exact_solution(a, rhs, field):
    """The solution of a x = rhs over Q (for ints) or over the field."""
    if field is None:
        return naive_solve([[Fraction(v) for v in row] for row in a], [Fraction(v) for v in rhs])
    return naive_solve(a, rhs, field_div(field))


@given(products())
def test_product_matches_naive(case):
    modulus, a, b = case
    ext = SimpleExtension(QQ, Poly(QQ, modulus))
    assert list(coords_of(ext.element(a) * ext.element(b))) == naive_ext_mul(modulus, a, b)


@given(elements())
def test_elements_stay_normalized(case):
    modulus, a, b, _ = case
    ext = SimpleExtension(QQ, Poly(QQ, modulus))
    x, y = ext.element(a), ext.element(b)
    assert_normalized(x, a)
    assert_normalized(x * y, naive_ext_mul(modulus, a, b))
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
        assert list(coords_of(inverse)) == naive_solve(mult, units[0])
        assert_normalized(inverse, coords_of(inverse))
    else:
        with pytest.raises(NotInvertible):
            x.inverse()
    powers = naive_powers(modulus, b)
    basis = naive_matrix(powers[:n])
    if naive_det(basis):
        assert y.is_primitive()
        assert x.coords_in(y) == naive_solve(basis, a)
        top = naive_solve(basis, powers[n])
        assert list(coeffs_of(y.minimal_polynomial())) == [-v for v in top] + [1]
    else:
        assert not y.is_primitive()
        with pytest.raises(NotPrimitive):
            x.coords_in(y)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_det_and_solve_match_naive(case):
    a, b, field = case
    d = linalg.det(a)
    assert d == naive_det(a)
    if not d:
        # a singular matrix is reported as d = 0, with no columns
        assert linalg.solve_columns(a, b) == ([], 0)
        return
    cols, den = linalg.solve_columns(a, b)
    ratio = Fraction if field is None else field_div(field)
    for j, col in enumerate(cols):
        assert [ratio(v, den) for v in col] == exact_solution(a, [row[j] for row in b], field)


def test_zero_first_pivot_swaps_rows():
    # nonsingular over Z (det -58) and modulo 3 and 5; in characteristic 3
    # the first column has a second zero, so the swap skips a row
    a = [[0, 2, 1], [3, 0, 5], [-7, 4, 0]]
    rhs = [1, -2, 4]
    for field in (None, GF(5), GF(9)):
        m, v = a, rhs
        if field is not None:
            m = [[field.element(e) for e in row] for row in a]
            v = [field.element(e) for e in rhs]
        assert linalg.det(m) == naive_det(m)
        (x,), den = linalg.solve_columns(m, [[e] for e in v])
        ratio = Fraction if field is None else field_div(field)
        assert [ratio(e, den) for e in x] == exact_solution(m, v, field)


# ---------------------------------------------------------------------------
# Q[x]_(x): Z[x] numerators over one Z[x] denominator

LOCAL = QQ_LOCAL_X
small = st.integers(-4, 4)
small_polys = st.lists(small, max_size=3)


@st.composite
def local_values(draw, unit=False):
    """num/den with small integer coefficients and den(0) != 0; num(0) != 0
    too when `unit`."""
    num = draw(st.lists(small, min_size=1, max_size=3))
    if unit:
        num[0] = draw(small.filter(bool))
    den = [draw(small.filter(bool))] + draw(st.lists(small, max_size=2))
    return RatFunc(num, den)


# about half the coordinates are 0
local_entries = st.one_of(st.just(LOCAL.zero), local_values())


@st.composite
def local_elements(draw):
    n = draw(st.integers(1, 4))
    lower = [draw(local_values(unit=True))] + draw(
        st.lists(local_entries, min_size=n - 1, max_size=n - 1))
    a = draw(st.lists(local_entries, min_size=n, max_size=n))
    b = draw(st.lists(local_entries, min_size=n, max_size=n))
    return lower + [LOCAL.one], a, b, draw(local_values())


def local_mul(modulus, a, b):
    return naive_ext_mul(modulus, a, b, LOCAL.zero)


def assert_local_normalized(e, coords):
    # the denominator has d(0) != 0 and a positive leading coefficient, and
    # no integer and no polynomial factor is common to it and all the
    # numerators, so equal elements store equal polynomials
    nums, den = e._nums, e._den
    assert den.c[0] != 0 and den.c[-1] > 0
    assert gcd(*den.c, *(c for v in nums for c in v.c)) == 1
    common = den.c
    for v in nums:
        if v:
            common = naive_poly_gcd(common, v.c)
    assert len(common) == 1
    assert [RatFunc(v.c, den.c) for v in nums] == list(coords)
    fresh = e.ext.element(coords)
    assert e == fresh and hash(e) == hash(fresh)


@settings(max_examples=60, deadline=None)
@given(local_elements())
def test_local_elements_match_coordinatewise_ratfuncs(case):
    modulus, a, b, _ = case
    ext = SimpleExtension(LOCAL, Poly(LOCAL, modulus))
    x, y = ext.element(a), ext.element(b)
    assert_local_normalized(x, a)
    assert_local_normalized(x * y, local_mul(modulus, a, b))
    assert (x == y) == (a == b)


@settings(max_examples=40, deadline=None)
@given(local_elements())
def test_local_norm_inverse_and_basis_match_coordinatewise_ratfuncs(case):
    modulus, a, b, _ = case
    n = len(a)
    ext = SimpleExtension(LOCAL, Poly(LOCAL, modulus))
    x, y = ext.element(a), ext.element(b)
    units = [[LOCAL.one if i == j else LOCAL.zero for i in range(n)] for j in range(n)]
    mult = naive_matrix([local_mul(modulus, a, e) for e in units])
    norm = naive_det(mult)
    assert x.norm() == norm
    if LOCAL.is_invertible(norm):
        inverse = x.inverse()
        assert list(coords_of(inverse)) == naive_solve(mult, units[0])
        assert_local_normalized(inverse, coords_of(inverse))
    else:
        with pytest.raises(NotInvertible):
            x.inverse()
    powers = [units[0]]
    for _ in range(n):
        powers.append(local_mul(modulus, powers[-1], b))
    basis = naive_matrix(powers[:n])
    if LOCAL.is_invertible(naive_det(basis)):
        assert y.is_primitive()
        assert x.coords_in(y) == naive_solve(basis, a)
        top = naive_solve(basis, powers[n])
        assert list(coeffs_of(y.minimal_polynomial())) == [-v for v in top] + [LOCAL.one]
    else:
        assert not y.is_primitive()
        with pytest.raises(NotPrimitive):
            x.coords_in(y)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


zx_entries = small_polys.map(lambda cs: ZX(_trim(cs)))


@st.composite
def zx_systems(draw):
    n = draw(st.integers(1, 4))
    a = [draw(st.lists(zx_entries, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        a[0][0] = ZX()
    width = draw(st.integers(1, 2))
    b = [draw(st.lists(zx_entries, min_size=width, max_size=width)) for _ in range(n)]
    return a, b


@settings(max_examples=60, deadline=None)
@given(zx_systems())
def test_bareiss_on_zx_matches_naive(case):
    a, b = case
    d = linalg.det(a)
    assert d == naive_det(a)
    if not d:
        # a singular matrix is reported as d = 0, with no columns
        assert linalg.solve_columns(a, b) == ([], 0)
        return
    cols, den = linalg.solve_columns(a, b)
    as_ratfuncs = [[RatFunc(v.c) for v in row] for row in a]
    for j, col in enumerate(cols):
        expected = naive_solve(as_ratfuncs, [RatFunc(row[j].c) for row in b])
        assert [RatFunc.from_zx(v, den) for v in col] == expected


@given(zx_entries, zx_entries, zx_entries)
def test_zx_division_is_exact_or_refused(a, b, r):
    if b:
        assert (a * b) // b == a
    # a remainder of lower degree than a nonconstant divisor is never exact
    if len(b.c) > 1 and r and len(r.c) < len(b.c):
        with pytest.raises(InternalAssertion):
            (a * b + r) // b


# ---------------------------------------------------------------------------
# small finite fields: the coordinates over one


@st.composite
def field_elements(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    elems = field.elements()
    coords = st.lists(st.sampled_from(elems), min_size=n, max_size=n)
    lower = [draw(st.sampled_from(elems[1:]))] + draw(coords)[1:]
    return field, lower + [field.one], draw(coords), draw(coords)


@settings(max_examples=80, deadline=None)
@given(field_elements())
def test_finite_field_elements_match_naive(case):
    field, modulus, a, b = case
    n, zero, div = len(a), field.zero, field_div(field)
    ext = SimpleExtension(field, Poly(field, modulus))
    x, y = ext.element(a), ext.element(b)
    product = naive_ext_mul(modulus, a, b, zero)
    assert list(coords_of(x * y)) == product
    # built from its coordinates, the product is the same element
    fresh = ext.element(product)
    assert x * y == fresh and hash(x * y) == hash(fresh)
    assert (x == y) == (a == b)
    norm = naive_det(mult_matrix(x))
    assert x.norm() == norm
    if norm:
        assert x.inverse() * x == ext.one()
    else:
        with pytest.raises(NotInvertible):
            x.inverse()
    powers = [[field.one] + [zero] * (n - 1)]
    for _ in range(n):
        powers.append(naive_ext_mul(modulus, powers[-1], b, zero))
    basis = naive_matrix(powers[:n])
    if naive_det(basis):
        assert y.is_primitive()
        assert list(x.coords_in(y)) == naive_solve(basis, a, div)
        top = naive_solve(basis, powers[n], div)
        assert list(coeffs_of(y.minimal_polynomial())) == [-v for v in top] + [field.one]
    else:
        assert not y.is_primitive()
        with pytest.raises(NotPrimitive):
            x.coords_in(y)
