import random
from fractions import Fraction

import pytest

from normcert import linalg
from normcert.charp import GF
from normcert.errors import InternalAssertion, NotInvertible, NotPrimitive, NotSimple
from normcert.extension import SimpleExtension
from normcert.poly import Poly, cleared
from normcert.rings import QQ, QQ_LOCAL_X, RatFunc

from oracles import (
    LOCAL_X,
    coeffs_of,
    coords_of,
    horner_free_eval,
    mult_matrix,
    naive_det,
    naive_ext_eval,
    naive_poly_divmod,
    naive_solve,
    powers_matrix,
    reduce_at_zero,
    value_at_zero,
)

F = Fraction


def qq_ext(*modulus_coeffs):
    return SimpleExtension(QQ, Poly(QQ, modulus_coeffs))


@pytest.fixture
def sqrt2():
    return qq_ext(-2, 0, 1)


@pytest.fixture
def gauss():
    return qq_ext(1, 0, 1)


@pytest.fixture
def local_ext():
    # t^2 - (1+x) over Q[x]_(x); constant term -(1+x) is a unit
    ring = QQ_LOCAL_X
    one_plus_x = ring.element((1, 1))
    return SimpleExtension(ring, Poly(ring, [-one_plus_x, ring.zero, ring.one]))


class TestConstruction:
    def test_valid_extensions(self, sqrt2, gauss, local_ext):
        assert sqrt2.n == 2 and gauss.n == 2 and local_ext.n == 2

    def test_rejects_non_unit_constant_term(self):
        with pytest.raises(NotSimple):
            qq_ext(0, 0, 1)  # t^2
        with pytest.raises(NotSimple):
            ring = QQ_LOCAL_X
            SimpleExtension(ring, Poly(ring, [LOCAL_X, ring.zero, ring.one]))  # t^2 + x

    def test_rejects_non_monic(self):
        with pytest.raises(NotSimple):
            qq_ext(1, 0, 2)
        with pytest.raises(NotSimple):
            qq_ext(3)  # degree 0

    def test_degree_one(self):
        ext = qq_ext(-3, 1)  # t - 3
        assert ext.gen() == ext.scalar(3)
        assert ext.gen().norm() == 3


class TestArithmetic:
    def test_generator_square(self, sqrt2):
        t = sqrt2.gen()
        assert t * t == sqrt2.scalar(2)

    def test_mult_matrix_examples(self, sqrt2, gauss):
        t = sqrt2.gen()
        assert mult_matrix(t) == [[F(0), F(2)], [F(1), F(0)]]
        assert mult_matrix(sqrt2.one()) == [[F(1), F(0)], [F(0), F(1)]]
        a = gauss.element([2, 1])  # 2 + t with t^2 = -1
        assert mult_matrix(a) == [[F(2), F(-1)], [F(1), F(2)]]

    def test_norm_examples(self, sqrt2, gauss):
        # frozen from the permutation-expansion oracle
        t = sqrt2.gen()
        assert naive_det(mult_matrix(t)) == -2
        assert t.norm() == -2
        assert sqrt2.one().norm() == 1
        a = gauss.element([2, 1])
        assert naive_det(mult_matrix(a)) == 5
        assert a.norm() == 5

    def test_inverse_example(self, gauss):
        a = gauss.element([2, 1])
        inv = a.inverse()
        assert inv == gauss.element([F(2, 5), F(-1, 5)])
        assert a * inv == gauss.one()

    def test_inverse_of_zero(self, sqrt2):
        with pytest.raises(NotInvertible):
            sqrt2.scalar(0).inverse()

    def test_norm_multiplicative(self, sqrt2, local_ext):
        cubic = qq_ext(-1, -1, 0, 1)  # t^3 - t - 1
        rng = random.Random(9)
        for ext, rounds in ((sqrt2, 500), (cubic, 500), (local_ext, 500)):
            for _ in range(rounds):
                a = _random_element(ext, rng)
                b = _random_element(ext, rng)
                assert (a * b).norm() == a.norm() * b.norm()


class TestPrimitivity:
    def test_powers_matrix_examples(self, sqrt2):
        scalar3 = sqrt2.scalar(3)
        assert powers_matrix(scalar3) == [[F(1), F(3)], [F(0), F(0)]]
        assert not scalar3.is_primitive()
        b = sqrt2.element([1, 1])
        assert powers_matrix(b) == [[F(1), F(1)], [F(0), F(1)]]
        assert b.is_primitive()

    def test_generator_is_primitive(self, gauss):
        assert gauss.gen().is_primitive()

    def test_coords_in_basis_examples(self, sqrt2, gauss):
        t = sqrt2.gen()
        d = sqrt2.element([1, 1])
        assert t.coords_in(d) == [F(-1), F(1)]  # t = -1 + (1+t)
        assert d.coords_in(d) == [F(0), F(1)]
        x = gauss.element([F(3, 2), F(1, 2)])
        assert x.coords_in(gauss.element([2, 1])) == [F(1, 2), F(1, 2)]

    def test_coords_need_primitive_basis(self, sqrt2):
        with pytest.raises(NotPrimitive):
            sqrt2.gen().coords_in(sqrt2.scalar(3))

    def test_reconstruction_random(self, sqrt2, gauss):
        rng = random.Random(10)
        for ext in (sqrt2, gauss, qq_ext(2, 0, 0, 1)):
            d = _random_primitive(ext, rng)
            for _ in range(50):
                x = _random_element(ext, rng)
                coords = x.coords_in(d)
                acc = [ext.ring.zero] * ext.n
                power = ext.one()
                for v in coords:
                    acc = [a + v * w for a, w in zip(acc, coords_of(power))]
                    power = power * d
                assert ext.element(acc) == x

    def test_top_coefficient_examples(self, gauss):
        x = gauss.element([F(3, 2), F(1, 2)])
        d = gauss.element([2, 1])
        assert x.coords_in(d)[-1] == F(1, 2)
        assert d.coords_in(d)[-1] == 1  # n = 2
        assert gauss.one().coords_in(d)[-1] == 0

    def test_top_coefficient_degree_three(self):
        cubic = qq_ext(-1, -1, 0, 1)
        d = cubic.gen()
        assert d.coords_in(d)[-1] == 0  # n >= 3


class TestMinimalPolynomial:
    def test_generator_recovers_modulus(self, sqrt2, gauss):
        assert sqrt2.gen().minimal_polynomial() == sqrt2.modulus
        assert gauss.gen().minimal_polynomial() == gauss.modulus

    def test_examples(self, sqrt2, gauss):
        # (1+t)^2 = 3 + 2t = 2(1+t) + 1, so tau^2 - 2 tau - 1
        assert sqrt2.element([1, 1]).minimal_polynomial() == Poly(QQ, [-1, -2, 1])
        # (2+t)^2 = 3 + 4t = 4(2+t) - 5, so tau^2 - 4 tau + 5
        assert gauss.element([2, 1]).minimal_polynomial() == Poly(QQ, [5, -4, 1])

    def test_vanishes_on_element(self, sqrt2):
        rng = random.Random(11)
        for ext in (sqrt2, qq_ext(3, 1, 0, 1)):
            for _ in range(30):
                b = _random_primitive(ext, rng)
                p = b.minimal_polynomial()
                modulus = list(coeffs_of(ext.modulus))
                assert naive_ext_eval(modulus, list(coeffs_of(p)), list(coords_of(b))) == [0] * ext.n
                assert p.is_monic() and p.degree == ext.n

    def test_a_polynomial_that_does_not_vanish_is_refused(self, sqrt2, monkeypatch):
        # a solve that is off by one in the constant coordinate gives a
        # polynomial that does not vanish on the element, and the zero test
        # over one common denominator must catch it
        solve = linalg.solve_columns

        def off_by_one(a, b):
            cols, d = solve(a, b)
            return [[col[0] + d] + col[1:] for col in cols], d

        monkeypatch.setattr(linalg, "solve_columns", off_by_one)
        with pytest.raises(InternalAssertion):
            sqrt2.element([1, 1]).minimal_polynomial()

    def test_norm_constant_term_sign(self):
        # N(b) = (-1)^n * p_b(0) on random primitive elements
        rng = random.Random(12)
        for ext in (qq_ext(-2, 0, 1), qq_ext(-1, -1, 0, 1), qq_ext(2, 0, 0, 0, 1)):
            for _ in range(25):
                b = _random_primitive(ext, rng)
                p = b.minimal_polynomial()
                assert b.norm() == (-1) ** ext.n * p.constant_term

    def test_requires_primitive(self, sqrt2):
        with pytest.raises(NotPrimitive):
            sqrt2.scalar(2).minimal_polynomial()


class TestPrimitiveTransfer:
    def test_reduction_examples(self, local_ext):
        # the oracle's reduction at x = 0, which the next test relies on
        ring = QQ_LOCAL_X
        a = local_ext.element([ring.element((1, 1)), LOCAL_X])  # (1+x) + x*t
        bar = reduce_at_zero(a)
        assert bar.ext.modulus == Poly(QQ, [-1, 0, 1])  # t^2 - 1 over Q
        assert coords_of(bar) == (F(1), F(0))

    def test_primitive_iff_reduction_primitive(self, local_ext):
        # what lets the general-position search test its samples over the
        # ring: units and primitivity are decided by the reduction at x = 0
        rng = random.Random(13)
        for _ in range(100):
            a = _random_element(local_ext, rng)
            bar = reduce_at_zero(a)
            assert a.is_primitive() == bar.is_primitive()
            assert a.is_invertible() == bar.is_invertible()

    def test_reduction_commutes_with_product_and_inverse(self, local_ext):
        # reduction at x = 0 is a ring homomorphism of the algebras, so a
        # scaling c*b*b reduces to the same scaling of the reductions
        rng = random.Random(16)
        bar_ext = reduce_at_zero(local_ext.one()).ext
        for _ in range(60):
            a, b = _random_element(local_ext, rng), _random_element(local_ext, rng)
            a_bar = bar_ext.element(coords_of(reduce_at_zero(a)))
            b_bar = bar_ext.element(coords_of(reduce_at_zero(b)))
            assert reduce_at_zero(a * b) == a_bar * b_bar
            assert reduce_at_zero(a * b * b) == a_bar * b_bar * b_bar
            if a.is_invertible():
                assert reduce_at_zero(a.inverse()) == a_bar.inverse()

    def test_coordinates_commute_with_reduction(self, local_ext):
        # the coordinates of y in the power basis of a primitive a, and the
        # minimal polynomial of a, reduce to those of the reductions: the
        # search's r and q0 reduce to the residue search's values
        rng = random.Random(17)
        bar_ext = reduce_at_zero(local_ext.one()).ext
        for _ in range(40):
            a = _random_primitive(local_ext, rng)
            y = _random_element(local_ext, rng)
            a_bar = bar_ext.element(coords_of(reduce_at_zero(a)))
            y_bar = bar_ext.element(coords_of(reduce_at_zero(y)))
            assert [value_at_zero(v) for v in y.coords_in(a)] == list(y_bar.coords_in(a_bar))
            p = a.minimal_polynomial()
            assert [value_at_zero(v) for v in coeffs_of(p)] == list(coeffs_of(a_bar.minimal_polynomial()))

    def test_inverse_of_primitive_is_primitive(self):
        rng = random.Random(14)
        for ext in (qq_ext(1, 0, 1), qq_ext(-1, -1, 0, 1)):
            for _ in range(30):
                c = _random_primitive(ext, rng)
                if c.is_invertible():
                    assert c.inverse().is_primitive()

    def test_affine_transform_keeps_primitivity(self):
        # r1*c + r0 is primitive when r1 is a unit and p_c(-r0/r1) is a unit
        rng = random.Random(15)
        for ext in (qq_ext(1, 0, 1), qq_ext(-1, -1, 0, 1)):
            tested = 0
            while tested < 30:
                c = _random_primitive(ext, rng)
                r1 = F(rng.choice([v for v in range(-6, 7) if v]))
                r0 = F(rng.randint(-6, 6))
                p = c.minimal_polynomial()
                if not QQ.is_invertible(horner_free_eval(list(coeffs_of(p)), -r0 / r1)):
                    continue
                coords = [r1 * v for v in coords_of(c)]
                coords[0] += r0
                assert ext.element(coords).is_primitive()
                tested += 1


def _random_element(ext, rng):
    ring = ext.ring
    if ring is QQ:
        return ext.element([F(rng.randint(-9, 9)) for _ in range(ext.n)])
    return ext.element(
        [RatFunc((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(ext.n)]
    )


def _random_primitive(ext, rng):
    while True:
        a = _random_element(ext, rng)
        if a.is_primitive() and a.is_invertible():
            return a


# Q, Q[x]_(x), and finite fields of characteristic 2 and 3
CANONICAL_RINGS = [QQ, QQ_LOCAL_X, GF(2), GF(3), GF(4), GF(9)]


def _random_value(ring, rng, unit=False):
    """A random element of Q, Q[x]_(x) or a small finite field (some of
    them zero), or a random unit."""
    while True:
        if ring is QQ:
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
        elif ring is QQ_LOCAL_X:
            v = RatFunc((rng.randint(-9, 9), rng.randint(-9, 9)),
                        (rng.randint(1, 5), rng.randint(-3, 3)))
        else:
            v = rng.choice(ring.elements())
        if not unit or ring.is_invertible(v):
            return v


def _random_extension(ring, n, rng):
    coeffs = [_random_value(ring, rng, unit=True)]
    coeffs += [_random_value(ring, rng) for _ in range(n - 1)]
    return SimpleExtension(ring, Poly(ring, coeffs + [ring.one]))


def _division(ring):
    if ring is QQ or ring is QQ_LOCAL_X:
        return lambda u, v: u / v
    return lambda u, v: u * ring.invert(v)


class TestReductionPastTheProductLength:
    """A product of two elements has 2n-1 coefficients; a vector of any
    length, past 2n+1 too, reduces to the remainder of long division by
    the modulus, after a shorter vector in the same extension and as in a
    fresh one, since an extension keeps nothing from a reduction."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_the_remainder_of_long_division(self, ring, n):
        rng = random.Random(50 + n)
        ext = _random_extension(ring, n, rng)
        modulus = list(coeffs_of(ext.modulus))
        for size in (2 * n + 1, 4 * n + 3, 2 * n + 2):
            values = [_random_value(ring, rng) for _ in range(size)]
            nums, den = cleared(ring, values)
            reduced = ext.from_integral(nums, den)
            expected = naive_poly_divmod(values, modulus, ring.zero)[1]
            assert list(coords_of(reduced)) == expected
            assert reduced == ext.element(expected)
            fresh = SimpleExtension(ring, ext.modulus)
            assert fresh.from_integral(nums, den) == reduced


class TestCanonicalBasis:
    """The power basis of the class of t is the canonical basis, so its
    coordinate columns are the elements' own numerators and its minimal
    polynomial is the modulus, and its norm is (-1)^n p(0): nothing is
    eliminated."""

    @staticmethod
    def _elements(ext, rng):
        return [ext.element([_random_value(ext.ring, rng) for _ in range(ext.n)])
                for _ in range(3)]

    @staticmethod
    def _assert_coordinates(basis, elements, cols, den):
        ring = basis.ext.ring
        basis_matrix = powers_matrix(basis)
        assert len(cols) == len(elements)
        for col, x in zip(cols, elements):
            expected = naive_solve(basis_matrix, list(coords_of(x)), _division(ring))
            assert list(ring.values(col, den)) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_the_class_of_t_eliminates_nothing(self, ring, n, monkeypatch):
        rng = random.Random(40 + n)
        ext = _random_extension(ring, n, rng)
        elements = self._elements(ext, rng)

        def refused(*args):
            raise AssertionError("the class of t went through an elimination")

        monkeypatch.setattr(linalg, "solve_columns", refused)
        monkeypatch.setattr(linalg, "det", refused)
        # built as the generator and from its coordinates (0, 1, 0, ...)
        for t in (ext.gen(), ext.element([ring.zero, ring.one] + [ring.zero] * (n - 2))):
            assert t.is_primitive()
            assert t.norm() == naive_det(mult_matrix(t))
            cols, den, p = t.coordinate_columns(elements)
            assert p == ext.modulus
            self._assert_coordinates(t, elements, cols, den)
            assert t.minimal_polynomial() == ext.modulus

    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_other_power_bases_still_eliminate(self, ring, monkeypatch):
        rng = random.Random(45)
        ext = _random_extension(ring, 3, rng)
        elements = self._elements(ext, rng)
        one, zero = ring.one, ring.zero
        two = one + one
        # t + 1, and 2t, which is not primitive in characteristic 2, where it is 0
        bases = [ext.element([one, one, zero])] + ([ext.element([zero, two, zero])] if two else [])
        widths, solve = [], linalg.solve_columns
        monkeypatch.setattr(
            linalg, "solve_columns", lambda a, b: widths.append(len(b[0])) or solve(a, b))
        for basis in bases:
            widths.clear()
            cols, den, _ = basis.coordinate_columns(elements)
            # one solve, for the elements and the basis element's n-th power
            assert widths == [len(elements) + 1]
            self._assert_coordinates(basis, elements, cols, den)
            assert basis.norm() == naive_det(mult_matrix(basis))


class TestPrimitivityFromTheElimination:
    """`coordinate_columns` reads primitivity off its own elimination, whose
    d is the determinant of the integral power columns: no determinant is
    taken for it, there or in `is_primitive`, which runs that elimination
    for no element."""

    @staticmethod
    def _refuse_det(monkeypatch):
        def refused(rows):
            raise AssertionError("primitivity took a determinant")

        monkeypatch.setattr(linalg, "det", refused)

    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_a_singular_power_matrix_is_not_primitive(self, ring, monkeypatch):
        rng = random.Random(50)
        ext = _random_extension(ring, 3, rng)
        elements = TestCanonicalBasis._elements(ext, rng)
        # every power of a scalar is a scalar, so the power matrix has rank 1
        c = ext.scalar(ring.one)
        self._refuse_det(monkeypatch)
        with pytest.raises(NotPrimitive):
            c.coordinate_columns(elements)
        assert not c.is_primitive()

    def test_a_non_unit_determinant_is_not_primitive(self, monkeypatch):
        ring = QQ_LOCAL_X
        rng = random.Random(51)
        ext = _random_extension(ring, 3, rng)
        elements = TestCanonicalBasis._elements(ext, rng)
        # the powers 1, x*t, x^2*t^2 have determinant x^3: nonzero, not a unit
        c = ext.element([ring.zero, LOCAL_X, ring.zero])
        det = naive_det(powers_matrix(c))
        assert det and not ring.is_invertible(det)
        self._refuse_det(monkeypatch)
        with pytest.raises(NotPrimitive):
            c.coordinate_columns(elements)
        assert not c.is_primitive()

    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_is_primitive_is_a_unit_determinant_of_the_powers(self, ring, monkeypatch):
        # on fresh elements, scalars among them, both answers occur
        rng = random.Random(53)
        self._refuse_det(monkeypatch)
        answers = set()
        for n in (2, 3):
            ext = _random_extension(ring, n, rng)
            elements = [ext.scalar(_random_value(ring, rng, unit=True))]
            elements += [ext.element([_random_value(ring, rng) for _ in range(n)])
                         for _ in range(12)]
            if ring is QQ_LOCAL_X:
                # x*t: its power determinant is a nonzero power of x
                elements.append(ext.element([ring.zero, LOCAL_X] + [ring.zero] * (n - 2)))
            for c in elements:
                primitive = c.is_primitive()
                assert primitive == ring.is_invertible(naive_det(powers_matrix(c)))
                answers.add(primitive)
        assert answers == {True, False}

    @pytest.mark.parametrize("ring", CANONICAL_RINGS, ids=lambda ring: ring.id)
    def test_a_primitive_element_takes_no_determinant(self, ring, monkeypatch):
        rng = random.Random(52)
        ext = _random_extension(ring, 3, rng)
        elements = TestCanonicalBasis._elements(ext, rng)
        # its power matrix is unitriangular in the canonical basis
        c = ext.element([ring.one, ring.one, ring.zero])
        self._refuse_det(monkeypatch)
        cols, den, _ = c.coordinate_columns(elements)
        TestCanonicalBasis._assert_coordinates(c, elements, cols, den)
        assert c.is_primitive()
