import random

import pytest

from normcert import charp, linalg
from normcert.charp import GF, FiniteField, char2_squares_report, char3_vanishing_report
from normcert.errors import NotInvertible, RingMismatch
from normcert.extension import SimpleExtension
from normcert.poly import Poly


def _mod3_rank(rows):
    # independent rank oracle over F_3 on plain integer matrices
    m = [[v % 3 for v in row] for row in rows]
    rank = 0
    cols = len(m[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 if m[rank][col] == 1 else 2
        m[rank] = [(v * inv) % 3 for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % 3 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestFiniteFields:
    def test_field_sizes(self):
        for order in (2, 3, 4, 5, 7, 8, 9, 27):
            assert GF(order).order == order
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(16)  # extension degree 4 unsupported

    def test_the_moduli_are_the_least_irreducibles(self):
        # the first monic polynomial with no root in the order of its base-p
        # code, ascending coefficients including the leading 1
        assert charp._find_irreducible(2, 2) == (1, 1, 1)  # s^2 + s + 1
        assert charp._find_irreducible(2, 3) == (1, 1, 0, 1)  # s^3 + s + 1
        assert charp._find_irreducible(3, 2) == (1, 0, 1)  # s^2 + 1
        assert charp._find_irreducible(3, 3) == (1, 2, 0, 1)  # s^3 - s + 1

    def test_f4_arithmetic(self):
        f4 = GF(4)
        s = f4.element((0, 1))
        # the modulus is s^2 + s + 1, so s^2 = s + 1
        assert s * s == s + f4.one
        assert s * s * s == f4.one

    def test_f9_arithmetic(self):
        f9 = GF(9)
        s = f9.element((0, 1))
        # the modulus is s^2 + 1, so s^2 = -1
        assert s * s == -f9.one

    def test_f27_arithmetic(self):
        f27 = GF(27)
        s = f27.element((0, 1))
        # the modulus is s^3 - s + 1, so s^3 = s - 1
        assert s * s * s == s - f27.one

    def test_inverses_exhaustive(self):
        for order in (4, 8, 9, 27):
            field = GF(order)
            for a in field.elements():
                if not a:
                    with pytest.raises(NotInvertible):
                        field.invert(a)
                    continue
                assert a * field.invert(a) == field.one

    def test_division_exhaustive(self):
        for order in (2, 4, 5, 9):
            field = GF(order)
            for a in field.elements():
                for b in field.elements():
                    if not b:
                        with pytest.raises(ZeroDivisionError):
                            a / b
                        with pytest.raises(ZeroDivisionError):
                            a // b
                        continue
                    assert (a / b) * b == a
                    assert a // b == a / b == a * field.invert(b)
            with pytest.raises(ZeroDivisionError):
                field.one / 0
            assert field.one / 1 == field.one

    def test_axioms_spot_checks(self):
        rng = random.Random(36)
        for order in (4, 8, 9, 25, 27, 49):
            field = GF(order)
            elems = field.elements()
            for _ in range(200):
                a, b, c = (rng.choice(elems) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_frobenius_is_bijective(self):
        for order in (2, 4, 8):
            field = GF(order)
            assert {a * a for a in field.elements()} == set(field.elements())

    def test_mixed_field_arithmetic_rejected(self):
        with pytest.raises(RingMismatch):
            GF(4).one + GF(8).one

    def test_equal_values_hash_equal(self):
        values = [*GF(5).elements(), *GF(9).elements(), *range(-10, 11)]
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b), (a, b)
        assert len({1, GF(5).one}) == 1
        # an int k equals k * 1 only for 0 <= k < p; the extension code
        # compares denominators with 1
        assert GF(9).one == 1 and not GF(9).one != 1
        assert GF(5).element(3) == 3 and GF(5).element(3) != 8

    def test_fields_of_one_order_compare_unequal(self):
        # two FiniteField(5) objects share an id, and their elements never mix
        a, b = FiniteField(5), FiniteField(5)
        assert a.one != b.one
        assert SimpleExtension(a, Poly(a, [2, 0, 1])) != SimpleExtension(b, Poly(b, [2, 0, 1]))
        assert SimpleExtension(a, Poly(a, [2, 0, 1])) == SimpleExtension(a, Poly(a, [2, 0, 1]))

    def test_extension_machinery_runs_over_finite_fields(self):
        f5 = GF(5)
        ext = SimpleExtension(f5, Poly(f5, [f5.element(2), f5.zero, f5.one]))
        t = ext.gen()
        assert t * t == ext.scalar(f5.element(-2))
        assert t.is_primitive()
        assert (t.inverse() * t) == ext.one()


class TestChar2Demo:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_squares_collapse_to_line(self, order):
        rep = char2_squares_report(GF(order))
        assert rep.total == order**2  # exhaustive
        assert rep.squares_off_line == 0
        assert rep.primitive_squares == 0
        assert rep.image_equals_line  # Frobenius is onto for finite fields
        assert rep.image_size == order
        assert rep.ok

    def test_f2_image_is_zero_one(self):
        # squares of {0, 1, t, 1+t} in F2[t]/(t^2) are {0, 1}
        rep = char2_squares_report(GF(2))
        assert rep.image_size == 2

    def test_requires_char_two(self):
        with pytest.raises(ValueError):
            char2_squares_report(GF(3))

    def test_deterministic(self):
        assert char2_squares_report(GF(4)) == char2_squares_report(GF(4))


class TestChar3Demo:
    def test_f3_exhaustive(self):
        rep = char3_vanishing_report(GF(3))
        assert rep.total == 27  # |k|^3 candidates enumerated
        assert rep.units == 18
        assert rep.qualifying > 0
        assert rep.violations == 0
        assert rep.ok

    def test_f3_unit_count_oracle(self):
        # independent count: b is a unit iff {1, b, b^2 ...} no -- iff its
        # multiplication matrix is invertible; over F_3[t]/(t^3 - 1) that is
        # rank 3 of the circulant [[b0,b2,b1],[b1,b0,b2],[b2,b1,b0]]
        units = 0
        for b0 in range(3):
            for b1 in range(3):
                for b2 in range(3):
                    circulant = [[b0, b2, b1], [b1, b0, b2], [b2, b1, b0]]
                    if _mod3_rank(circulant) == 3:
                        units += 1
        assert units == char3_vanishing_report(GF(3)).units

    def test_f9_exhaustive(self):
        rep = char3_vanishing_report(GF(9))
        assert rep.total == 729
        assert rep.units == 648
        assert rep.qualifying > 0
        assert rep.violations == 0

    def test_f9_eliminates_each_power_matrix_once(self, monkeypatch):
        counts = {"det": 0, "solve": 0}
        det, solve = linalg.det, linalg.solve_columns

        def counted_det(rows):
            counts["det"] += 1
            return det(rows)

        def counted_solve(a, b):
            counts["solve"] += 1
            return solve(a, b)

        monkeypatch.setattr(linalg, "det", counted_det)
        monkeypatch.setattr(linalg, "solve_columns", counted_solve)
        rep = char3_vanishing_report(GF(9))
        assert (rep.total, rep.units, rep.qualifying, rep.violations) == (729, 648, 576, 0)
        # one norm per candidate b, but the class of t's is read off the
        # modulus; per unit one inverse and one power-basis solve, which
        # also decides primitivity, but for b = +-1, where c*b^2 is the
        # class of t and solves nothing
        assert counts == {"det": 729 - 1, "solve": 2 * 648 - 2}

    def test_requires_char_three(self):
        with pytest.raises(ValueError):
            char3_vanishing_report(GF(2))

    def test_deterministic(self):
        assert char3_vanishing_report(GF(3)) == char3_vanishing_report(GF(3))
