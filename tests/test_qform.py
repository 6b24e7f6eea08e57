import random
from fractions import Fraction

import pytest

from normcert.errors import NotInvertible, NotRegular
from normcert.extension import SimpleExtension
from normcert.poly import Poly
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, RatFunc

F = Fraction


class TestEvaluate:
    def test_base_examples(self):
        assert QuadraticForm(QQ, [1, 1]).evaluate([1, 2]) == 5
        assert QuadraticForm(QQ, [1, -1]).evaluate([1, 1]) == 0
        assert QuadraticForm(QQ, [1, 2]).evaluate([3, 0]) == 9

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
            QuadraticForm(QQ_LOCAL_X, [QQ_LOCAL_X.x])
        with pytest.raises(NotRegular):
            QuadraticForm(QQ, [])

    def test_dimension_checks(self):
        q = QuadraticForm(QQ, [1, 1])
        with pytest.raises(ValueError):
            q.evaluate([1])

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
            lhs = q.evaluate_ext(xs).reduce()
            rhs = q.residue_form().evaluate_ext([x.reduce() for x in xs])
            assert lhs == rhs


class TestSquareAsProduct:
    def test_examples(self):
        q = QuadraticForm(QQ, [1, 2])
        f1, f2 = q.square_as_value_product(F(3))
        assert f1.vector == (F(3), F(0)) and f2.vector == (F(1), F(0))
        assert q.evaluate(f1.vector) * q.evaluate(f2.vector) == 9

        q = QuadraticForm(QQ, [2])
        f1, f2 = q.square_as_value_product(F(1))
        assert q.evaluate(f1.vector) == 2 and q.evaluate(f2.vector) == F(1, 2)

        q = QuadraticForm(QQ, [1])
        f1, f2 = q.square_as_value_product(F(-1))
        assert q.evaluate(f1.vector) * q.evaluate(f2.vector) == 1

    def test_random_units(self):
        rng = random.Random(17)
        for _ in range(200):
            diag = [F(rng.choice([v for v in range(-9, 10) if v])) for _ in range(rng.randint(1, 4))]
            q = QuadraticForm(QQ, diag)
            s = F(rng.choice([v for v in range(-20, 21) if v]), rng.randint(1, 9))
            f1, f2 = q.square_as_value_product(s)
            assert f1.exponent == f2.exponent == 1
            assert q.evaluate(f1.vector) * q.evaluate(f2.vector) == s * s

    def test_rejects_non_unit(self):
        with pytest.raises(NotInvertible):
            QuadraticForm(QQ, [1]).square_as_value_product(F(0))

    def test_factor_exponent_validation(self):
        with pytest.raises(ValueError):
            ValueFactor((F(1),), 2)
        with pytest.raises(ValueError):
            ValueFactor((F(1),), True)  # bool is an int, and True == 1

