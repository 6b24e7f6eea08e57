import random
from fractions import Fraction

import pytest

from normcert.errors import NotInvertible
from normcert.poly import Poly
from normcert.rings import QQ, QQ_LOCAL_X

from oracles import horner_free_eval


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
