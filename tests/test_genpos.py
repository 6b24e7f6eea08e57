import random
from fractions import Fraction

import pytest

from normcert.errors import NotInvertible, NotPrimitive, SearchExhausted
from normcert.extension import ExtElement, SimpleExtension
from normcert.genpos import find_general_position
from normcert.poly import Poly
from normcert.qform import QuadraticForm
from normcert.rings import QQ, QQ_LOCAL_X

from oracles import (
    LOCAL_X,
    coeffs_of,
    coords_of,
    form_at_zero,
    fraction_view,
    last_column_minors,
    mat_mul,
    mult_matrix,
    naive_base_value,
    naive_inverse,
    powers_matrix,
    rank,
    reduce_at_zero,
    scaled_witness_value,
    system_determinants,
    system_identity,
    system_matrix,
    value_at_zero,
)

F = Fraction


def qq_ext(*coeffs):
    return SimpleExtension(QQ, Poly(QQ, coeffs))


def random_unit(ext, rng, bound=9):
    while True:
        b = ext.element([F(rng.randint(-bound, bound)) for _ in range(ext.n)])
        if b.is_invertible():
            return b


def random_primitive_unit(ext, rng, bound=9):
    while True:
        b = random_unit(ext, rng, bound)
        if b.is_primitive():
            return b


def random_instance(rng, n, m):
    ext = None
    while ext is None:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(n)] + [F(1)]
        if coeffs[0] != 0:
            ext = SimpleExtension(QQ, Poly(QQ, coeffs))
    c = random_primitive_unit(ext, rng)
    q = QuadraticForm(QQ, [F(rng.choice([v for v in range(-9, 10) if v])) for _ in range(m)])
    xs = [ext.element([F(rng.randint(-9, 9)) for _ in range(n)]) for _ in range(m)]
    return ext, c, q, xs


class TestSystemMatrix:
    def test_collapses_to_powers_matrix_at_one(self):
        # all columns live in the power basis of c: at b = 1 column j is the
        # basis expansion of c^j, i.e. the powers matrix of c written in its
        # own basis (the identity); in the coordinates of the class of t the
        # same matrix is the canonical powers matrix
        ext = qq_ext(1, 0, 1)
        t = ext.gen()
        assert system_matrix(t, ext.one()) == powers_matrix(t)
        c = ext.element([2, 1])
        a = system_matrix(c, ext.one())
        assert a == [[F(1), F(0)], [F(0), F(1)]]
        assert mat_mul(QQ, powers_matrix(c), a) == powers_matrix(c)

    def test_first_column_is_b_inverse(self):
        rng = random.Random(20)
        for n in (2, 3, 4):
            ext, c, _, _ = random_instance(rng, n, 1)
            b = random_unit(ext, rng)
            a = system_matrix(c, b)
            binv = naive_inverse(b)
            assert binv * b == ext.one()
            assert [row[0] for row in a] == list(binv.coords_in(c))

    def test_factorization_identity(self):
        # mult(b) * powers(c) * A = powers(c*b^2)
        rng = random.Random(21)
        for n in (2, 3):
            ext, c, _, _ = random_instance(rng, n, 1)
            b = random_unit(ext, rng)
            a = system_matrix(c, b)
            lhs = mat_mul(QQ, mult_matrix(b), mat_mul(QQ, powers_matrix(c), a))
            assert lhs == powers_matrix(c * b * b)

    def test_preconditions(self):
        ext = qq_ext(-2, 0, 1)
        with pytest.raises(NotPrimitive):
            system_matrix(ext.scalar(3), ext.one())
        with pytest.raises(NotInvertible):
            system_matrix(ext.gen(), ext.scalar(0))


class TestDeterminantIdentity:
    def test_main_identity_random(self):
        # (det A)^2 * q(column of {x b, c b^2}) = sum_j a_j (det A_j)^2, for
        # the top column (r) and the constant column (q(x(0))), 200 instances
        rng = random.Random(22)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            ext, c, q, xs = random_instance(rng, n, m)
            b = random_unit(ext, rng, 5)
            if not (c * b * b).is_primitive():
                continue
            for column in (-1, 0):
                lhs, rhs = system_identity(c, b, xs, q, column)
                assert lhs == rhs
            checked += 1
        assert checked > 150

    def test_zero_witness_kills_determinants(self):
        rng = random.Random(23)
        ext, c, q, _ = random_instance(rng, 3, 2)
        b = random_unit(ext, rng)
        _, dets = system_determinants(c, b, [ext.scalar(0), ext.scalar(0)])
        assert dets == [F(0), F(0)]

    def test_homogeneity(self):
        # column k scales by lambda^(2k-1), so det A(lambda b) =
        # lambda^(n(n-2)) det A(b); with the last column replaced the
        # exponent is (n-1)(n-3), with column 0 replaced (n-1)^2
        rng = random.Random(24)
        for n in (2, 3, 4):
            ext, c, q, xs = random_instance(rng, n, 1)
            b = random_unit(ext, rng, 5)
            lam = F(rng.choice([2, 3, -2, 5]))
            for column, exponent in ((-1, (n - 1) * (n - 3)), (0, (n - 1) ** 2)):
                det_a, dets = system_determinants(c, b, xs, column)
                det_scaled, dets_scaled = system_determinants(c, b * ext.scalar(lam), xs, column)
                assert det_scaled == lam ** (n * (n - 2)) * det_a
                assert dets_scaled == [lam ** exponent * d for d in dets]


class TestLastColumnMinors:
    def test_degree_one_convention(self):
        ext = qq_ext(-3, 1)
        assert last_column_minors(ext.gen(), ext.one()) == [F(1)]

    def test_expansion_consistency(self):
        # det(A with last column x) = sum_i (-1)^i * minor_i * coords(x)[n-1-i]
        rng = random.Random(25)
        for n in (2, 3, 4):
            ext, c, _, _ = random_instance(rng, n, 1)
            b = random_unit(ext, rng, 5)
            minors = last_column_minors(c, b)
            for _ in range(10):
                x = ext.element([F(rng.randint(-9, 9)) for _ in range(n)])
                _, (det_x,) = system_determinants(c, b, [x])
                coords = x.coords_in(c)
                acc = QQ.zero
                for i, minor_i in enumerate(minors):
                    term = minor_i * coords[n - 1 - i]
                    acc = acc + (term if i % 2 == 0 else -term)
                assert acc == det_x

    def test_scalar_scaling_minors(self):
        # at a scalar b the system matrix is diag(b0^(2k-1)), so only the
        # first minor survives, with value b0^((n-1)(n-3))
        rng = random.Random(26)
        for n in (2, 3, 4):
            ext, c, _, _ = random_instance(rng, n, 1)
            b0 = F(rng.choice([2, 3, -2]))
            minors = last_column_minors(c, ext.scalar(b0))
            assert minors[0] == b0 ** ((n - 1) * (n - 3))
            assert all(v == 0 for v in minors[1:])

    def test_minor_value_rank(self):
        # the n minors, as functions of b, span an n-dimensional value space
        rng = random.Random(27)
        for n in (2, 3, 4):
            ext, c, _, _ = random_instance(rng, n, 1)
            rows = []
            for _ in range(4 * n):
                b = random_unit(ext, rng, 7)
                rows.append(last_column_minors(c, b))
            assert rank(rows) == n

    def test_minor_product_rank(self):
        # pairwise products are linearly independent as well
        rng = random.Random(28)
        for n in (2, 3):
            ext, c, _, _ = random_instance(rng, n, 1)
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            rows = []
            for _ in range(4 * len(pairs)):
                b = random_unit(ext, rng, 7)
                minors = last_column_minors(c, b)
                rows.append([minors[i] * minors[j] for i, j in pairs])
            assert rank(rows) == len(pairs)


def assert_general_position(c, w):
    """The witness's claims, re-checked: c*b^2 primitive, and r and q0 units
    of the coefficient ring."""
    ring = c.ext.ring
    assert w.c_new == c * w.b * w.b
    assert w.c_new.is_primitive()
    assert ring.is_invertible(w.r) and ring.is_invertible(w.q0)


class TestPrimitiveScalingSearch:
    """The one search also scales a unit c that is not primitive: then it
    skips the b = 1 probe, and the b it finds makes c*b^2 primitive."""

    def test_primitive_input_probes_one(self):
        # x = 1 + t in the basis of c = t: both end coordinates are 1
        ext = qq_ext(1, 0, 1)
        c, q, xs = ext.gen(), QuadraticForm(QQ, [1]), [ext.element([1, 1])]
        w = find_general_position(c, xs, q, random.Random(0))
        assert w.b == ext.one() and w.tries_used == 1
        assert_general_position(c, w)

    def test_scalar_needs_scaling(self):
        # c = 3 in Q[t]/(t^2-2): not primitive, so some b with c*b^2 primitive
        ext = qq_ext(-2, 0, 1)
        c, q, xs = ext.scalar(3), QuadraticForm(QQ, [1]), [ext.one()]
        w = find_general_position(c, xs, q, random.Random(1))
        assert w.b != ext.one() and w.tries_used > 1
        assert_general_position(c, w)
        # the probe candidate named in the search contract works too
        probe = ext.element([1, 1])
        assert (c * probe * probe).is_primitive()

    def test_requires_invertible(self):
        ext = qq_ext(-2, 0, 1)
        with pytest.raises(NotInvertible):
            find_general_position(
                ext.scalar(0), [ext.one()], QuadraticForm(QQ, [1]), random.Random(0))

    def test_exhaustion_with_tiny_budget(self):
        # try 1 is the probe's slot, which a scalar c skips
        ext = qq_ext(-2, 0, 1)
        with pytest.raises(SearchExhausted):
            find_general_position(
                ext.scalar(3), [ext.one()], QuadraticForm(QQ, [1]), random.Random(0),
                max_tries=1)

    def test_random_units_succeed(self):
        # every other c a nonzero scalar, which is never primitive
        rng = random.Random(29)
        scalars = 0
        for k in range(50):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            ext, _, q, xs = random_instance(rng, n, m)
            if not q.evaluate_ext(xs).is_invertible():
                continue
            if k % 2:
                c = random_unit(ext, rng)
            else:
                c = ext.scalar(F(rng.choice([v for v in range(-9, 10) if v])))
                scalars += 1
            w = find_general_position(c, xs, q, rng)
            assert_general_position(c, w)
        assert scalars > 15


class TestGeneralPositionSearch:
    def test_worked_example_accepts_one(self):
        ext = qq_ext(1, 0, 1)
        c = ext.element([2, 1])
        q = QuadraticForm(QQ, [1, 1])
        xs = [ext.element([F(3, 2), F(1, 2)]), ext.element([F(1, 2), F(-1, 2)])]
        w = find_general_position(c, xs, q, random.Random(0))
        assert w.b == ext.one()
        assert w.r == F(1, 2)
        assert w.tries_used == 1

    def test_degree_one_trivial(self):
        ext = qq_ext(-5, 1)
        q = QuadraticForm(QQ, [2])
        xs = [ext.element([3])]
        w = find_general_position(ext.gen(), xs, q, random.Random(0))
        assert w.b == ext.one()
        assert w.r == naive_base_value(q, [F(3)])

    def test_cube_roots_of_unity_over_q(self):
        # the char-3 obstruction is absent over Q: some scaling works
        ext = qq_ext(-1, 0, 0, 1)  # t^3 - 1
        c = ext.gen()
        q = QuadraticForm(QQ, [1])
        w = find_general_position(c, [c], q, random.Random(2))
        assert QQ.is_invertible(w.r)
        assert w.r == scaled_witness_value(c, w.b, [c], q)
        assert w.q0 == scaled_witness_value(c, w.b, [c], q, 0)

    def test_witness_invariants_reverified(self):
        rng = random.Random(30)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            ext, c, q, xs = random_instance(rng, n, m)
            if not q.evaluate_ext(xs).is_invertible():
                continue
            w = find_general_position(c, xs, q, rng)
            assert w.c_new == c * w.b * w.b
            assert w.c_new.is_primitive()
            assert QQ.is_invertible(w.r)
            assert QQ.is_invertible(w.q0)
            columns = [(x * w.b).coords_in(w.c_new) for x in xs]
            # the witness columns are those coordinates read as polynomials
            nums, d = w.integral
            polys = [Poly.from_integral(QQ, col, d) for col in nums]
            padded = [list(coeffs_of(col)) + [QQ.zero] * (n - 1 - col.degree) for col in polys]
            assert padded == columns
            # and its integral columns are the same coordinates over one
            # denominator, n numerators each
            assert [[F(v, d) for v in col] for col in nums] == columns
            assert w.r == naive_base_value(q, [col[-1] for col in columns])
            assert w.q0 == naive_base_value(q, [col[0] for col in columns])
            # the same elimination gave the minimal polynomial of c_new
            assert w.p == w.c_new.minimal_polynomial()
            assert 1 <= w.tries_used

    def test_rejects_bad_inputs(self):
        ext = qq_ext(-2, 0, 1)
        q = QuadraticForm(QQ, [1, -1])
        with pytest.raises(NotInvertible):
            find_general_position(ext.scalar(0), [ext.one(), ext.gen()], q, random.Random(0))
        # a witness with q(x) not a unit is refused by certify, before the
        # search (test_certify.py::TestStructure::test_value_must_be_unit)

    def test_local_ring_search_draws_integer_constants(self):
        ring = QQ_LOCAL_X
        ext = SimpleExtension(
            ring, Poly(ring, [ring.element((1, 1)), ring.zero, ring.one])
        )
        q = QuadraticForm(ring, [ring.one])
        c = ext.gen()
        xs = [ext.gen()]
        w = find_general_position(c, xs, q, random.Random(3))
        assert ring.is_invertible(w.r)
        for v in coords_of(w.b):
            # the drawn coordinates are integer constants
            num, den = fraction_view(v)
            assert den == (F(1),) and len(num) <= 1

    def test_local_ring_sampling_path(self):
        # the probe b = 1 fails here (the top coordinates are isotropic), so
        # the search must sample
        ring = QQ_LOCAL_X
        ext = SimpleExtension(ring, Poly(ring, [-2, 0, 1]))
        q = QuadraticForm(ring, [1, -1])
        c = ext.gen().inverse()  # t/2, primitive
        xs = [
            ext.element([F(1, 2), F(1, 2)]),
            ext.element([F(-1, 2), F(1, 2)]),
        ]
        assert c * q.evaluate_ext(xs) == ext.one()
        probe_tops = [x.coords_in(c)[-1] for x in xs]
        assert not ring.is_invertible(naive_base_value(q, probe_tops))
        w = find_general_position(c, xs, q, random.Random(4))
        assert w.b != ext.one()
        assert w.tries_used > 1
        assert ring.is_invertible(w.r)
        assert w.c_new.is_primitive()

    def test_local_ring_primitive_scaling(self):
        # a scalar unit is never primitive for n >= 2; a sampled scaling
        # makes it primitive over the ring
        ring = QQ_LOCAL_X
        ext = SimpleExtension(
            ring, Poly(ring, [ring.element((1, 1)), ring.zero, ring.one])
        )
        c = ext.scalar(ring.element((2, 1)))  # the constant 2+x
        assert not c.is_primitive()
        q, xs = QuadraticForm(ring, [ring.one]), [ext.one()]
        w = find_general_position(c, xs, q, random.Random(5))
        assert w.tries_used > 1
        assert_general_position(c, w)

    @pytest.mark.parametrize("case", [
        "sampling-path", "scalar-n2", "scalar-n3", "scalar-n4",
    ])
    def test_local_search_decides_as_the_search_over_the_residues(self, case):
        # each try is tested over Q[x]_(x) itself; since reduction at x = 0
        # is a ring homomorphism and a unit is an element with a nonzero
        # value at 0, the search over the reductions (over Q, same seed)
        # takes the same draws, misses the same tries and hits the same b
        ring = QQ_LOCAL_X
        one_plus_x = ring.element((1, 1))
        if case == "sampling-path":
            # the probe's r is -x/4: nonzero, but not a unit
            ext = SimpleExtension(ring, Poly(ring, [-2, 0, 1]))
            q = QuadraticForm(ring, [ring.one, -one_plus_x])
            c = ext.gen().inverse()
            xs = [ext.element([F(1, 2), F(1, 2)]), ext.element([F(-1, 2), F(1, 2)])]
        else:
            n = int(case[-1])
            coeffs = [-one_plus_x, LOCAL_X, ring.element((3, 0, 2)), ring.element((1, -1))]
            ext = SimpleExtension(ring, Poly(ring, coeffs[:n] + [ring.one]))
            q = QuadraticForm(ring, [one_plus_x, ring.element((-2, 1))])
            c = ext.scalar(ring.element((2, 1)))
            xs = [ext.one(), ext.element([LOCAL_X] + [ring.one] * (n - 1))]
        bar_ext = reduce_at_zero(c).ext

        def bar(a):
            return bar_ext.element(coords_of(reduce_at_zero(a)))

        w = find_general_position(c, xs, q, random.Random(6))
        w_bar = find_general_position(
            bar(c), [bar(x) for x in xs], form_at_zero(q), random.Random(6))
        assert w.tries_used == w_bar.tries_used > 1
        assert bar(w.b) == w_bar.b
        assert bar(w.c_new) == w_bar.c_new
        assert [value_at_zero(v) for v in coeffs_of(w.p)] == list(coeffs_of(w_bar.p))
        assert (value_at_zero(w.r), value_at_zero(w.q0)) == (w_bar.r, w_bar.q0)

    @pytest.mark.parametrize("ring", [QQ, QQ_LOCAL_X], ids=["Q", "Q[x]_(x)"])
    def test_the_hit_is_the_witness(self, ring, monkeypatch):
        # every try is tested over the ring itself, with at most one
        # elimination, so the hit's one elimination gives the witness:
        # nothing eliminates after it, and no other algebra is eliminated in
        ext = SimpleExtension(ring, Poly(ring, [-2, 0, 1]))
        q, xs = QuadraticForm(ring, [1, 1]), [ext.one(), ext.gen()]
        eliminated = []
        eliminate = ExtElement.coordinate_columns

        def recorded(self, elements):
            eliminated.append(self)
            return eliminate(self, elements)

        monkeypatch.setattr(ExtElement, "coordinate_columns", recorded)
        w = find_general_position(ext.scalar(3), xs, q, random.Random(0))
        assert w.tries_used > 1
        assert all(c.ext is ext for c in eliminated)
        assert len(eliminated) <= w.tries_used
        hit = next(i for i, c in enumerate(eliminated) if c == w.c_new)
        assert hit == len(eliminated) - 1
