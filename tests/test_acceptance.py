"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come; every tolerance and time budget is asserted, nothing is deferred.
"""

import random
import time
from fractions import Fraction

import pytest

from normcert.certify import certify, verify
from normcert.charp import GF, char2_squares_report, char3_vanishing_report
from normcert.extension import SimpleExtension
from normcert.instances import random_instance, run_random_suite
from normcert.poly import Poly
from normcert.qform import QuadraticForm
from normcert.rings import QQ, QQ_LOCAL_X

from oracles import (
    last_column_minors,
    mult_matrix,
    naive_det,
    rank,
    system_determinants,
    system_identity,
)

F = Fraction


def report(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def rational_suite():
    # criterion 1 workload: 100 random instances over Q with n in 2..5,
    # m in 1..4, coefficients bounded by 10
    return run_random_suite(QQ, count=100, seed=7, n_choices=(2, 3, 4, 5),
                            m_choices=(1, 2, 3, 4), coeff_bound=10)


@pytest.fixture(scope="module")
def local_suite():
    # criterion 2 workload: 20 random instances over Q[x]_(x)
    return run_random_suite(QQ_LOCAL_X, count=20, seed=11, n_choices=(2, 3),
                            m_choices=(1, 2), coeff_bound=10)


def test_criterion_1_rational_round_trip(rational_suite):
    r = rational_suite
    ok = r.ok and r.elapsed < 60.0
    report(1, ok, f"{r.verified}/{r.total} certificates verified in {r.elapsed:.1f}s "
                  f"(budget 60s); failures: {r.failures}")


def test_criterion_2_local_round_trip(local_suite):
    r = local_suite
    ok = r.ok and r.elapsed < 120.0
    report(2, ok, f"{r.verified}/{r.total} certificates verified in {r.elapsed:.1f}s "
                  f"(budget 120s); failures: {r.failures}")


def test_criterion_3_worked_examples():
    gauss = SimpleExtension(QQ, Poly(QQ, [1, 0, 1]))
    q1 = QuadraticForm(QQ, [1, 1])
    xs1 = [gauss.element([F(3, 2), F(1, 2)]), gauss.element([F(1, 2), F(-1, 2)])]
    cert1 = certify(gauss, q1, xs1, rng=0)
    oracle1 = naive_det(mult_matrix(q1.evaluate_ext(xs1)))

    hyp = SimpleExtension(QQ, Poly(QQ, [-2, 0, 1]))
    q2 = QuadraticForm(QQ, [1, -1])
    xs2 = [hyp.element([F(1, 2), F(1, 2)]), hyp.element([F(-1, 2), F(1, 2)])]
    cert2 = certify(hyp, q2, xs2, rng=0)
    oracle2 = naive_det(mult_matrix(q2.evaluate_ext(xs2)))

    ok = (
        cert1.target == 5 == oracle1
        and bool(verify(gauss, q1, xs1, cert1))
        and cert2.target == -2 == oracle2
        and bool(verify(hyp, q2, xs2, cert2))
    )
    report(3, ok, f"targets {cert1.target} and {cert2.target} match the "
                  "multiplication-matrix oracle and verify")


def _random_genpos_setup(rng, n, m):
    while True:
        coeffs = [F(rng.randint(-9, 9)) for _ in range(n)] + [F(1)]
        if coeffs[0] == 0:
            continue
        ext = SimpleExtension(QQ, Poly(QQ, coeffs))
        break
    while True:
        c = ext.element([F(rng.randint(-9, 9)) for _ in range(n)])
        if c.is_primitive() and c.is_invertible():
            break
    q = QuadraticForm(QQ, [F(rng.choice([v for v in range(-9, 10) if v])) for _ in range(m)])
    xs = [ext.element([F(rng.randint(-9, 9)) for _ in range(n)]) for _ in range(m)]
    while True:
        b = ext.element([F(rng.randint(-5, 5)) for _ in range(n)])
        if b.is_invertible() and (c * b * b).is_primitive():
            return ext, c, q, xs, b


def test_criterion_4_genpos_identity_suite():
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        ext, c, q, xs, b = _random_genpos_setup(rng, n, m)
        # the top column (r) and the constant column (q(x(0)))
        for column in (-1, 0):
            lhs, rhs = system_identity(c, b, xs, q, column)
            assert lhs == rhs
        checked += 1

    scalings = 0
    for n in (2, 3, 4):
        ext, c, q, xs, b = _random_genpos_setup(rng, n, 2)
        lam = F(rng.choice([2, 3, -2]))
        det_a, dets = system_determinants(c, b, xs)
        det_s, dets_s = system_determinants(c, b * ext.scalar(lam), xs)
        assert det_s == lam ** (n * (n - 2)) * det_a
        assert dets_s == [lam ** ((n - 1) * (n - 3)) * d for d in dets]
        scalings += 1
    report(4, checked == 200 and scalings == 3,
           f"determinant identity exact for both columns on {checked} instances; "
           "homogeneity exponents n(n-2) and (n-1)(n-3) verified for n = 2, 3, 4")


def test_criterion_5_minor_rank_suite():
    rng = random.Random(102)
    ranks_ok = []
    for n in (2, 3, 4):
        ext, c, _, _, _ = _random_genpos_setup(rng, n, 1)
        rows = []
        while len(rows) < 4 * n:
            b = ext.element([F(rng.randint(-7, 7)) for _ in range(n)])
            if b.is_invertible():
                rows.append(last_column_minors(c, b))
        ranks_ok.append(rank(rows) == n)
    products_ok = []
    for n in (2, 3):
        ext, c, _, _, _ = _random_genpos_setup(rng, n, 1)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        rows = []
        while len(rows) < 4 * len(pairs):
            b = ext.element([F(rng.randint(-7, 7)) for _ in range(n)])
            if b.is_invertible():
                minors = last_column_minors(c, b)
                rows.append([minors[i] * minors[j] for i, j in pairs])
        products_ok.append(rank(rows) == len(pairs))
    report(5, all(ranks_ok) and all(products_ok),
           "minor value matrices have rank n (n = 2, 3, 4) and product "
           "matrices rank n(n+1)/2 (n = 2, 3)")


def test_criterion_6_characteristic_p_reproductions():
    start = time.monotonic()
    char2 = [char2_squares_report(GF(order)) for order in (2, 4, 8)]
    char3 = [char3_vanishing_report(GF(order)) for order in (3, 9, 27)]
    elapsed = time.monotonic() - start
    ok = (
        all(r.squares_off_line == 0 and r.primitive_squares == 0 for r in char2)
        and all(r.total == GF_order**2 for r, GF_order in zip(char2, (2, 4, 8)))
        and all(r.violations == 0 and r.qualifying > 0 for r in char3)
        and all(r.total == GF_order**3 for r, GF_order in zip(char3, (3, 9, 27)))
        and elapsed < 10.0
    )
    report(6, ok, f"squares in k*1 for F2/F4/F8 and zero bracket violations over "
                  f"F3/F9/F27, exhaustive, in {elapsed:.1f}s (budget 10s)")


def test_criterion_7_per_level_invariants(rational_suite, local_suite):
    # the engine re-checks every exact identity at every level and aborts the
    # instance on any failure, so green suites mean zero failed assertions;
    # the level count proves the volume
    levels = rational_suite.stats.levels + local_suite.stats.levels
    ok = rational_suite.ok and local_suite.ok and levels >= 175

    # independent re-verification of the recorded reduction chains
    rng = random.Random(103)
    for _ in range(15):
        inst = random_instance(QQ, rng, rng.randint(2, 5), rng.randint(1, 4))
        cert = certify(inst.ext, inst.q, inst.xs, rng=rng)
        degree = inst.ext.n
        ok = ok and len(cert.trace) == degree // 2
        for step in cert.trace:
            ok = ok and step.n == degree
            ok = ok and step.h.degree == step.n - 2
            ok = ok and step.h.leading == step.r
            ok = ok and QQ.is_invertible(step.q0)
            ok = ok and step.p.constant_term * step.h.constant_term == step.q0
            if step.n == 2:
                ok = ok and step.g is None
            else:
                ok = ok and QQ.is_invertible(step.g.constant_term)
                ok = ok and step.h == step.g.scale(step.r)
            degree -= 2
    report(7, ok, f"every exact identity checked at each of {levels} levels, "
                  "zero failures; trace chains re-verified independently")


def test_criterion_8_search_robustness(rational_suite, local_suite):
    calls = rational_suite.stats.genpos_calls + local_suite.stats.genpos_calls
    exhausted = rational_suite.stats.genpos_exhausted + local_suite.stats.genpos_exhausted
    rate = (calls - exhausted) / calls
    report(8, rate >= 0.99,
           f"general-position search succeeded in {calls - exhausted}/{calls} "
           f"levels ({100 * rate:.1f}%, threshold 99%); exhaustions logged: {exhausted}")
