"""Independent oracles and paper-lemma helpers shared by the test modules.

The oracles deliberately avoid the library's computational routes:
determinants by permutation expansion instead of elimination, solutions by
Cramer's rule over it, evaluation instead of coefficient manipulation, brute
reconstruction instead of solving.  The multiplication and powers matrices
of an element are read off its products with t^j and its powers.  The
system-matrix helpers state the general-position lemma and its
constant-column analogue, which the library's searches rely on but never
evaluate (see the genpos module docstring).  The JSON number parsers read
each rational string through one Fraction, as the serializer did before it
read them as integer pairs, and the vector writer's reference writes each
entry from its ring value.  Reduction modulo (x) over Q[x]_(x), which the
library never computes, is evaluation at x = 0 of every coordinate and of
every coefficient of the modulus and the form.
"""

import re
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from operator import truediv

from normcert.errors import InternalAssertion, NotInvertible, NotPrimitive, RingMismatch
from normcert.extension import SimpleExtension
from normcert.linalg import transpose
from normcert.poly import Poly, cleared
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, RatFunc
from normcert.serialize import FormatError, element_to_json

# x, which generates the maximal ideal of Q[x]_(x)
LOCAL_X = QQ_LOCAL_X.element((0, 1))


def value_factor(ring, vector, exponent):
    """The factor q(vector)^exponent of a vector of ring values, put over
    one denominator in lowest terms in the ring's integral format."""
    nums, den = cleared(ring, vector)
    return ValueFactor(ring, nums, den, exponent)


def ring_values(ring, nums, den):
    """The vector nums / den in the integral format of `ring` as ring values."""
    return tuple(ring.values(nums, den))


def factor_vector(factor):
    """The vector of a value factor as ring values."""
    return ring_values(factor.ring, factor.nums, factor.den)


def coords_of(x):
    """The coordinates of an extension element as ring values."""
    return ring_values(x.ext.ring, *x.integral)


def coeffs_of(p):
    """The coefficients of a polynomial as ring values."""
    return ring_values(p.ring, *p.integral)


def diag_of(q):
    """The diagonal of a quadratic form as ring values."""
    return ring_values(q.ring, *q.integral)


def vector_json(ring, nums, den):
    """The JSON list of the vector nums / den written entry by entry from
    its ring values through `element_to_json`: the writer's route before
    it wrote vectors from their numerators."""
    return [element_to_json(ring, v) for v in ring_values(ring, nums, den)]


def local_factor_json(factor):
    """The JSON of a Q[x]_(x) factor written entry by entry from its ring
    values, each scaled as `fraction_view` scales it and each coefficient
    the text of its Fraction: the route of `RatFunc`'s canonical ratios."""
    vector = []
    for v in factor_vector(factor):
        num, den = fraction_view(v)
        vector.append({"num": [str(c) for c in num], "den": [str(c) for c in den]})
    return {"vector": vector, "exp": factor.exponent}


def naive_det(rows):
    """Determinant by signed permutation expansion (works over any ring)."""
    n = len(rows)
    indices = list(range(n))
    total = None
    for perm in permutations(indices):
        sign = 1
        seen = [False] * n
        for i in indices:
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = rows[0][perm[0]]
        for i in indices[1:]:
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def naive_poly(coeffs):
    """The coefficients (ring values), ascending, with trailing zeros dropped."""
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def naive_poly_add(a, b, zero=Fraction(0)):
    out = [zero] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return naive_poly(out)


def naive_poly_mul(a, b, zero=Fraction(0)):
    """The product of two coefficient lists (not trimmed), in Fractions
    or in the ring of `zero`."""
    if not a or not b:
        return []
    prod = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return prod


def naive_poly_divmod(f, modulus, zero=Fraction(0)):
    """Quotient and remainder (not trimmed, the remainder of length
    deg modulus) of f by a monic modulus, by long division in Fractions
    or in the ring of `zero`."""
    n = len(modulus) - 1
    rem = list(f) + [zero] * max(0, n - len(f))
    quo = [zero] * max(0, len(f) - n)
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k]
        quo[k - n] = c
        for i in range(n + 1):
            rem[k - n + i] -= c * modulus[i]
    return quo, rem[:n]


def naive_ext_mul(modulus, a, b, zero=Fraction(0)):
    """Coordinates of a*b in R[t]/(p), for p monic with ascending
    coefficients `modulus`: the coordinatewise product of the two
    coordinate polynomials, reduced by long division, in Fractions or (with
    zero = QQ_LOCAL_X.zero) in RatFunc."""
    return naive_poly_divmod(naive_poly_mul(a, b, zero), modulus, zero)[1]


def naive_poly_gcd(a, b):
    """The monic gcd over Q of two coefficient lists, by Euclid in Fractions."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def rem(f, g):
        f = trim(list(f))
        dg = len(g) - 1
        while len(f) - 1 >= dg:
            c = f[-1] / g[-1]
            for i in range(dg + 1):
                f[len(f) - 1 - dg + i] -= c * g[i]
            f.pop()
            trim(f)
        return f

    a, b = trim(a), trim(b)
    while b:
        a, b = b, rem(a, b)
    return tuple(c / a[-1] for c in a) if a else ()


def naive_ext_eval(modulus, coeffs, x, zero=Fraction(0), one=Fraction(1)):
    """Coordinates of f(x) in R[t]/(p) for the coefficient list f, as the
    power sum of the coefficients times naive powers of x, in Fractions or
    in the ring of `zero` and `one`."""
    n = len(modulus) - 1
    total = [zero] * n
    power = [one] + [zero] * (n - 1)
    for c in coeffs:
        total = [t + c * v for t, v in zip(total, power)]
        power = naive_ext_mul(modulus, power, x, zero)
    return total


def naive_solve(a, rhs, div=truediv):
    """The solution of a x = rhs by Cramer's rule over naive_det, each
    quotient taken by `div` (over a finite field, pass one built on the
    field's inverse table)."""
    d = naive_det(a)
    return [
        div(naive_det([row[:i] + [v] + row[i + 1:] for row, v in zip(a, rhs)]), d)
        for i in range(len(a))
    ]


def mult_matrix(x):
    """The matrix of left multiplication by x: column j holds the
    coordinates of x * t^j."""
    t = x.ext.gen()
    cols = [x]
    while len(cols) < x.ext.n:
        cols.append(cols[-1] * t)
    return transpose([coords_of(w) for w in cols])


def naive_form_value(q, xs):
    """The coordinates of sum_j (x_j * x_j) * a_j, each square the
    multiplication matrix of x_j applied to the coordinates of x_j and each
    sum coordinatewise in the ring."""
    ring = q.ring
    total = [ring.zero] * xs[0].ext.n
    for a, x in zip(diag_of(q), xs):
        for i, row in enumerate(mult_matrix(x)):
            square = ring.zero
            for m, v in zip(row, coords_of(x)):
                square = square + m * v
            total[i] = total[i] + square * a
    return total


def naive_base_value(q, ys):
    """q(y) over the base ring: the sum of a_j * y_j * y_j in ring
    arithmetic."""
    ring = q.ring
    total = ring.zero
    for a, y in zip(diag_of(q), ys):
        y = ring.element(y)
        total = total + a * y * y
    return total


def powers_matrix(x):
    """Column j holds the coordinates of x^j, j = 0 .. n-1."""
    cols = [x.ext.one()]
    while len(cols) < x.ext.n:
        cols.append(cols[-1] * x)
    return transpose([coords_of(w) for w in cols])


def horner_free_eval(coeffs, point):
    """Polynomial evaluation as an explicit power sum (no Horner)."""
    total = None
    power = None
    for i, c in enumerate(coeffs):
        power = point if i == 1 else (power * point if i > 1 else None)
        term = c if i == 0 else c * power
        total = term if total is None else total + term
    return total


def fraction_view(a):
    """The coefficients of a RatFunc's numerator and denominator as two
    Fraction tuples, ascending, scaled so that the lowest-order nonzero
    denominator coefficient is 1 (den(0) = 1 on the local ring)."""
    num, den = a.numerator.c, a.denominator.c
    pivot = next(c for c in den if c)
    return tuple(Fraction(c, pivot) for c in num), tuple(Fraction(c, pivot) for c in den)


def value_at_zero(a) -> Fraction:
    """a(0) for a rational function in x, from the constant coefficients
    of its numerator and denominator; a pole at 0 raises ZeroDivisionError."""
    num, den = fraction_view(a)
    return Fraction(num[0] if num else 0) / den[0]


def reduce_at_zero(a):
    """The image of an element of R[t]/(p), R = Q[x]_(x), in Q[t]/(p(0)):
    each coordinate and each coefficient of p evaluated at x = 0."""
    modulus = Poly(QQ, [value_at_zero(c) for c in coeffs_of(a.ext.modulus)])
    return SimpleExtension(QQ, modulus).element([value_at_zero(c) for c in coords_of(a)])


def form_at_zero(q):
    """A diagonal form over Q[x]_(x) with each coefficient evaluated at x = 0."""
    return QuadraticForm(QQ, [value_at_zero(a) for a in diag_of(q)])


def mat_mul(ring, a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ring.zero) for col in cols] for row in a]


def rank(rows) -> int:
    """Exact rank by elimination in the fraction field of the entries, with
    their own `/` (works for non-square)."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                for j in range(col, ncols):
                    m[i][j] = m[i][j] - f * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def minor(rows, drop_row: int, drop_col: int):
    """The submatrix with one row and one column removed."""
    return [
        [v for j, v in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def naive_inverse(b):
    """b^(-1) by Cramer's rule on the multiplication matrix of b."""
    ext = b.ext
    e1 = [ext.ring.one] + [ext.ring.zero] * (ext.n - 1)
    return ext.element(naive_solve(mult_matrix(b), e1))


def system_matrix(c, b):
    """The n x n matrix with column k = coords of c^k * b^(2k-1) in c's power basis.

    It maps the coordinates of x*b in the power basis of c*b^2 to those of
    x in the power basis of c, since x = sum_k y_k c^k b^(2k-1) when
    x*b = sum_k y_k (c*b^2)^k.
    """
    if not c.is_primitive():
        raise NotPrimitive("system matrix needs a primitive element")
    if not b.is_invertible():
        raise NotInvertible("system matrix needs an invertible scaling")
    ext = c.ext
    ring = ext.ring
    step = c * b * b
    basis = powers_matrix(c)
    sol = []
    w = naive_inverse(b)
    for _ in range(ext.n):
        sol.append(naive_solve(basis, list(coords_of(w))))
        w = w * step
    out = transpose(sol)
    if not all(ring.contains(v) for row in out for v in row):
        raise InternalAssertion("system matrix entry left the ring")
    return out


def system_determinants(c, b, xs, column=-1):
    """det A together with, per witness coordinate, det of A with one
    column replaced by that coordinate's power-basis coordinates: the last
    column by default (the top coordinates), column 0 for the constant
    ones."""
    a = system_matrix(c, b)
    det_a = naive_det(a)
    dets = []
    for x in xs:
        replaced = [list(row) for row in a]
        for row, v in zip(replaced, x.coords_in(c)):
            row[column] = v
        dets.append(naive_det(replaced))
    return det_a, dets


def scaled_witness_value(c, b, xs, q, column=-1):
    """q of one coordinate column of x*b in the power basis of c*b^2: the
    top coordinates by default, the constant ones at column 0."""
    cb2 = c * b * b
    return naive_base_value(q, [(x * b).coords_in(cb2)[column] for x in xs])


def system_identity(c, b, xs, q, column=-1):
    """Both sides of the system-matrix lemma for one coordinate column:
    (det A)^2 * q(that column of x*b in the basis of c*b^2), and
    sum_j a_j * (det A_j)^2 with A_j the matrix A with that column replaced
    by the coordinates of x_j.  By Cramer's rule coordinate k of x_j*b is
    det A_j / det A, so the two agree for the top column (the paper's
    lemma) and for the constant column (its analogue for q(x(0)))."""
    det_a, dets = system_determinants(c, b, xs, column)
    lhs = det_a * det_a * scaled_witness_value(c, b, xs, q, column)
    rhs = c.ext.ring.zero
    for a_j, det_j in zip(diag_of(q), dets):
        rhs = rhs + a_j * det_j * det_j
    return lhs, rhs


def last_column_minors(c, b):
    """The n minors of the system matrix along its last column, ordered so
    that entry i is the minor complementary to row n-1-i; expanding gives
    det(A_repl) = sum_i (-1)^i * minors[i] * coords(x)[n-1-i]."""
    a = system_matrix(c, b)
    ring, n = c.ext.ring, c.ext.n
    if n == 1:
        return [ring.one]
    return [naive_det(minor(a, n - 1 - i, n - 1)) for i in range(n)]


_LONG_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fraction_rational_from_json(data) -> Fraction:
    """A rational string parsed by Fraction, and through Decimal past the
    int/str digit limit, which Fraction refuses."""
    if not isinstance(data, str):
        raise FormatError(f"expected a rational string, got {data!r}")
    try:
        try:
            return Fraction(data)
        except ValueError:
            match = _LONG_RATIONAL.fullmatch(data)
            if match is None:
                raise
            num, den = match.groups()
            return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {data!r}: {exc}") from None


def fraction_element_from_json(ring, data):
    """A ring element from JSON with one Fraction per coefficient."""
    if ring.id == QQ.id:
        return fraction_rational_from_json(data)
    if isinstance(data, str):
        return ring.element(fraction_rational_from_json(data))
    if not isinstance(data, dict) or "num" not in data:
        raise FormatError(f"expected a num/den object, got {data!r}")
    if not data.keys() <= {"num", "den"}:
        raise FormatError(f"unknown key in {data!r}")
    num, den = data["num"], data.get("den", ["1"])
    if not isinstance(num, list) or not isinstance(den, list):
        raise FormatError(f"num and den must be lists, got {data!r}")
    num = [fraction_rational_from_json(c) for c in num]
    den = [fraction_rational_from_json(c) for c in den]
    try:
        return ring.element(RatFunc(num, den))
    except (ZeroDivisionError, RingMismatch) as exc:
        raise FormatError(str(exc)) from None
