"""The randomized search behind each reduction level.

For a unit c and a witness x, `find_general_position` finds a unit b in
the general-position set: c*b^2 is primitive, and both the form value r
of the top coordinates and the form value q(x(0)) of the constant
coordinates of x*b in the power basis of c*b^2 are units; the
witness it returns carries those coordinate columns.  c need not be
primitive: for a non-primitive unit c the general-position set is
b1*GP(c*b1^2) for any b1 that makes c*b1^2 primitive, so it is non-empty
and open as well, and one search finds the level's scaling.

In `certify` c is the caller's own value q(x), whose norm it has already
taken (or, at a reduced level, u = q_T(z), whose norm is (-1)^n g(0)), so
the search's one precondition, that c is a unit, reads a cached norm; the
search does not evaluate q(x) again, and nothing in it needs c = q(x).

The search probes b = 1 first (try 1 is that probe's slot either way),
then samples b with integer coordinates in [-B, B] (B doubles every 8
failures) and checks each sample as it checks the probe: exactly, over
the ring itself, so the hit is the witness on every ring.  Over Q[x]_(x)
that decides as a test of the residues at x = 0 would, since reduction
modulo (x) is a ring homomorphism and a unit of a local ring is an
element with a nonzero residue.  A candidate's coordinate columns come
from one elimination with m+1 right-hand sides, one per witness
coordinate and c^n last (`ExtElement.coordinate_columns`), as integral
columns over one denominator.  That elimination also decides whether the candidate is
primitive (`NotPrimitive` when it is not), so no determinant is taken
for it; the column of c^n gives the minimal polynomial that the witness
carries, and r and q(x(0)) are each one sum of the cleared diagonal
against their top and bottom numerators, normalized once
(`QuadraticForm.value`); no ring value of a top or bottom coordinate is
built, since a level's certificate factors are those numerators themselves.

Over a ring whose residue field is infinite of characteristic 0 the
target set is non-empty open, so failure within the try budget signals a
bug or an unsupported ring rather than bad luck.  The general-position set
is open by the paper's system-matrix lemma: with A the matrix whose column k
holds the coordinates of c^k * b^(2k-1) in the power basis of c, and A_j
that matrix with its last column replaced by the coordinates of x_j,
(det A)^2 * r = sum_j a_j * (det A_j)^2.  Cramer's rule gives the same for
the constant column: with A_j^(0) the matrix A with its column 0 replaced,
(det A)^2 * q(x(0)) = sum_j a_j * (det A_j^(0))^2.  tests/oracles.py
computes both sides of both identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotInvertible, NotPrimitive, SearchExhausted
from .extension import ExtElement
from .poly import Poly
from .qform import QuadraticForm
from .rings import sample_residue

DEFAULT_MAX_TRIES = 64
DEFAULT_BOUND = 3
_BOUND_DOUBLING_PERIOD = 8


@dataclass(frozen=True)
class GenPosWitness:
    """A verified general-position scaling: c_new = c*b^2 primitive, p its
    minimal polynomial, integral the coordinates of each x*b in the power
    basis of c_new as numerator columns over one denominator, and both
    r = q(tops) and q0 = q(bottoms) units of the coefficient ring, for the
    tops those coordinates of index n-1 and the bottoms those of index 0."""

    b: ExtElement
    c_new: ExtElement
    p: Poly
    integral: tuple
    r: object
    q0: object
    tries_used: int


def _end_values(q: QuadraticForm, cols, d):
    """q of the top and q of the constant coordinates, for coordinate
    columns cols over the denominator d."""
    return q.value([col[-1] for col in cols], d), q.value([col[0] for col in cols], d)


def find_general_position(
    c: ExtElement,
    xs,
    q: QuadraticForm,
    rng: random.Random,
    max_tries: int = DEFAULT_MAX_TRIES,
    bound: int = DEFAULT_BOUND,
) -> GenPosWitness:
    """A verified witness b in the general-position set of (c, x, q).

    c must be a unit of the extension, primitive or not (certify passes
    q(x) itself); the returned witness satisfies, exactly over the ring:
    c*b^2 primitive, and q of the top coordinates and q of the constant
    coordinates of x*b in the basis of c*b^2 both units.
    """
    ext = c.ext
    ring = ext.ring
    if not c.is_invertible():
        raise NotInvertible("general position needs a unit")

    def witness(b, c_new, x_new, tries):
        try:
            cols, d, p = c_new.coordinate_columns(x_new)
        except NotPrimitive:
            return None
        r, q0 = _end_values(q, cols, d)
        if not (ring.is_invertible(r) and ring.is_invertible(q0)):
            return None
        return GenPosWitness(b, c_new, p, (cols, d), r, q0, tries)

    # deterministic probe: b = 1, which a non-primitive c fails
    found = witness(ext.one(), c, xs, 1)
    if found is not None:
        return found
    # tries 2 .. max_tries: random units b with integer coordinates in
    # [-B, B], tested over the ring itself
    for tries in range(2, max_tries + 1):
        if tries % _BOUND_DOUBLING_PERIOD == 0:
            bound *= 2
        b = ext.element([sample_residue(rng, bound) for _ in range(ext.n)])
        if not b.is_invertible():
            continue
        found = witness(b, c * b * b, [x * b for x in xs], tries)
        if found is not None:
            return found
    raise SearchExhausted(f"no general-position scaling found in {max_tries} tries")
