"""Exception hierarchy for the normcert library.

All failures that a caller can provoke have their own class; InternalAssertion
is reserved for exact identities that the engine re-checks at every step and
that can only fail on a bug, never on bad input.
"""


class NormCertError(Exception):
    """Base class for all library errors."""


class RingMismatch(NormCertError):
    """Operands belong to different coefficient rings."""


class NotInvertible(NormCertError):
    """Element is not a unit of its ring (or algebra)."""


class NotSimple(NormCertError):
    """Monic modulus has a non-invertible constant term."""


class NotPrimitive(NormCertError):
    """Element's powers do not form a basis of the extension."""


class NotRegular(NormCertError):
    """Quadratic form fails the regularity requirement."""


class CoordinateNotIntegral(NormCertError):
    """A solved coordinate left the coefficient ring."""


class ValueNotUnit(NormCertError):
    """The quadratic form value that should be certified is not a unit."""


class SearchExhausted(NormCertError):
    """Randomized search gave up after the configured number of tries."""


class InternalAssertion(NormCertError):
    """An exact identity that must hold by construction failed (a bug)."""
