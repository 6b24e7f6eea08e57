"""Exact certificates for norms of quadratic-form values over simple ring
extensions of Q and of Q[x] localized at (x), with an independent verifier,
general-position search machinery, and finite-field counterexample demos."""

from .certify import (
    CertifyStats,
    NormCertificate,
    ReductionStep,
    VerifyResult,
    certify,
    verify,
)
from .charp import GF, FiniteField, char2_squares_report, char3_vanishing_report
from .errors import (
    CoordinateNotIntegral,
    InternalAssertion,
    NormCertError,
    NotInvertible,
    NotPrimitive,
    NotRegular,
    NotSimple,
    RingMismatch,
    SearchExhausted,
    ValueNotUnit,
)
from .extension import ExtElement, SimpleExtension
from .genpos import GenPosWitness, find_general_position
from .instances import random_instance, run_random_suite
from .poly import Poly
from .qform import QuadraticForm, ValueFactor
from .rings import QQ, QQ_LOCAL_X, RatFunc, get_ring, sample_residue

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "QQ_LOCAL_X",
    "GF",
    "CertifyStats",
    "CoordinateNotIntegral",
    "ExtElement",
    "FiniteField",
    "GenPosWitness",
    "InternalAssertion",
    "NormCertError",
    "NormCertificate",
    "NotInvertible",
    "NotPrimitive",
    "NotRegular",
    "NotSimple",
    "Poly",
    "QuadraticForm",
    "RatFunc",
    "ReductionStep",
    "RingMismatch",
    "SearchExhausted",
    "SimpleExtension",
    "ValueFactor",
    "ValueNotUnit",
    "VerifyResult",
    "certify",
    "char2_squares_report",
    "char3_vanishing_report",
    "find_general_position",
    "get_ring",
    "random_instance",
    "run_random_suite",
    "sample_residue",
    "verify",
]
