"""Per-layer call counts and self times, taken from outside the library.

`Tracer.installed` replaces library functions and methods by wrappers for
the duration of a `with` block and puts the originals back afterwards, so
untimed code never pays for them.  A wrapper counts its calls and adds its
duration to its layer; a layer's self time is that duration minus the
durations of wrapped calls nested inside it.  Counts include nested calls
of the same layer: `a - b` on RatFunc counts its inner `a + (-b)` as well.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__")

# (layer, module, class or None, attributes wrapped as that layer)
LIBRARY_TARGETS = (
    # ring elements: Q is plain Fraction, and RatFunc keeps Fraction scalars
    ("rings.fraction_ops", "fractions", "Fraction", _ARITHMETIC),
    ("rings.ratfunc_ops", "normcert.rings", "RatFunc", _ARITHMETIC),
    ("linalg.det", "normcert.linalg", None, ("det",)),
    ("linalg.solve", "normcert.linalg", None, ("solve_columns",)),
    ("extension.mul", "normcert.extension", "ExtElement", ("__mul__", "__rmul__")),
    ("extension.norm", "normcert.extension", "ExtElement", ("norm",)),
    ("extension.inverse", "normcert.extension", "ExtElement", ("inverse",)),
    ("extension.coords_in", "normcert.extension", "ExtElement", ("coords_in",)),
    ("extension.minimal_polynomial", "normcert.extension", "ExtElement",
     ("minimal_polynomial",)),
    ("extension.is_primitive", "normcert.extension", "ExtElement", ("is_primitive",)),
    ("qform.evaluate_ext", "normcert.qform", "QuadraticForm", ("evaluate_ext",)),
    ("poly.divmod", "normcert.poly", "Poly", ("__divmod__",)),
    ("poly.mul", "normcert.poly", "Poly", ("__mul__",)),
    # certify.py imports these two by name, so they are wrapped where it looks
    ("genpos", "normcert.certify", None, ("find_general_position",)),
    ("certify.self_verify", "normcert.certify", None, ("verify",)),
)

# layers of the benchmark's own operations, wrapped in its `api` namespace
API_TARGETS = (
    ("certify", ("certify",)),
    ("serialize.encode", ("encode_certificate",)),
    ("serialize.decode", ("decode_instance", "decode_certificate")),
)

_COUNTED = (
    "linalg.det", "linalg.solve",
    "extension.mul", "extension.norm", "extension.inverse", "extension.coords_in",
    "extension.minimal_polynomial", "extension.is_primitive",
    "qform.evaluate_ext", "poly.divmod", "poly.mul",
)

# every per-layer metric with its unit, in report order
METRICS = (
    (
        ("rings.ratfunc_ops.calls", "count"),
        ("rings.fraction_ops.calls", "count"),
        ("rings.fraction_ops.self_s", "s"),
        ("rings.ops.self_s", "s"),
    )
    + tuple(m for layer in _COUNTED
            for m in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s")))
    + (
        ("genpos.calls", "count"),
        ("genpos.tries", "count"),
        ("genpos.self_s", "s"),
        ("certify.levels", "count"),
        ("certify.self_verify_s", "s"),
        ("certify.self_s", "s"),
        ("serialize.encode_s", "s"),
        ("serialize.decode_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._nested = []  # per open wrapped call: time spent in wrapped callees

    def reset(self):
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()

    def wrap(self, layer: str, fn):
        calls, total_s, self_s, nested = self.calls, self.total_s, self.self_s, self._nested
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                calls[layer] += 1
                total_s[layer] += elapsed
                self_s[layer] += elapsed - inner
                if nested:
                    nested[-1] += elapsed

        return traced

    @contextmanager
    def installed(self, api):
        patches = []
        for layer, module, cls, attrs in LIBRARY_TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            patches += [(owner, attr, layer) for attr in attrs]
        patches += [(api, attr, layer) for layer, attrs in API_TARGETS for attr in attrs]
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for (owner, attr, layer), (_, _, fn) in zip(patches, originals):
                setattr(owner, attr, self.wrap(layer, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def snapshot(self, stats) -> dict:
        """This round's per-layer figures; `stats` is the round's CertifyStats."""
        out = {
            "rings.ratfunc_ops.calls": self.calls["rings.ratfunc_ops"],
            "rings.fraction_ops.calls": self.calls["rings.fraction_ops"],
            "rings.fraction_ops.self_s": self.self_s["rings.fraction_ops"],
            # RatFunc's own self time is zero on Q, so it is reported summed
            "rings.ops.self_s": self.self_s["rings.fraction_ops"]
            + self.self_s["rings.ratfunc_ops"],
        }
        for layer in _COUNTED:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update({
            "genpos.calls": stats.genpos_calls,
            "genpos.tries": stats.genpos_tries,
            "genpos.self_s": self.self_s["genpos"],
            "certify.levels": stats.levels,
            "certify.self_verify_s": self.total_s["certify.self_verify"],
            "certify.self_s": self.self_s["certify"],
            "serialize.encode_s": self.total_s["serialize.encode"],
            "serialize.decode_s": self.total_s["serialize.decode"],
        })
        return out
