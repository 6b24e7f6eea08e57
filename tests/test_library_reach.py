"""Every method of the element, extension, form, factor, level record,
counter and ring classes is run by some library path, not only by the tests.

A small certify/verify set (Q and Q[x]_(x), each with a scaled first
level), the char2 demo, the char3 demo over F3 and a 10-instance randsuite
run through `cli.main` under `sys.setprofile`, which records the code of
every Python function called; the finite fields are built afresh, so the
outcome does not depend on which tests ran before.  A method that none of
them reaches must be on ALLOWED, with the reason it stays.
"""

import inspect
import json
import random
import sys

from normcert import charp, cli
from normcert.certify import CertifyStats, ReductionStep
from normcert.charp import FiniteField
from normcert.extension import ExtElement, SimpleExtension
from normcert.instances import random_instance
from normcert.qform import QuadraticForm, ValueFactor
from normcert.rings import QQ, QQ_LOCAL_X, LocalRationalFunctions, RationalField
from normcert.serialize import instance_to_json

CLASSES = (ExtElement, SimpleExtension, QuadraticForm, ValueFactor, ReductionStep,
           CertifyStats, RationalField, LocalRationalFunctions, FiniteField)

_BENCH = "wrapped by bench/layers.py, whose benchmark reports it"
_DUNDER = "a Python protocol method"
_IMPORT = "a constructor run once, at import"
_RING = "the ring interface, which generic code calls on whichever ring it is given"
ALLOWED = {
    ("ExtElement", "is_primitive"): _BENCH,
    ("ExtElement", "minimal_polynomial"): _BENCH,
    ("ExtElement", "__bool__"): _DUNDER,
    ("ExtElement", "__hash__"): _DUNDER,
    ("ExtElement", "__repr__"): _DUNDER,
    ("SimpleExtension", "__hash__"): _DUNDER,
    ("SimpleExtension", "__repr__"): _DUNDER,
    ("QuadraticForm", "diag"):
        "read by serialize.instance_to_json, which bench/run.py calls to write its corpus",
    ("QuadraticForm", "__eq__"): _DUNDER,
    ("QuadraticForm", "__repr__"): _DUNDER,
    ("ValueFactor", "__init__"):
        "public API that ROADMAP keeps: a factor built from its vector of ring values",
    ("ValueFactor", "__eq__"): _DUNDER,
    ("ValueFactor", "__hash__"): _DUNDER,
    ("ValueFactor", "__repr__"): _DUNDER,
    ("ReductionStep", "__eq__"): _DUNDER,
    ("ReductionStep", "__repr__"): _DUNDER,
    ("CertifyStats", "__eq__"): _DUNDER,
    ("CertifyStats", "__repr__"): _DUNDER,
    ("RationalField", "__init__"): _IMPORT,
    ("RationalField", "lift"): _RING,
    ("RationalField", "__repr__"): _DUNDER,
    ("LocalRationalFunctions", "__init__"): _IMPORT,
    ("LocalRationalFunctions", "from_int"): _RING,
    ("LocalRationalFunctions", "invert"): _RING,
    ("LocalRationalFunctions", "__repr__"): _DUNDER,
    ("FiniteField", "invert"): _RING,
    ("FiniteField", "lift"): _RING,
    ("FiniteField", "__repr__"): _DUNDER,
}

# both first levels are scaled: q_S(x) is a scalar over Q, and over
# Q[x]_(x) the b = 1 probe fails, so the search lifts a residue hit
SCALED = [
    {"ring": "Q", "p": ["3", "0", "0", "1"], "q": ["5", "7"],
     "x": [["1", "0", "0"], ["0", "0", "0"]]},
    {"ring": "Q[x]_(x)", "p": ["-2", "0", "1"], "q": ["1", "-1"],
     "x": [["1/2", "1/2"], ["-1/2", "1/2"]]},
]


def _methods(cls):
    for name, attr in vars(cls).items():
        fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        if inspect.isfunction(fn):
            yield name, fn.__code__


def _command_lines(directory):
    instances = SCALED + [instance_to_json(random_instance(ring, random.Random(3), n, m))
                          for ring, n, m in ((QQ, 2, 2), (QQ, 3, 1), (QQ_LOCAL_X, 2, 2))]
    argvs = []
    for index, inst in enumerate(instances):
        path, cert = directory / f"{index}.json", directory / f"{index}.cert.json"
        path.write_text(json.dumps(inst))
        argvs.append(["certify", "--trace", "--input", str(path), "--output", str(cert)])
        argvs.append(["verify", "--input", str(path), "--certificate", str(cert)])
    return argvs + [["demo", "char2"], ["demo", "char3", "--field", "F3"],
                    ["demo", "randsuite", "--count", "10"]]


def test_every_method_has_a_library_caller(tmp_path, capsys, monkeypatch):
    # fields made by earlier tests would spare the demos their construction
    monkeypatch.setattr(charp, "_FIELD_CACHE", {})
    argvs = _command_lines(tmp_path)
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in argvs:
        sys.setprofile(record)
        try:
            status = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert status == 0, argv
    capsys.readouterr()
    methods = {(cls.__name__, name): code for cls in CLASSES for name, code in _methods(cls)}
    assert set(ALLOWED) <= set(methods)
    unreached = {key for key, code in methods.items() if code not in reached}
    assert unreached - set(ALLOWED) == set()
