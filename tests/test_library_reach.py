"""Every function, method and property of every normcert module (but
`__main__`) is run by some library path, not only by the tests.

A small certify/verify set (Q and Q[x]_(x), each with a scaled first
level, and a Q[x]_(x) instance written with p/q strings), the char2 demo,
the char3 demo over F3 and a 10-instance randsuite
run through `cli.main` under `sys.setprofile`, which records the code of
every Python function called; the finite fields are built afresh, so the
outcome does not depend on which tests ran before.  A function that none
of them reaches must be on ALLOWED, keyed by its module and qualified name,
with the reason it stays.  The methods that `dataclasses` generates are
not the library's own code and are left out.
"""

import importlib
import inspect
import json
import pkgutil
import random
import sys

import normcert
from normcert import charp, cli
from normcert.instances import random_instance
from normcert.rings import QQ, QQ_LOCAL_X
from normcert.serialize import instance_to_json

_BENCH = "wrapped by bench/layers.py, whose benchmark reports it"
_CHECK = "RatFunc field arithmetic, which bench/check.py computes with"
_CORPUS = "bench/run.py writes its corpus through serialize.instance_to_json"
_DUNDER = "a Python protocol method"
_ERROR = "an error exit, which the runs here never take"
_FALLBACK = "a fallback, which the runs here never need"
_FORMAT = ("the integral format of a ring, which certify calls on whichever ring it "
           "is given, and no library path certifies over a finite field")
_TEXT = "the text of a ring value, which error messages print through rings.shown"
ALLOWED = {
    # used by bench/
    ("extension", "ExtElement.is_primitive"): _BENCH,
    ("extension", "ExtElement.minimal_polynomial"): _BENCH,
    ("poly", "Poly.__mul__"): _BENCH,
    ("serialize", "instance_to_json"): _CORPUS,
    ("rings", "RatFunc.__init__"): _CHECK,
    ("rings", "RatFunc.__add__"): _CHECK,
    ("rings", "RatFunc.__sub__"): _CHECK,
    ("rings", "RatFunc.__rsub__"): _CHECK,
    ("rings", "RatFunc.__neg__"): _CHECK,
    ("rings", "RatFunc.__truediv__"): _CHECK,
    ("rings", "RatFunc.__rtruediv__"): _CHECK,
    ("rings", "RatFunc.reciprocal"): _CHECK,
    ("rings", "zx_sum"): _CHECK,
    # fallbacks and error exits
    ("rings", "_zgcd_prs"): "the gcd fallback when six GCDHEU evaluation points fail",
    ("cli", "_internal_error"): _ERROR,
    ("cli", "_Parser.error"): _ERROR,
    ("poly", "Poly.__setattr__"): "an error exit: Poly is immutable",
    ("rings", "shown"): _TEXT,
    ("rings", "_zstr"): _TEXT,
    ("rings", "RatFunc.__repr__"): _TEXT,
    # the ring interface and the integral formats
    ("charp", "FiniteField.primitive"): _FORMAT,
    # public API and protocol methods
    ("charp", "FFElement.__hash__"): _DUNDER,
    ("charp", "FFElement.__repr__"): _DUNDER,
    ("charp", "FFElement.__rsub__"): _DUNDER,
    ("charp", "FiniteField.__repr__"): _DUNDER,
    ("extension", "ExtElement.__bool__"): _DUNDER,
    ("extension", "ExtElement.__hash__"): _DUNDER,
    ("extension", "ExtElement.__repr__"): _DUNDER,
    ("extension", "SimpleExtension.__hash__"): _DUNDER,
    ("extension", "SimpleExtension.__repr__"): _DUNDER,
    ("poly", "Poly.__eq__"): _DUNDER,
    ("poly", "Poly.__hash__"): _DUNDER,
    ("poly", "Poly.__repr__"): _DUNDER,
    ("qform", "QuadraticForm.__eq__"): _DUNDER,
    ("qform", "QuadraticForm.__repr__"): _DUNDER,
    ("rings", "LocalRationalFunctions.__repr__"): _DUNDER,
    ("rings", "RationalField.__repr__"): _DUNDER,
    ("rings", "RatFunc.__bool__"): _DUNDER,
    ("rings", "RatFunc.__hash__"): _DUNDER,
    ("rings", "ZX.__hash__"): _DUNDER,
    ("rings", "ZX.__repr__"): _DUNDER,
    ("rings", "ZX.__rsub__"): _DUNDER,
}

# both first levels are scaled: q_S(x) is a scalar over Q, and over
# Q[x]_(x) the b = 1 probe fails, so the search samples
SCALED = [
    {"ring": "Q", "p": ["3", "0", "0", "1"], "q": ["5", "7"],
     "x": [["1", "0", "0"], ["0", "0", "0"]]},
    {"ring": "Q[x]_(x)", "p": ["-2", "0", "1"], "q": ["1", "-1"],
     "x": [["1/2", "1/2"], ["-1/2", "1/2"]]},
]
# the second instance again, its entries num/den objects with p/q strings
# and trailing zeros, which the strict reader takes string by string
STRICT = {"ring": "Q[x]_(x)", "p": [{"num": ["-4", "0"], "den": ["2"]}, "0", "1"],
          "q": ["1", "-1"],
          "x": [[{"num": ["1/2"], "den": ["1"]}, {"num": ["1"], "den": ["2"]}],
                [{"num": ["-1/2"]}, {"num": ["3/2", "0"], "den": ["3", "0"]}]]}


def _functions():
    """(module, qualname) -> code of every function, method and property
    getter defined in a normcert module, without the methods that
    dataclasses generates (their code is compiled from a string)."""
    found = {}
    for info in pkgutil.iter_modules(normcert.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"normcert.{info.name}")
        values = list(vars(module).values())
        for cls in [v for v in values if inspect.isclass(v)]:
            values += list(vars(cls).values())
        for value in values:
            fn = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and fn.__code__.co_filename == module.__file__):
                found[(info.name, fn.__qualname__)] = fn.__code__
    return found


def _command_lines(directory):
    instances = SCALED + [STRICT] + [
        instance_to_json(random_instance(ring, random.Random(3), n, m))
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
    functions = _functions()
    assert set(ALLOWED) <= set(functions)
    unreached = {key for key, code in functions.items() if code not in reached}
    assert unreached - set(ALLOWED) == set()
