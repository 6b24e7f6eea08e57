"""Fuzzing `normcert verify` in-process: every instance and certificate text
must end in a documented exit code (0 accept, 1 reject, 3 bad input, 4
internal error) with no traceback, and a valid certificate with one factor
coordinate, the target or one exponent changed so that its claim is false
must be rejected with exit 1."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from normcert.certify import certify
from normcert.cli import main
from normcert.instances import random_instance
from normcert.rings import QQ, QQ_LOCAL_X
from normcert.serialize import (
    InstanceSpec,
    certificate_from_json,
    certificate_to_json,
    element_from_json,
    instance_to_json,
)

DOCUMENTED_VERIFY_EXITS = {0, 1, 3, 4}

rationals = st.fractions(max_denominator=10**6).map(str)
# strings a number parser may trip over: signs, slashes, zero denominators,
# exponents, whitespace, words, and integers past the int/str digit limit
awkward = st.sampled_from(
    ["0", "-0", "1/0", "0/0", "1/-2", "-1/2", " 1", "1e5", "1.5", "inf", "nan", "x",
     "", "/", "--1", "9" * 5000, "-" + "7" * 4400 + "/3"]
)
numbers = rationals | awkward
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | numbers
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["num", "den", "ring"]), inner,
                      max_size=4),
    max_leaves=12,
)
local_elements = st.fixed_dictionaries(
    {"num": st.lists(numbers, max_size=3)}, optional={"den": st.lists(numbers, max_size=3)}
)
elements = numbers | local_elements


def maybe(strategy):
    """The strategy most of the time, otherwise any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


@st.composite
def instance_texts(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    coeffs = draw(st.lists(maybe(elements), min_size=n, max_size=n)) + ["1"]
    ring = draw(maybe(st.sampled_from(["Q", "Q[x]_(x)", "Z", "F5"])))
    p = draw(st.sampled_from([coeffs, {"ring": ring, "coeffs": coeffs}]))
    data = {
        "ring": ring,
        "p": draw(maybe(st.just(p))),
        "q": draw(maybe(st.lists(maybe(elements), min_size=m, max_size=m))),
        "x": draw(maybe(st.lists(st.lists(maybe(elements), min_size=n, max_size=n),
                                 min_size=m, max_size=m))),
    }
    if draw(st.booleans()):
        data["options"] = draw(maybe(st.dictionaries(
            st.sampled_from(["seed", "max_tries", "bound", "trace"]), json_values, max_size=2)))
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2, unique=True)):
        del data[key]
    text = json.dumps(data)
    # mostly the structured text, sometimes cut short, any JSON or any text
    return draw(st.sampled_from([text, text, text[:-1]]) | json_values.map(json.dumps)
                | st.text(max_size=20))


@st.composite
def certificate_texts(draw):
    factor = st.fixed_dictionaries({
        "vector": maybe(st.lists(maybe(elements), max_size=4)),
        "exp": maybe(st.sampled_from([1, -1, 0, 2, True, 1.0, "1"])),
    })
    data = {"target": draw(maybe(elements)), "factors": draw(maybe(st.lists(maybe(factor),
                                                                           max_size=4)))}
    if draw(st.booleans()):
        data["trace"] = draw(json_values)
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1, unique=True)):
        del data[key]
    text = json.dumps(data)
    return draw(st.sampled_from([text, text, text[:-1]]) | json_values.map(json.dumps)
                | st.text(max_size=20))


def run_verify(directory, instance_text: str, certificate_text: str):
    """Exit code and standard error of an in-process `normcert verify`."""
    instance = directory / "instance.json"
    certificate = directory / "certificate.json"
    instance.write_text(instance_text, encoding="utf-8")
    certificate.write_text(certificate_text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["verify", "--input", str(instance), "--certificate", str(certificate)])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _valid_pairs():
    """(ring, instance JSON, certificate JSON) of freshly built certificates."""
    pairs = []
    for ring, n, m, seed in ((QQ, 2, 2, 1), (QQ, 3, 1, 2), (QQ_LOCAL_X, 2, 2, 3)):
        inst = random_instance(ring, random.Random(seed), n, m)
        cert = certify(inst.ext, inst.q, inst.xs, rng=seed)
        spec = InstanceSpec(ext=inst.ext, q=inst.q, xs=list(inst.xs), options={})
        pairs.append((ring, instance_to_json(spec), certificate_to_json(ring, cert)))
    return pairs


VALID = _valid_pairs()
FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(instance_texts(), certificate_texts())
def test_any_input_gives_a_documented_exit_code(workdir, instance_text, certificate_text):
    code, err = run_verify(workdir, instance_text, certificate_text)
    assert code in DOCUMENTED_VERIFY_EXITS
    assert "Traceback" not in err


@FUZZ
@given(st.sampled_from(VALID), certificate_texts())
def test_any_certificate_for_a_valid_instance(workdir, pair, certificate_text):
    _, instance, _ = pair
    code, err = run_verify(workdir, json.dumps(instance), certificate_text)
    assert code in DOCUMENTED_VERIFY_EXITS
    assert "Traceback" not in err


@pytest.mark.parametrize("ring, instance, cert", VALID)
def test_valid_certificates_are_accepted(workdir, ring, instance, cert):
    assert run_verify(workdir, json.dumps(instance), json.dumps(cert)) == (0, "")


def _value(ring, q, vector):
    return sum((a * y * y for a, y in zip(q, vector)), ring.zero)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_false_claims_are_rejected(workdir, data):
    ring, instance, cert = data.draw(st.sampled_from(VALID))
    cert = json.loads(json.dumps(cert))
    parsed = certificate_from_json(ring, cert)
    kind = data.draw(st.sampled_from(["coordinate", "target", "exponent"]))
    if kind == "coordinate":
        # a new coordinate y' with y'^2 != y^2 changes the factor's value
        i = data.draw(st.integers(0, len(cert["factors"]) - 1))
        j = data.draw(st.integers(0, len(cert["factors"][i]["vector"]) - 1))
        y = parsed.factors[i].vector[j]
        new = data.draw(st.fractions(max_denominator=1000).filter(
            lambda v: ring.element(v) not in (y, -y)))
        cert["factors"][i]["vector"][j] = str(new)
    elif kind == "target":
        new = data.draw(st.fractions(max_denominator=1000).filter(
            lambda v: ring.element(v) != parsed.target))
        cert["target"] = str(new)
    else:
        # flipping the exponent of a factor of value v multiplies the product
        # by v^(+-2), which changes it unless v^2 = 1
        q = [element_from_json(ring, a) for a in instance["q"]]
        flippable = [i for i, f in enumerate(parsed.factors)
                     if (v := _value(ring, q, f.vector)) * v != ring.one]
        i = data.draw(st.sampled_from(flippable))
        cert["factors"][i]["exp"] = -cert["factors"][i]["exp"]
    code, err = run_verify(workdir, json.dumps(instance), json.dumps(cert))
    assert code == 1, (kind, err)
    assert err.startswith("certificate rejected") and "Traceback" not in err

