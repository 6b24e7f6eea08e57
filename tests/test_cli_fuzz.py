"""Fuzzing the command line and its number parser in-process.

Every instance and certificate text given to `normcert verify` must end in
a documented exit code (0 accept, 1 reject, 3 bad input, 4 internal error)
with no traceback, and a valid certificate with one factor coordinate, the
target or one exponent changed so that its claim is false must be rejected
with exit 1.  Every instance text given to `normcert certify` must end in
0, 2 (search exhausted), 3 or 4, with no traceback.  The serializer reads
rational strings as integer pairs; it must return the values, and refuse
the inputs, that a parser with one Fraction per string does."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from normcert.certify import certify
from normcert.cli import main
from normcert.instances import random_instance
from normcert.poly import cleared
from normcert.rings import QQ, QQ_LOCAL_X
from normcert.serialize import (
    FormatError,
    InstanceSpec,
    certificate_from_json,
    certificate_to_json,
    element_from_json,
    instance_to_json,
)

from oracles import factor_vector, fraction_element_from_json, fraction_rational_from_json

DOCUMENTED_VERIFY_EXITS = {0, 1, 3, 4}
DOCUMENTED_CERTIFY_EXITS = {0, 2, 3, 4}

rationals = st.fractions(max_denominator=10**6).map(str)
# strings a number parser may trip over: signs, slashes, zero denominators,
# exponents, whitespace, words, and integers past the int/str digit limit
SHORT_AWKWARD = ["0", "-0", "1/0", "0/0", "1/-2", "-1/2", " 1", "1e5", "1.5", "inf", "nan",
                 "x", "", "/", "--1"]
LONG_AWKWARD = ["9" * 5000, "-" + "7" * 4400 + "/3"]
awkward = st.sampled_from(SHORT_AWKWARD + LONG_AWKWARD)
numbers = rationals | awkward
short_numbers = rationals | st.sampled_from(SHORT_AWKWARD)


def json_values_of(numbers):
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
               | numbers)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6) | st.sampled_from(["num", "den", "ring"]), inner,
                          max_size=4),
        max_leaves=12,
    )


def elements_of(numbers):
    local = st.fixed_dictionaries(
        {"num": st.lists(numbers, max_size=3)}, optional={"den": st.lists(numbers, max_size=3)}
    )
    return numbers | local


json_values = json_values_of(numbers)
elements = elements_of(numbers)
# no integer past the int/str digit limit, for runs that certify
short_json_values = json_values_of(short_numbers)
short_elements = elements_of(short_numbers)


def maybe(strategy, other=json_values):
    """The strategy most of the time, otherwise any JSON value."""
    return st.one_of(strategy, strategy, strategy, other)


@st.composite
def instance_texts(draw, max_n=3, elements=elements, any_json=json_values):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 3))
    entry = maybe(elements, any_json)
    coeffs = draw(st.lists(entry, min_size=n, max_size=n)) + ["1"]
    ring = draw(maybe(st.sampled_from(["Q", "Q[x]_(x)", "Z", "F5"]), any_json))
    p = draw(st.sampled_from([coeffs, {"ring": ring, "coeffs": coeffs}]))
    data = {
        "ring": ring,
        "p": draw(maybe(st.just(p), any_json)),
        "q": draw(maybe(st.lists(entry, min_size=m, max_size=m), any_json)),
        "x": draw(maybe(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=m, max_size=m), any_json)),
    }
    if draw(st.booleans()):
        data["options"] = draw(maybe(st.dictionaries(
            st.sampled_from(["seed", "max_tries", "bound", "trace"]), any_json, max_size=2),
            any_json))
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=2, unique=True)):
        del data[key]
    text = json.dumps(data)
    # mostly the structured text, sometimes cut short, any JSON or any text
    return draw(st.sampled_from([text, text, text[:-1]]) | any_json.map(json.dumps)
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
        y = factor_vector(parsed.factors[i])[j]
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
                     if (v := _value(ring, q, factor_vector(f))) * v != ring.one]
        i = data.draw(st.sampled_from(flippable))
        cert["factors"][i]["exp"] = -cert["factors"][i]["exp"]
    code, err = run_verify(workdir, json.dumps(instance), json.dumps(cert))
    assert code == 1, (kind, err)
    assert err.startswith("certificate rejected") and "Traceback" not in err


# the keys each object may have, as the README states them
INSTANCE_KEYS = {"ring", "p", "q", "x", "options"}
OPTION_KEYS = {"seed", "max_tries", "bound"}
CERTIFICATE_KEYS = {"target", "factors", "trace"}
FACTOR_KEYS = {"vector", "exp"}
ENTRY_KEYS = {"num", "den"}
KEY_NAMES = sorted(INSTANCE_KEYS | OPTION_KEYS | CERTIFICATE_KEYS | FACTOR_KEYS | ENTRY_KEYS
                   | {"ring", "coeffs", "diag"})


def closed_pair(pair):
    """Fresh copies of a valid instance, with its form as an object that names
    its ring and with options, and of its certificate."""
    ring, instance, cert = pair
    instance, cert = json.loads(json.dumps([instance, cert]))
    instance["q"] = {"ring": ring.id, "diag": instance["q"]}
    instance["options"] = {"seed": 1, "max_tries": 64, "bound": 2}
    return instance, cert


def instance_objects(data):
    """Each JSON object of an instance, with the keys it may have."""
    entries = data["p"]["coeffs"] + data["q"]["diag"] + [e for v in data["x"] for e in v]
    return [(data, INSTANCE_KEYS), (data["p"], {"ring", "coeffs"}),
            (data["q"], {"ring", "diag"}), (data["options"], OPTION_KEYS)] + [
        (e, ENTRY_KEYS) for e in entries if isinstance(e, dict)]


def certificate_objects(data):
    """Each JSON object of a certificate, with the keys it may have."""
    entries = [data["target"]] + [e for f in data["factors"] for e in f["vector"]]
    return [(data, CERTIFICATE_KEYS)] + [(f, FACTOR_KEYS) for f in data["factors"]] + [
        (e, ENTRY_KEYS) for e in entries if isinstance(e, dict)]


@pytest.mark.parametrize("pair", VALID)
def test_every_known_key_is_accepted(workdir, pair):
    instance, cert = closed_pair(pair)
    assert {key for obj, _ in instance_objects(instance) + certificate_objects(cert)
            for key in obj} <= set(KEY_NAMES)
    assert run_verify(workdir, json.dumps(instance), json.dumps(cert)) == (0, "")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_an_unknown_key_at_any_level_exits_3(workdir, data):
    instance, cert = closed_pair(data.draw(st.sampled_from(VALID)))
    side = data.draw(st.sampled_from(["instance", "certificate"]))
    objects = instance_objects(instance) if side == "instance" else certificate_objects(cert)
    obj, allowed = data.draw(st.sampled_from(objects))
    key = data.draw((st.sampled_from(KEY_NAMES) | st.text(max_size=6))
                    .filter(lambda k: k not in allowed))
    obj[key] = data.draw(short_json_values)
    code, err = run_verify(workdir, json.dumps(instance), json.dumps(cert))
    assert code == 3 and "unknown key" in err, (side, key, err)
    if side == "instance":
        code, err = run_certify(workdir, json.dumps(instance))
        assert code == 3 and "unknown key" in err, (key, err)


def run_certify(directory, instance_text: str):
    """Exit code and standard error of an in-process `normcert certify`."""
    instance = directory / "certify-instance.json"
    instance.write_text(instance_text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["certify", "--input", str(instance), "--max-tries", "4"])
    return code, err.getvalue()


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50).map(str)


@st.composite
def well_formed_instance_texts(draw):
    """Instances with every field of the right shape and small numbers, so
    that most of them reach the engine."""
    ring = draw(st.sampled_from(["Q", "Q[x]_(x)"]))
    entry = small_rationals if ring == "Q" else elements_of(small_rationals)
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    data = {
        "ring": ring,
        "p": draw(st.lists(entry, min_size=n, max_size=n)) + ["1"],
        "q": draw(st.lists(entry, min_size=m, max_size=m)),
        "x": draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)),
        "options": {"seed": draw(st.integers(0, 2**31)), "bound": draw(st.integers(1, 3))},
    }
    return json.dumps(data)


@FUZZ
@given(well_formed_instance_texts()
       | instance_texts(max_n=2, elements=short_elements, any_json=short_json_values))
def test_certify_gives_a_documented_exit_code(workdir, instance_text):
    code, err = run_certify(workdir, instance_text)
    assert code in DOCUMENTED_CERTIFY_EXITS
    assert "Traceback" not in err


def parsed(parse, *args):
    """parse(*args), or FormatError when it refuses the input."""
    try:
        return parse(*args)
    except FormatError:
        return FormatError


# unreduced, signed, padded, decimal, exponent and non-ASCII digit strings,
# zero denominators, and integers just past and far past the digit limit
PARSER_CASES = ["2/4", "-0/7", "007/010", "+3", " 1", "1 ", "1.5", "1e3", "٣", "1/0",
                "-1/00", "9" * 4301, "1" * 5000 + "/7", "3/" + "2" * 4400,
                "-" + "0" * 4400 + "5", "1" * 5000 + "/0"]
rational_texts = (numbers | st.sampled_from(PARSER_CASES) | st.text(max_size=8)
                  | st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
element_texts = elements_of(rational_texts) | json_values


@FUZZ
@given(rational_texts | json_values)
# the edges of the integer path: "-0" and "007", strings int() reads but
# the integer pattern does not, a comma inside a string, an integer past
# the int/str digit limit, and JSON numbers or booleans where a string belongs
@example("-0")
@example("007")
@example("1_000")
@example("+3")
@example("1,2")
@example("9" * 4301)
@example(5)
@example(True)
def test_rational_parser_matches_the_fraction_parser(data):
    new, old = parsed(element_from_json, QQ, data), parsed(fraction_rational_from_json, data)
    assert type(new) is type(old) and new == old


@FUZZ
@given(st.sampled_from([QQ, QQ_LOCAL_X]), element_texts)
@example(QQ_LOCAL_X, {"num": ["1/0"]})
@example(QQ_LOCAL_X, {"num": ["1"], "den": ["1/0"]})
@example(QQ_LOCAL_X, {"num": ["1"], "den": ["0", "0"]})
@example(QQ_LOCAL_X, {"num": ["2/4", "007/010"], "den": ["-0/7", "3/6"]})
# a pole whose integers pass the int/str digit limit: its message once
# raised ValueError
@example(QQ_LOCAL_X, {"num": ["-1/2"], "den": ["0", "1" + "0" * 4400]})
# integer and p/q strings in one list, an integer past the digit limit in
# an otherwise integer list, "-0" and "007"
@example(QQ_LOCAL_X, {"num": ["3", "1/2", "-4"], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": ["1", "9" * 4301, "2"], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": ["-0", "007"], "den": ["1"]})
@example(QQ, "-0")
@example(QQ_LOCAL_X, "007")
# denominators that equal one but are not the text ["1"]
@example(QQ_LOCAL_X, {"num": ["2", "3"], "den": ["1", "0"]})
@example(QQ_LOCAL_X, {"num": ["2", "3"], "den": ["01"]})
@example(QQ_LOCAL_X, {"num": ["2", "3"], "den": [" 1"]})
# trailing zeros, and an empty numerator
@example(QQ_LOCAL_X, {"num": ["2", "0", "0"], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": [], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": ["0", "-0"], "den": ["1"]})
# JSON numbers, booleans and a bare string where a list of strings belongs
@example(QQ_LOCAL_X, {"num": [1, 2], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": ["1"], "den": [1]})
@example(QQ_LOCAL_X, {"num": [True], "den": ["1"]})
@example(QQ_LOCAL_X, {"num": "12", "den": ["1"]})
@example(QQ_LOCAL_X, {"num": ["1,2"], "den": ["1"]})
def test_element_parser_matches_the_fraction_parser(ring, data):
    new = parsed(element_from_json, ring, data)
    old = parsed(fraction_element_from_json, ring, data)
    assert type(new) is type(old) and new == old


# entries with a pole at 0, and entries whose numerator and denominator
# share a factor that cancels a root at 0
POLES = [{"num": ["1"], "den": ["0", "1"]}, {"num": ["-1/2"], "den": ["0", "3/4"]},
         {"num": ["0", "1"], "den": ["0", "0", "2"]}]
CANCELLING = [{"num": ["0", "2"], "den": ["0", "4"]}, {"num": ["0", "1", "1"], "den": ["0", "2/3"]},
              {"num": ["1", "1"], "den": ["2/3", "2/3"]}]
vector_entries = elements_of(rational_texts) | st.sampled_from(POLES + CANCELLING)


def decoded_factor_vector(ring, vector):
    """The numerators and denominator of a one-factor certificate's vector."""
    cert = certificate_from_json(ring, {"target": "1", "factors": [{"vector": vector, "exp": 1}]})
    factor = cert.factors[0]
    return factor.nums, factor.den


def cleared_fraction_values(ring, vector):
    """The vector parsed with one Fraction per coefficient, as ring values
    put over one denominator in lowest terms."""
    return cleared(ring, [fraction_element_from_json(ring, v) for v in vector])


@FUZZ
@given(st.sampled_from([QQ, QQ_LOCAL_X]), st.lists(vector_entries, max_size=4))
@example(QQ_LOCAL_X, [])
@example(QQ_LOCAL_X, ["2/4", {"num": ["0", "1"], "den": ["1", "1"]}, POLES[0]])
@example(QQ_LOCAL_X, [{"num": ["3"], "den": ["0", "1"]}, {"num": ["0", "0", "1"]}])
@example(QQ, ["2/4", "-6/8", "٣", "1.5"])
# the edges of the integer path: a list mixing integer and p/q strings,
# an integer past the digit limit in an otherwise integer list, "-0" and
# "007", and JSON numbers, booleans or a comma where strings belong
@example(QQ, ["3", "1/2", "-4"])
@example(QQ, ["1", "9" * 4301, "2"])
@example(QQ, ["-0", "007", "5"])
@example(QQ, ["1", 2])
@example(QQ, [True, "1"])
@example(QQ, ["1,2", "3"])
@example(QQ, ["1", "2,"])
@example(QQ_LOCAL_X, ["3", {"num": ["1/2", "1"], "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": ["1", "9" * 4301], "den": ["1"]}, {"num": ["2"], "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": ["-0", "007"], "den": ["1"]}, "-0"])
@example(QQ_LOCAL_X, [{"num": ["1"], "den": ["1", "0"]}, {"num": ["2"], "den": ["01"]},
                      {"num": ["5"], "den": [" 1"]}])
@example(QQ_LOCAL_X, [{"num": ["4", "0", "0"], "den": ["1"]}, {"num": [], "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": [], "den": ["1"]}, {"num": ["0"], "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": [1], "den": ["1"]}, {"num": ["1"], "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": ["1"], "den": [True]}])
@example(QQ_LOCAL_X, [{"num": "12", "den": ["1"]}])
@example(QQ_LOCAL_X, [{"num": ["1"], "den": ["1"]}, 5])
def test_vector_decoder_matches_cleared_fraction_values(ring, vector):
    new = parsed(decoded_factor_vector, ring, vector)
    old = parsed(cleared_fraction_values, ring, vector)
    assert new == old
