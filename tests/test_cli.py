import json
import os
import subprocess
import sys

import pytest

import normcert
from normcert import cli, instances
from normcert.cli import main
from normcert.errors import InternalAssertion
from normcert.qform import QuadraticForm

GAUSS_INSTANCE = {
    "ring": "Q",
    "p": {"ring": "Q", "coeffs": ["1", "0", "1"]},
    "q": ["1", "1"],
    "x": [["3/2", "1/2"], ["1/2", "-1/2"]],
}

# the Gauss certificate as certify wrote it before the end vectors became
# integral (now ((1, 3), +1), ((1, -1), -1)); verify must keep accepting it
FRACTIONAL_GAUSS_CERTIFICATE = {
    "target": "5",
    "factors": [
        {"exp": 1, "vector": ["1/2", "3/2"]},
        {"exp": -1, "vector": ["1/2", "-1/2"]},
    ],
}

DEGREE_ONE_INSTANCE = {
    "ring": "Q",
    "p": ["-1", "1"],
    "q": ["1"],
    "x": [["3"]],
}

POLE = {"num": ["1"], "den": ["0", "1"]}  # 1/x, not in the local ring
LOCAL_INSTANCE = {"ring": "Q[x]_(x)", "p": ["1", "0", "1"], "q": ["1"], "x": [["1", "1"]]}
NOT_SIMPLE_INSTANCE = dict(GAUSS_INSTANCE, p=["0", "0", "1"])  # p(0) = 0
POLE_INSTANCE = dict(LOCAL_INSTANCE, x=[["1", POLE]])
# found by tests/test_cli_fuzz.py: both once ended in a TypeError
LIST_RING_INSTANCE = dict(GAUSS_INSTANCE, ring=[])
NULL_NUM_INSTANCE = dict(LOCAL_INSTANCE, x=[["1", {"num": None}]])
# a pole at 0 and a non-unit whose integers pass Python's int/str digit
# limit: building the messages once raised ValueError, and certify printed
# a traceback and exited 1
BIG = "1" + "0" * 4400
BIG_POLE = {"num": ["-1/2"], "den": ["0", BIG]}
DIGIT_LIMIT_INSTANCES = {
    "diagonal-pole": dict(LOCAL_INSTANCE, q=[BIG_POLE]),
    "witness-pole": dict(LOCAL_INSTANCE, x=[["1", BIG_POLE]]),
    "diagonal-non-unit": dict(LOCAL_INSTANCE, q=[{"num": ["0", BIG]}]),
}
# q(x) = 4 is a scalar, never primitive, so the search skips the b = 1
# probe, and a single try is only that probe's slot
SCALAR_INSTANCE = {"ring": "Q", "p": ["-2", "0", "1"], "q": ["1"], "x": [["2", "0"]]}
# the form names a ring of its own; certify once raised ValueError on it
OTHER_RING_FORM_INSTANCE = dict(GAUSS_INSTANCE, q={"ring": "Q[x]_(x)", "diag": ["1", "1"]})
BAD_OPTIONS = [
    {"seed": "1"},
    {"seed": True},
    {"seed": 1.5},
    {"max_tries": "x"},
    {"max_tries": 0},
    {"max_tries": True},
    {"bound": 0},
    {"bound": -3},
    {"bound": 2.0},
]


def engine_bug(*args, **kwargs):
    raise InternalAssertion("an identity failed")


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def instance_path(tmp_path):
    return write_json(tmp_path / "instance.json", GAUSS_INSTANCE)


def run_certify(instance_path, tmp_path, *extra):
    out = str(tmp_path / "cert.json")
    code = main(["certify", "--input", instance_path, "--output", out, *extra])
    return code, out


def verify_tampered(instance_path, tmp_path, tamper):
    """Exit code of verify on a fresh certificate changed by `tamper`."""
    _, out = run_certify(instance_path, tmp_path)
    cert = json.loads(open(out).read())
    tamper(cert)
    tampered = write_json(tmp_path / "tampered.json", cert)
    return main(["verify", "--input", instance_path, "--certificate", tampered])


class TestCertifyCommand:
    def test_writes_certificate(self, instance_path, tmp_path):
        code, out = run_certify(instance_path, tmp_path)
        assert code == 0
        cert = json.loads(open(out).read())
        assert cert["target"] == "5"
        assert all(f["exp"] in (1, -1) for f in cert["factors"])

    def test_stdout_when_no_output(self, instance_path, capsys):
        assert main(["certify", "--input", instance_path]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["target"] == "5"

    def test_byte_identical_reruns(self, instance_path, tmp_path):
        _, first = run_certify(instance_path, tmp_path, "--seed", "9")
        first_bytes = open(first, "rb").read()
        _, second = run_certify(instance_path, tmp_path, "--seed", "9")
        assert open(second, "rb").read() == first_bytes

    def test_env_seed_fallback(self, instance_path, tmp_path, monkeypatch):
        monkeypatch.setenv("NPCERT_SEED", "9")
        _, env_out = run_certify(instance_path, tmp_path)
        env_bytes = open(env_out, "rb").read()
        monkeypatch.delenv("NPCERT_SEED")
        _, flag_out = run_certify(instance_path, tmp_path, "--seed", "9")
        assert open(flag_out, "rb").read() == env_bytes

    def test_trace_flag(self, instance_path, tmp_path):
        code, out = run_certify(instance_path, tmp_path, "--trace")
        assert code == 0
        cert = json.loads(open(out).read())
        # degree 2: one level, and h = r leaves no modulus g below it
        assert len(cert["trace"]) == 1
        assert set(cert["trace"][0]) == {"n", "p", "h", "r", "q0", "b"}

    def test_only_the_flag_writes_the_trace(self, tmp_path, capsys):
        # an instance option is no switch: "trace" is not an option key, so
        # the instance is refused, and nothing is written
        inst = dict(GAUSS_INSTANCE, options={"trace": True})
        code, out = run_certify(write_json(tmp_path / "inst.json", inst), tmp_path)
        assert code == 3
        assert "unknown key 'trace' in 'options'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_degree_one_single_factor(self, tmp_path):
        code, out = run_certify(write_json(tmp_path / "inst.json", DEGREE_ONE_INSTANCE), tmp_path)
        assert code == 0
        cert = json.loads(open(out).read())
        assert cert["target"] == "9"
        assert cert["factors"] == [{"exp": 1, "vector": ["3"]}]

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"ring": "Q",')
        assert main(["certify", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line" in err or "char" in err  # position-annotated message

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["certify", "--input", str(tmp_path / "nope.json")]) == 3

    def test_invalid_instance_exits_3(self, tmp_path):
        path = write_json(tmp_path / "inst.json", dict(GAUSS_INSTANCE, q=["1"]))
        assert main(["certify", "--input", path]) == 3

    @pytest.mark.parametrize(
        "bad", [NOT_SIMPLE_INSTANCE, POLE_INSTANCE, LIST_RING_INSTANCE, NULL_NUM_INSTANCE]
    )
    def test_unusable_ring_data_exits_3(self, bad, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", bad)
        assert main(["certify", "--input", path]) == 3
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", DIGIT_LIMIT_INSTANCES.values(), ids=DIGIT_LIMIT_INSTANCES)
    def test_numbers_past_the_digit_limit_exit_3(self, bad, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", bad)
        assert main(["certify", "--input", path]) == 3
        err = capsys.readouterr().err
        assert "invalid instance" in err and "Traceback" not in err

    def test_form_over_another_ring_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", OTHER_RING_FORM_INSTANCE)
        assert main(["certify", "--input", path]) == 3
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize("options", BAD_OPTIONS)
    def test_bad_options_exit_3(self, options, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", dict(GAUSS_INSTANCE, options=options))
        assert main(["certify", "--input", path]) == 3
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--bound", "0"], ["--max-tries", "-1"], ["--bound", "x"], ["--seed", "x"]]
    )
    def test_bad_search_flags_are_usage_errors(self, flag, instance_path, capsys):
        # exit 3 (bad input), so that exit 2 means only an exhausted search
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--input", instance_path, *flag])
        assert exc.value.code == 3
        assert "usage:" in capsys.readouterr().err

    def test_integer_literal_past_digit_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        text = json.dumps(dict(GAUSS_INSTANCE, options={"seed": 0}))
        path.write_text(text.replace('"seed": 0', '"seed": 1' + "0" * 5000))
        assert main(["certify", "--input", str(path)]) == 3
        assert "invalid instance" in capsys.readouterr().err

    def test_internal_error_exits_4(self, instance_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "certify", engine_bug)
        assert main(["certify", "--input", instance_path]) == 4
        assert "internal error" in capsys.readouterr().err

    def test_search_exhaustion_exits_2(self, tmp_path):
        path = write_json(tmp_path / "inst.json", SCALAR_INSTANCE)
        assert main(["certify", "--input", path, "--max-tries", "1"]) == 2


class TestVerifyCommand:
    def test_round_trip_accepts(self, instance_path, tmp_path):
        _, out = run_certify(instance_path, tmp_path)
        assert main(["verify", "--input", instance_path, "--certificate", out]) == 0

    def test_fractional_end_vectors_accepted(self, instance_path, tmp_path):
        cert = write_json(tmp_path / "old.json", FRACTIONAL_GAUSS_CERTIFICATE)
        assert main(["verify", "--input", instance_path, "--certificate", cert]) == 0

    def test_flipped_exponent_rejected(self, instance_path, tmp_path, capsys):
        def flip(cert):
            cert["factors"][0]["exp"] = -cert["factors"][0]["exp"]

        assert verify_tampered(instance_path, tmp_path, flip) == 1
        assert "product" in capsys.readouterr().err

    def test_wrong_target_rejected(self, instance_path, tmp_path):
        assert verify_tampered(instance_path, tmp_path, lambda c: c.update(target="7")) == 1

    def test_boolean_exponent_exits_3(self, instance_path, tmp_path, capsys):
        # the first factor has exp 1, and JSON true compares equal to it
        def to_true(cert):
            cert["factors"][0]["exp"] = True

        assert verify_tampered(instance_path, tmp_path, to_true) == 3
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [NOT_SIMPLE_INSTANCE, POLE_INSTANCE, LIST_RING_INSTANCE, NULL_NUM_INSTANCE]
    )
    def test_unusable_ring_data_exits_3(self, bad, instance_path, tmp_path, capsys):
        _, out = run_certify(instance_path, tmp_path)
        path = write_json(tmp_path / "bad.json", bad)
        assert main(["verify", "--input", path, "--certificate", out]) == 3
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: c.update(factors=5),
            lambda c: c["factors"][0].update(vector=5),
        ],
        ids=["factors-not-a-list", "vector-not-a-list"],
    )
    def test_malformed_certificate_exits_3(self, tamper, instance_path, tmp_path, capsys):
        assert verify_tampered(instance_path, tmp_path, tamper) == 3
        assert "invalid input" in capsys.readouterr().err

    def test_product_past_digit_limit_rejected(self, instance_path, tmp_path, capsys):
        cert = {"target": "5", "factors": [{"vector": ["1" + "0" * 5000, "0"], "exp": 1}]}
        path = write_json(tmp_path / "cert.json", cert)
        assert main(["verify", "--input", instance_path, "--certificate", path]) == 1
        assert "certificate rejected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vector, reason",
        [
            (["1"], "cannot be evaluated"),
            (["1", "0", "0"], "cannot be evaluated"),
            ([], "cannot be evaluated"),
            # 0^2 + 0^2 = 0 is not a unit
            (["0", "0"], "is not a unit"),
        ],
        ids=["short", "long", "empty", "non-unit"],
    )
    def test_unusable_factor_vector_rejected(self, vector, reason, instance_path, tmp_path,
                                             capsys):
        def replace_first(cert):
            cert["factors"][0]["vector"] = vector

        assert verify_tampered(instance_path, tmp_path, replace_first) == 1
        err = capsys.readouterr().err
        assert err.startswith("certificate rejected: factor 0") and reason in err

    def test_pole_in_factor_vector_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", LOCAL_INSTANCE)

        def pole_entry(cert):
            cert["factors"][0]["vector"][0] = POLE

        assert verify_tampered(path, tmp_path, pole_entry) == 3
        assert "invalid input" in capsys.readouterr().err

    def test_internal_error_exits_4(self, instance_path, tmp_path, monkeypatch, capsys):
        _, out = run_certify(instance_path, tmp_path)
        monkeypatch.setattr(cli, "verify", engine_bug)
        assert main(["verify", "--input", instance_path, "--certificate", out]) == 4
        assert "internal error" in capsys.readouterr().err

    def test_engine_failure_in_a_factor_exits_4(self, instance_path, tmp_path, monkeypatch,
                                                 capsys):
        # a failure evaluating a factor is the verifier's, not the certificate's
        _, out = run_certify(instance_path, tmp_path)
        monkeypatch.setattr(QuadraticForm, "integral_value", engine_bug)
        assert main(["verify", "--input", instance_path, "--certificate", out]) == 4
        assert "internal error" in capsys.readouterr().err

    def test_pole_in_certificate_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "inst.json", LOCAL_INSTANCE)
        assert verify_tampered(path, tmp_path, lambda c: c.update(target=POLE)) == 3
        assert "invalid input" in capsys.readouterr().err

    def test_parse_failure_exits_3(self, instance_path, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert main(["verify", "--input", instance_path, "--certificate", str(bad)]) == 3


class TestDemoCommand:
    def test_char2_single_field(self, capsys):
        assert main(["demo", "char2", "--field", "F4"]) == 0
        out = capsys.readouterr().out
        assert "F4" in out
        report = json.loads(out.strip().splitlines()[-1])
        assert report[0]["squares_off_line"] == 0

    def test_char3_single_field(self, capsys):
        assert main(["demo", "char3", "--field", "F3"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out.strip().splitlines()[-1])
        assert report[0]["violations"] == 0
        assert report[0]["qualifying"] > 0

    @pytest.mark.parametrize("kind, field, expected", [
        ("char2", "F4",
         " field  elements  off-line  image  =k*1  prim.sq\n"
         "    F4        16         0      4  True        0\n"
         '[{"field":"F4","image_equals_line":true,"image_size":4,"primitive_squares":0,'
         '"squares_off_line":0,"total":16}]\n'),
        ("char3", "F3",
         " field  elements   units  qualifying  violations\n"
         "    F3        27      18          12           0\n"
         '[{"field":"F3","qualifying":12,"total":27,"units":18,"violations":0}]\n'),
    ])
    def test_report_table_is_pinned(self, kind, field, expected, capsys):
        assert main(["demo", kind, "--field", field]) == 0
        assert capsys.readouterr().out == expected

    def test_rejects_wrong_field(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "char3", "--field", "F4"])
        assert exc.value.code == 3

    def test_randsuite_small(self, capsys):
        assert main(["demo", "randsuite", "--count", "5", "--seed", "7"]) == 0
        assert "5/5 certificates verified" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["-3", "0", "x"])
    def test_randsuite_count_below_one_is_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "randsuite", "--count", count])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert "--count" in captured.err and "certificates verified" not in captured.out

    def test_randsuite_internal_error_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(instances, "certify", engine_bug)
        assert main(["demo", "randsuite", "--count", "2", "--seed", "7"]) == 4
        captured = capsys.readouterr()
        assert "instance 0: internal error: an identity failed" in captured.err
        assert "0/2 certificates verified" in captured.out


def test_usage_errors_exit_3(capsys):
    for argv in (["verify", "--input", "x.json"], ["frobnicate"], ["demo"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
    assert "usage:" in capsys.readouterr().err


def run_child(*argv):
    """`python -m normcert *argv` in a process of its own, which finds the
    package where this process imported it from."""
    src = os.path.dirname(os.path.dirname(normcert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "normcert", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_entry_point(instance_path):
    proc = run_child("certify", "--input", instance_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["target"] == "5"


def test_search_exhaustion_prints_one_line(tmp_path):
    # outside pytest no logging handler is configured, so a warning logged
    # by the search would reach stderr too
    proc = run_child("certify", "--input", write_json(tmp_path / "inst.json", SCALAR_INSTANCE),
                     "--max-tries", "1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "search exhausted: no general-position scaling found in 1 tries"]
