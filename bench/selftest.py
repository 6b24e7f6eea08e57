"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires
correct output, no failed operation and the metric names of BENCHMARK.json.
Then shows that the independent check accepts a fresh certificate of each
ring and rejects it once its target, one exponent, one coordinate or the
instance's witness is altered.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from itertools import zip_longest

import run  # puts the library of this checkout on the path
import check

TINY = 3


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def benchmark_metric_names(kind: str) -> set:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def check_workload(name: str, trace: int):
    args = run.parse_args(["--workload", name, "--seconds", "0", "--trace", str(trace),
                           "--count", str(TINY)])
    result = run.run(args)
    expect(result["correct"], f"{name} trace {trace}: incorrect output")
    expect(result["failed"] == 0, f"{name} trace {trace}: {result['failed']} operations failed")
    expect(result["attempted"] % (2 * TINY) == 0, f"{name}: attempted is not whole rounds")
    expected = benchmark_metric_names("per_layer" if trace else "end_to_end")
    if not trace:  # a tail needs 40 instances, which a tiny run lacks
        expected = {m for m in expected if not m.endswith(".tail")}
    expect(set(result["metrics"]) == expected, f"{name} trace {trace}: metric names differ")
    print(f"ok   {name} trace {trace}: {result['attempted']} operations")


def plus_one(data):
    """The JSON encoding of a ring element plus one."""
    if isinstance(data, str):
        return str(Fraction(data) + 1)
    num = [Fraction(c) for c in data["num"]]
    den = [Fraction(c) for c in data["den"]]
    total = [a + b for a, b in zip_longest(num, den, fillvalue=Fraction(0))]
    return {"num": [str(c) for c in total], "den": data["den"]}


def tampered(instance: dict, cert: dict):
    """(what was altered, instance, certificate) triples, one thing altered in each."""
    arith = check.ARITHMETIC[instance["ring"]]
    diag = [arith.parse(a) for a in instance["q"]]
    out = []

    c = copy.deepcopy(cert)
    c["target"] = plus_one(c["target"])
    out.append(("target", instance, c))

    # flipping the exponent of a factor whose value is +-1 changes nothing
    values = [check.form_value(arith, diag, [arith.parse(y) for y in f["vector"]])
              for f in cert["factors"]]
    i = next(i for i, v in enumerate(values) if v * v != arith.one)
    c = copy.deepcopy(cert)
    c["factors"][i]["exp"] = -c["factors"][i]["exp"]
    out.append((f"exponent of factor {i}", instance, c))

    c = copy.deepcopy(cert)
    c["factors"][i]["exp"] = c["factors"][i]["exp"] == 1  # a bool, not an int
    out.append((f"exponent of factor {i} as a bool", instance, c))

    c = copy.deepcopy(cert)
    c["factors"][0]["vector"][0] = plus_one(c["factors"][0]["vector"][0])
    out.append(("first coordinate of factor 0", instance, c))

    # the factors still multiply to the target: only the norm check can see it
    inst = copy.deepcopy(instance)
    inst["x"][0][0] = plus_one(inst["x"][0][0])
    out.append(("first witness coordinate of the instance", inst, cert))
    return out


def check_tampering(name: str):
    text = run.make_corpus(name, run.DEFAULT_SEED, 1)[0]
    instance = json.loads(text)
    cert = json.loads(run.certify_op(text))
    expect(check.check_certificate(instance, cert) == [], f"{name}: genuine certificate rejected")
    for what, inst, bad in tampered(instance, cert):
        problems = check.check_certificate(inst, bad)
        expect(problems != [], f"{name}: altered {what} was accepted")
        print(f"ok   {name}: altered {what} rejected ({'; '.join(problems)})")


def main() -> int:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_workload(name, trace)
    for name in ("q-small", "local"):  # one workload per ring
        check_tampering(name)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
