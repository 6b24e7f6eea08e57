"""Certify/verify benchmark for normcert.

Run from the repository root:

    python3 bench/run.py --workload q-small --seed 1 --seconds 35 --trace 0

Each workload is one fixed shape (ring, n, m).  From the seed it draws a
fixed list of instances and encodes them as instance JSON; every round then
runs, for each instance in a fresh random order, the certify operation
(parse, certify, encode) and the verify operation (parse instance and
certificate, verify), in-process and single-threaded.  Rounds repeat until the next one would
overrun --seconds.  Every output is checked apart from the library
(check.py) outside the timed spans.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced rounds alternate and
the line carries the per-layer metrics of layers.py instead.  A fuller
record goes to bench/results/.  The exit code is 0 when every output was
correct, 1 when a check failed, and 2 when the library cannot be imported
from src/ of the same checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# the library under test is the one in this checkout, never an installed copy
sys.path.insert(0, str(SRC))
try:
    import normcert
    from normcert import serialize
except ImportError as exc:
    print(f"bench: cannot import normcert from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(normcert.__file__).resolve().is_relative_to(SRC):
    print(f"bench: normcert was imported from {normcert.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

import check  # noqa: E402  (needs the path set above)
import layers  # noqa: E402

DEFAULT_SEED = 1
COEFF_BOUND = 10
SETUP_SAMPLES = 7
DETERMINISM_SAMPLE = 3
TAIL_BEYOND = 10
MIN_TAIL_INSTANCES = 40


@dataclass(frozen=True)
class Workload:
    ring_id: str
    n: int
    m: int
    count: int


# One shape per workload, so that a run's medians describe one cost regime
# rather than a mix whose composition moves them.
WORKLOADS = {
    # per-call overhead and repeated work; every det takes the n <= 3 expansion
    "q-small": Workload("Q", n=3, m=2, count=200),
    # integer Bareiss on 5x5 and big-integer growth over four reduction levels
    "q-tall": Workload("Q", n=5, m=1, count=40),
    # the only RatFunc workload; about half its time is in polynomial gcds
    "local": Workload("Q[x]_(x)", n=2, m=3, count=40),
}

# The operations call the library through this namespace, so that a traced
# round can wrap them without touching the library.
api = SimpleNamespace(
    certify=normcert.certify,
    verify=normcert.verify,
    decode_instance=lambda text: serialize.instance_from_json(json.loads(text)),
    decode_certificate=lambda ring, text: serialize.certificate_from_json(
        ring, json.loads(text)
    ),
    encode_certificate=lambda ring, cert: serialize.dumps(
        serialize.certificate_to_json(ring, cert)
    ),
)


def make_corpus(name: str, seed: int, count: int | None = None) -> list[str]:
    """Instance JSON texts; each carries the certify seed in its options."""
    w = WORKLOADS[name]
    ring = normcert.get_ring(w.ring_id)
    rng = random.Random(f"{name}:{seed}")
    corpus = []
    for _ in range(w.count if count is None else count):
        inst = normcert.random_instance(ring, rng, w.n, w.m, COEFF_BOUND)
        inst = replace(inst, options={"seed": rng.randrange(2**31)})
        corpus.append(serialize.dumps(serialize.instance_to_json(inst)))
    return corpus


def certify_op(text: str, stats=None) -> str:
    inst = api.decode_instance(text)
    cert = api.certify(inst.ext, inst.q, inst.xs, rng=inst.options["seed"], stats=stats)
    return api.encode_certificate(inst.ring, cert)


def verify_op(text: str, cert_text: str) -> bool:
    inst = api.decode_instance(text)
    cert = api.decode_certificate(inst.ring, cert_text)
    return bool(api.verify(inst.ext, inst.q, inst.xs, cert))


@dataclass
class Round:
    # per instance, in corpus order; None where the operation failed
    certify_s: list
    verify_s: list
    outputs: list  # certificate JSON texts
    failed: int = 0
    errors: list = field(default_factory=list)  # operations that raised
    rejected: list = field(default_factory=list)  # certificates verify turned down

    @property
    def total_s(self) -> float:
        return sum(t for t in self.certify_s + self.verify_s if t is not None)


def run_round(corpus: list[str], order: random.Random, stats=None) -> Round:
    """One pass over the corpus in a fresh random order, so that an instance
    does not meet the same phase of any periodic disturbance in every round."""
    clock = time.perf_counter
    n = len(corpus)
    r = Round([None] * n, [None] * n, [None] * n)
    indices = list(range(n))
    order.shuffle(indices)
    gc.collect()
    for index in indices:
        text = corpus[index]
        start = clock()
        try:
            out = certify_op(text, stats)
        except Exception as exc:  # an operation that fails is counted, not fatal
            r.failed += 2  # the verify operation has nothing to check either
            r.errors.append(f"instance {index}: certify raised {exc!r}"[:300])
            continue
        r.certify_s[index] = clock() - start
        r.outputs[index] = out
        start = clock()
        try:
            accepted = verify_op(text, out)
        except Exception as exc:
            r.failed += 1
            r.errors.append(f"instance {index}: verify raised {exc!r}"[:300])
            continue
        r.verify_s[index] = clock() - start
        if not accepted:
            r.rejected.append(f"instance {index}: verify rejected the certificate")
    return r


def run_rounds(seconds: float, step, between=lambda spent: None):
    """Call step() for whole rounds until the next would take the time spent
    in them past `seconds`; between(spent) runs after each round that is not
    the last, and its time does not count."""
    rounds = []
    spent = 0.0
    while True:
        start = time.perf_counter()
        rounds.append(step())
        last = time.perf_counter() - start
        spent += last
        if spent + last > seconds:
            return rounds
        between(spent)


def check_outputs(corpus, rounds) -> list[str]:
    """Independent check of the first output per instance, byte equality of
    every later one, and a fresh re-certification of a sample."""
    problems = [e for r in rounds for e in r.rejected]
    reference = [None] * len(corpus)
    for r in rounds:
        for index, out in enumerate(r.outputs):
            if out is None:
                continue
            if reference[index] is None:
                reference[index] = out
                problems += [
                    f"instance {index}: {p}"
                    for p in check.check_certificate(json.loads(corpus[index]), json.loads(out))
                ]
            elif out != reference[index]:
                problems.append(f"instance {index}: certificate JSON differs between rounds")
    for index in range(min(DETERMINISM_SAMPLE, len(corpus))):
        if reference[index] is not None and certify_op(corpus[index]) != reference[index]:
            problems.append(f"instance {index}: re-certifying gave different JSON")
    return problems


def tail(values):
    """The highest order statistic with TAIL_BEYOND samples above it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def per_instance_best(rounds, attr: str) -> list[float]:
    """Each instance's fastest time over the run's rounds."""
    columns = zip(*(getattr(r, attr) for r in rounds))
    return [min(ts) for ts in ([t for t in col if t is not None] for col in columns) if ts]


def height_digits(cert_text: str) -> int:
    return max(len(digits) for digits in re.findall(r"\d+", cert_text))


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that does this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.count is not None:
        cmd += ["--count", str(args.count)]
    start = time.perf_counter()
    # no timeout: Popen.wait polls in steps of up to 50 ms when given one
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def timed_rounds(corpus, order, args):
    """The untraced run's rounds and the median set-up time.  The set-ups are
    spread evenly over the rounds, so that a slow spell of the machine weighs
    on them as it does on the rounds."""
    setups = []

    def between(spent):
        if spent >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(time_setup(args))

    rounds = run_rounds(args.seconds, lambda: run_round(corpus, order), between)
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(args))
    return rounds, statistics.median(setups)


def end_to_end_metrics(corpus, rounds, setup_s: float) -> dict:
    certify_s = per_instance_best(rounds, "certify_s")
    verify_s = per_instance_best(rounds, "verify_s")
    outputs = [out for out in rounds[0].outputs if out is not None]
    heights = [height_digits(out) for out in outputs]
    metrics = {
        "setup_s": (setup_s, "s"),
        "certify_s.p50": (statistics.median(certify_s), "s"),
        "verify_s.p50": (statistics.median(verify_s), "s"),
        "certs_per_s": (len(verify_s) / (sum(certify_s) + sum(verify_s)), "1/s"),
        "cert_bytes.p50": (statistics.median(len(out.encode()) for out in outputs), "bytes"),
        "height_digits.p50": (statistics.median(heights), "digits"),
        "height_digits.max": (max(heights), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(corpus) >= MIN_TAIL_INSTANCES:
        metrics["certify_s.tail"] = (tail(certify_s), "s")
        metrics["verify_s.tail"] = (tail(verify_s), "s")
    return metrics


def traced_metrics(corpus, order, seconds: float):
    """Alternate untraced and traced rounds; per-layer figures per round."""
    tracer = layers.Tracer()
    samples = []

    def pair():
        plain = run_round(corpus, order)
        stats = normcert.CertifyStats()
        tracer.reset()
        with tracer.installed(api):
            traced = run_round(corpus, order, stats)
        samples.append((plain.total_s, traced.total_s, tracer.snapshot(stats)))
        return plain, traced

    pairs = run_rounds(seconds, pair)
    rounds = [r for p in pairs for r in p]
    count_names = [name for name, unit in layers.METRICS if unit == "count"]
    counts = [{name: snap[name] for name in count_names} for _, _, snap in samples]
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("per-layer call counts differ between traced rounds")
    metrics = {}
    for name, unit in layers.METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(traced - plain for plain, traced, _ in samples)
        elif unit == "count":
            value = counts[0][name]
        else:
            value = statistics.median(snap[name] for _, _, snap in samples)
        metrics[name] = (value, unit)
    return rounds, metrics, problems


def run(args) -> dict:
    corpus = make_corpus(args.workload, args.seed, args.count)
    order = random.Random(f"order:{args.seed}")
    run_round(corpus[:1], order)  # warm-up
    if args.setup_only:
        return {}
    if args.trace:
        rounds, metrics, problems = traced_metrics(corpus, order, args.seconds)
    else:
        rounds, setup_s = timed_rounds(corpus, order, args)
        metrics = end_to_end_metrics(corpus, rounds, setup_s)
        problems = []
    problems += check_outputs(corpus, rounds)
    attempted = 2 * len(corpus) * len(rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(
        result,
        workload=args.workload,
        shape=asdict(WORKLOADS[args.workload]),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        instances=len(corpus),
        rounds=len(rounds),
        round_s=[r.total_s for r in rounds],
        certify_best_s=per_instance_best(rounds, "certify_s"),
        problems=problems[:50],
        errors=[e for r in rounds for e in r.errors][:50],
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in (problems + record["errors"])[:10]:
        print(line, file=sys.stderr)
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--count", type=int, default=None,
                        help="instances per round (default: the workload's own)")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and exit; used to time set-up")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    if args.setup_only:
        return 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
