"""The benchmark's per-layer tracer wraps library functions by name
(`vars(owner)[attr]` in `bench/layers.py`), so a library rename breaks
`bench/run.py --trace 1`.  This loads that module from its path, without
importing the benchmark as a package, and checks that every target still
resolves, and that its snapshot still reads every figure it reports from
the library's `CertifyStats`."""

import importlib
import importlib.util
import random
from pathlib import Path

from normcert.certify import CertifyStats, certify
from normcert.instances import random_instance
from normcert.rings import QQ

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_library_target_resolves():
    layers = _load_layers()
    assert layers.LIBRARY_TARGETS
    for layer, module, cls, attrs in layers.LIBRARY_TARGETS:
        owner, name = importlib.import_module(module), module
        if cls is not None:
            assert cls in set(vars(owner)), f"{layer}: {module}.{cls} is gone"
            owner, name = vars(owner)[cls], f"{module}.{cls}"
        for attr in attrs:
            assert attr in set(vars(owner)), f"{layer}: {name}.{attr} is gone"


def test_snapshot_reads_every_metric_from_a_real_run():
    # trace.overhead_s is the one figure the runner adds itself
    layers = _load_layers()
    stats = CertifyStats()
    inst = random_instance(QQ, random.Random(0), 4, 2)
    certify(inst.ext, inst.q, inst.xs, rng=0, stats=stats)
    out = layers.Tracer().snapshot(stats)
    assert set(out) == {name for name, _ in layers.METRICS} - {"trace.overhead_s"}
    assert out["certify.levels"] == stats.levels == 2
    assert out["genpos.calls"] == stats.genpos_calls == 2
    assert out["genpos.tries"] == stats.genpos_tries >= 2
