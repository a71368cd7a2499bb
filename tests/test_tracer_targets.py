"""The benchmark tracer (bench/tracer.py) wraps revdeg functions by module
and name; a target revdeg no longer defines is skipped there, and the
per-layer metrics it declares silently drop out of a traced run.  This test
only reads bench/."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer()
    targets = [(m, t) for m, t, *_ in tracer.SPANS] + [(m, t) for m, t, _ in tracer.COUNTERS]
    assert targets
    missing = []
    for module_name, target in targets:
        obj = importlib.import_module(module_name)
        for part in target.split("."):
            # a method must be defined on its class itself, as the tracer patches it there
            obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{module_name}.{target}")
    assert not missing
