import importlib.util
from pathlib import Path


def test_every_tracer_target_resolves():
    # the benchmark's tracer wraps functions by name and reports missing ones
    # as absent; a rename or deletion here would silently drop a layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [label for label, module, qualname, _ in tracer.TARGETS
               if tracer._resolve(module, qualname) is None]
    assert missing == []
