import importlib.util
import sys
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


def test_the_claims_table_and_the_benchmark_agree_on_refuted_claims():
    # perfbench states its expected verdicts on its own; both must name the
    # same refuted claims
    from hopfforge.report import REFUTED
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up
    refuted = {(e.check, e.target)
               for name in workloads.NAMES
               for _, expected in workloads.get(name, 1).commands
               for e in expected if e.claim == workloads.REFUTED}
    assert refuted == set(REFUTED)
