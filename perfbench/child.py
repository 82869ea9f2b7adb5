"""One benchmark client: a fresh process that sets hopfforge up, then issues a
workload's commands in order, each after the previous verdict.

Run from the root of a checkout, only by run.py:

    python3 perfbench/child.py setup
    python3 perfbench/child.py run <workload> <seed> [<spans file>]

It prints ``ready`` once the package and all its check modules are imported
and the shipped presentations are parsed; the parent times set-up up to that
line.  ``run`` then prints one JSON line with the verdict window, the
process's CPU time and peak memory, and every command's exit code and
reports.  Given a spans file, the run is traced and the spans are written
there when it ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path.cwd()
CHECK_MODULES = ("hopfforge.cli", "hopfforge.hopf", "hopfforge.pairing", "hopfforge.double",
                 "hopfforge.rmatrix", "hopfforge.families", "hopfforge.bialgebra")


def setup():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hopfforge
    if src not in Path(hopfforge.__file__).resolve().parents:
        raise SystemExit(f"hopfforge imported from {hopfforge.__file__}, not {src}")
    for name in CHECK_MODULES:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError as e:
            if e.name != name:  # a module that was merged away is skipped
                raise
    for name in workloads.SHIPPED:
        hopfforge.load_presentation(name)


def run_commands(argvs, tracer=None):
    cli = sys.modules["hopfforge.cli"]
    done = []
    t0 = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))  # looked up per call, so a wrapper is seen
            except Exception:  # the run goes on; the command's reports count as missing
                error = traceback.format_exc()
        done.append((argv, code, out.getvalue(), err.getvalue(), error))
    verdict_s = time.perf_counter() - t0
    commands = []
    for argv, code, out, err, error in done:
        try:
            reports = json.loads(out) if code in (0, 1) else None
        except json.JSONDecodeError as e:
            reports, error = None, f"unreadable report stream: {e}"
        commands.append({"argv": list(argv), "exit": code, "reports": reports,
                         "stderr": err, "error": error})
    return verdict_s, commands


def write_spans(path: Path, tracer, argvs):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with gzip.open(tmp, "wt") as fh:
        json.dump({"fields": ["label", "parent", "start_s", "end_s", "command"],
                   "commands": [list(a) for a in argvs], "spans": tracer.spans}, fh)
    tmp.replace(path)


def main(argv):
    setup()
    print("ready", flush=True)
    if argv[0] == "setup":
        return 0
    _, name, seed, *trace = argv
    load = workloads.get(name, int(seed))
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    verdict_s, commands = run_commands(load.argvs(), tracer)
    result = {"verdict_s": verdict_s, "commands": commands}
    if tracer is not None:
        restored = tracer.restore()
        metrics, absent, check = tracer.metrics(verdict_s)
        write_spans(Path(trace[0]), tracer, load.argvs())
        result["trace"] = {"metrics": metrics, "absent": tracer.absent + absent,
                           "self_time": check,
                           "restored": restored}
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = ru.ru_utime + ru.ru_stime
    result["peak_rss_mb"] = ru.ru_maxrss / 1024  # kilobytes on Linux
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
