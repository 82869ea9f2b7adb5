"""hopfforge benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog|double|rmatrix --seed N \
        --seconds S --trace 0|1

One client issues a workload's ``hopfforge --format json --jobs 1 ...``
commands in order, each after the previous verdict.  Each pass over the
commands is a fresh child process started from this one, so no cache carries
over between passes, and passes never overlap.  With ``--trace 0`` the run
makes whole passes until S seconds have gone (at least one) and reports the
medians of

  verdict_s     first command to last verdict, inside the child, set-up excluded
  setup_s       child spawn until hopfforge, its check modules and the twelve
                shipped presentations are loaded (every CLI call pays this)
  cpu_s         user plus system CPU time of the child
  peak_rss_mb   peak resident memory of the child

With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics of the traced pass (see tracer.py), plus
``trace.overhead_s``, the traced minus the untraced verdict time.

Every report is checked against the expected-verdict table in workloads.py
and, with ``wall_time`` removed, against the first report stream this checkout
produced for the same workload, seed and source tree.  A report that
disagrees with either, belongs to a command that exited 2 or raised, or is
missing, counts as failed; ``failed_share`` is failed over attempted.  The
last line of output is the JSON result; a full record, with provenance and the
per-check wall times, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
RUN_BUDGET_S = 170.0   # a run must end within 180 s
SETUP_SAMPLES = 9      # set-up is short and noisy: take the median of several


def spawn(args, deadline):
    """Run one child; returns (setup_s, last stdout line or None, error or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        return None, None, f"child {' '.join(args)} exited {proc.returncode}"
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else None), None


def strip_times(reports):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]


def stream_of(commands):
    return [[c["exit"], strip_times(c["reports"] or [])] for c in commands]


def source_digest(workload_file: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files + [workload_file]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def judge(load, commands, reference):
    """(attempted, failure messages) for one pass against the table and the
    reference stream; ``commands`` is None when the pass produced nothing."""
    attempted, failures = 0, []
    commands = commands or [None] * len(load.commands)
    for i, ((argv, expected), got) in enumerate(zip(load.commands, commands)):
        cmd = " ".join(argv[len(workloads.BASE_ARGS):])
        reports = got and got["reports"]
        if reports is None:
            attempted += len(expected)
            why = "no result" if got is None else (
                got["error"] or f"exit {got['exit']}: {got['stderr'].strip()}")
            failures += [f"{cmd}: {e.check} :: {e.target}: {why}" for e in expected]
            continue
        ref = reference[i][1] if reference is not None else None
        for j in range(max(len(expected), len(reports))):
            attempted += 1
            exp = expected[j] if j < len(expected) else None
            rep = reports[j] if j < len(reports) else None
            if rep is None:
                failures.append(f"{cmd}: {exp.check} :: {exp.target}: missing")
            elif exp is None:
                failures.append(f"{cmd}: unexpected report {rep['check']} :: {rep['target']}")
            elif (rep["check"], rep["target"]) != (exp.check, exp.target):
                failures.append(f"{cmd}: got {rep['check']} :: {rep['target']}, "
                                f"expected {exp.check} :: {exp.target}")
            elif rep["status"] not in workloads.STATUSES[exp.claim]:
                failures.append(f"{cmd}: {exp.check} :: {exp.target}: status "
                                f"{rep['status']}, expected {exp.claim}")
            elif rep["stability_audit"] != exp.audit:
                failures.append(f"{cmd}: {exp.check} :: {exp.target}: audit "
                                f"{rep['stability_audit']}, expected {exp.audit}")
            elif ref is not None and (j >= len(ref) or strip_times([rep])[0] != ref[j]):
                failures.append(f"{cmd}: {exp.check} :: {exp.target}: report differs "
                                "from the first run's (wall_time aside)")
    return attempted, failures


def provenance(load, seed):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seed": seed, "deterministic": not load.seeded,
            "seed_note": ("the seed reaches only the --seed of build double" if load.seeded
                          else "the commands ignore the seed"),
            "why": load.why}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    if not (ROOT / "src" / "hopfforge" / "cli.py").is_file():
        print(f"error: no hopfforge source tree under {ROOT}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load = workloads.get(args.workload, args.seed)
    digest = source_digest(HERE / "workloads.py")
    # reports of a workload that ignores the seed must agree across all seeds
    key = f"{load.name}-seed{args.seed}" if load.seeded else load.name
    stream_file = RESULTS / "streams" / f"{key}-{digest[:16]}.json"
    reference = json.loads(stream_file.read_text()) if stream_file.exists() else None

    # compiles bytecode and warms the file cache; users do not pay that per call
    spawn(["setup"], deadline)

    passes, setups, errors = [], [], []
    traced = untraced = None

    def one_pass(trace_file=None):
        run_args = ["run", load.name, str(args.seed)]
        if trace_file is not None:
            run_args.append(str(trace_file))
        setup_s, line, error = spawn(run_args, deadline)
        result = json.loads(line) if line else None
        if error or result is None:
            errors.append(error or "child printed no result")
        else:
            setups.append(setup_s)
        passes.append(result)
        return result

    if args.trace:
        p0 = time.perf_counter()
        traced = one_pass(RESULTS / f"{load.name}-seed{args.seed}.spans.json.gz")
        # the untraced reference pass runs only if it can end within the budget
        if traced and time.perf_counter() + 1.5 * (time.perf_counter() - p0) < deadline:
            untraced = one_pass()
    else:
        t0 = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            one_pass()
            now = time.perf_counter()
            if now - t0 >= args.seconds or now + (now - p0) > deadline:
                break
        while len(setups) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
            setup_s, _, error = spawn(["setup"], deadline)
            if error:
                errors.append(error)
                break
            setups.append(setup_s)

    attempted, failures = 0, []
    for result in passes:
        commands = result["commands"] if result else None
        if reference is None and commands and all(
                c["reports"] is not None and not c["error"] for c in commands):
            reference = stream_of(commands)
            stream_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = stream_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(reference))
            tmp.replace(stream_file)
        n, bad = judge(load, commands, reference)
        attempted += n
        failures += bad
    failed = len(failures)

    done = [p for p in passes if p]
    per_check = {}
    for p in done:
        for c in p["commands"]:
            for r in c["reports"] or []:
                per_check.setdefault(f"{r['check']} :: {r['target']}", []).append(r["wall_time"])
    correct = failed == 0 and not errors
    values = {}
    notes = []
    if args.trace:
        if traced:
            tr = traced["trace"]
            values = dict(tr["metrics"])
            values["trace.overhead_s"] = (traced["verdict_s"] - untraced["verdict_s"]
                                          if untraced else 0.0)
            notes += [f"absent: {name}" for name in tr["absent"]]
            if not untraced:
                notes.append("absent: trace.overhead_s (no time left for the untraced pass)")
            if not tr["restored"]:
                errors.append("tracer did not restore every original function")
            if not tr["self_time"]["consistent"]:
                errors.append(f"self times do not add up to wall time: {tr['self_time']}")
            correct = correct and not errors
    elif done:
        values = {
            "verdict_s": statistics.median(p["verdict_s"] for p in done),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(p["cpu_s"] for p in done),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        }
    if not values:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"error: metrics {sorted(set(values) ^ names)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": load.name, "trace": args.trace, "seconds": args.seconds,
              "provenance": dict(provenance(load, args.seed), source_sha256=digest),
              "passes": len(done), "setup_samples": setups,
              "verdict_s_per_pass": [p["verdict_s"] for p in done],
              "per_check_wall_s": {k: statistics.median(v) for k, v in per_check.items()},
              "failed_share": failed / attempted if attempted else 1.0,
              "failures": failures, "errors": errors, "notes": notes,
              "trace_self_time": traced["trace"]["self_time"] if args.trace and traced else None,
              "metrics": metrics, "run_s": time.perf_counter() - start}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{load.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {load.name} (seed {args.seed}, {len(done)} passes, "
          f"{'traced' if args.trace else 'untraced'}): {load.why}")
    print("provenance: " + json.dumps(record["provenance"]))
    print("per-check wall time (median over passes):")
    for key, t in record["per_check_wall_s"].items():
        print(f"  {t:10.4f} s  {key}")
    for line in failures + errors + notes:
        print(f"  ! {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {record['failed_share']:.6g} ratio ({failed} of {attempted} reports)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
